/**
 * @file
 * Observability tests: metrics registry semantics (counters, gauges,
 * histograms, one kind per name, reset, JSON export), bit-stable
 * counting across thread counts, the scratch arena's and named
 * caches' registry metrics, per-op trace export (valid JSON, span
 * count == executed ops, per-lane nesting, predicted-vs-actual start
 * cycles), per-job execution profiles, the telemetry-off contract (no
 * artifacts produced), end-to-end trace-id correlation (serving
 * lifecycle -> executor spans -> profile, with Perfetto flow events),
 * the schedule-calibration accumulator, the dropped-telemetry metrics,
 * and a concurrent scrape-under-load stress.
 *
 * This suite runs under TSan in CI alongside test_parallel,
 * test_runtime and test_exporter: the registry, collector, seqlock
 * ring, span log, and exporter read paths are all concurrent by
 * design.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/lru_cache.h"
#include "common/parallel.h"
#include "common/scratch.h"
#include "compiler/compiler.h"
#include "json_lint.h"
#include "obs/calib.h"
#include "obs/eventlog.h"
#include "obs/exporter.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/ring.h"
#include "obs/trace.h"
#include "runtime/op_graph_executor.h"
#include "runtime/serving.h"

namespace f1 {
namespace {

using testing::isValidJson;

//
// Metrics registry
//

TEST(MetricsRegistryTest, CountersAccumulateAndSnapshot)
{
    auto &reg = obs::MetricsRegistry::global();
    obs::Counter &c = reg.counter("obs_test.counter_a");
    const uint64_t before = c.value();
    c.inc();
    c.inc(41);
    EXPECT_EQ(c.value(), before + 42);
    // Same name resolves to the same counter.
    EXPECT_EQ(&reg.counter("obs_test.counter_a"), &c);

    auto snap = reg.snapshot();
    ASSERT_TRUE(snap.counters.count("obs_test.counter_a"));
    EXPECT_EQ(snap.counters["obs_test.counter_a"], c.value());
}

TEST(MetricsRegistryTest, HistogramBucketsAndQuantiles)
{
    auto &reg = obs::MetricsRegistry::global();
    const double bounds[] = {1.0, 10.0, 100.0};
    obs::Histogram &h = reg.histogram("obs_test.hist", bounds);
    h.reset();
    for (int i = 0; i < 90; ++i)
        h.observe(0.5); // first bucket
    for (int i = 0; i < 9; ++i)
        h.observe(5.0); // second bucket
    h.observe(1000.0);  // overflow bucket

    auto s = h.snapshot();
    EXPECT_EQ(s.count, 100u);
    ASSERT_EQ(s.counts.size(), 4u);
    EXPECT_EQ(s.counts[0], 90u);
    EXPECT_EQ(s.counts[1], 9u);
    EXPECT_EQ(s.counts[2], 0u);
    EXPECT_EQ(s.counts[3], 1u);
    EXPECT_DOUBLE_EQ(s.quantile(0.5), 1.0);
    EXPECT_DOUBLE_EQ(s.quantile(0.95), 10.0);
    EXPECT_NEAR(s.sum, 90 * 0.5 + 9 * 5.0 + 1000.0, 1e-3);
}

/** A counter's or gauge's value in a fresh snapshot (0 if absent). */
uint64_t
registryValue(const std::string &name)
{
    const auto snap = obs::MetricsRegistry::global().snapshot();
    for (const auto *scalars : {&snap.counters, &snap.gauges}) {
        auto it = scalars->find(name);
        if (it != scalars->end())
            return it->second;
    }
    return 0;
}

TEST(MetricsRegistryTest, GaugesKeepTheirLevelAcrossReset)
{
    auto &reg = obs::MetricsRegistry::global();
    obs::Counter &c = reg.counter("obs_test.reset_counter");
    obs::Gauge &g = reg.gauge("obs_test.level");
    EXPECT_EQ(&reg.gauge("obs_test.level"), &g);
    c.inc(5);
    g.set(7);
    g.add(3);
    g.sub(2);
    EXPECT_EQ(registryValue("obs_test.level"), 8u);
    reg.reset();
    EXPECT_EQ(c.value(), 0u);
    EXPECT_EQ(g.value(), 8u);
    EXPECT_EQ(registryValue("obs_test.level"), 8u);
}

TEST(MetricsRegistryTest, NameHasOneKind)
{
    auto &reg = obs::MetricsRegistry::global();
    reg.counter("obs_test.kind_counter");
    reg.gauge("obs_test.kind_gauge");
    EXPECT_THROW(reg.gauge("obs_test.kind_counter"), FatalError);
    EXPECT_THROW(reg.counter("obs_test.kind_gauge"), FatalError);
}

TEST(MetricsRegistryTest, SameNameCachesSumAndKeepHitsOfTheDestroyed)
{
    const std::string hits = "cache.obs_test_cache.hits";
    const std::string size = "cache.obs_test_cache.size";
    const uint64_t hits0 = registryValue(hits);
    const uint64_t size0 = registryValue(size);
    LruCache<int, int> a(8, "obs_test_cache");
    {
        LruCache<int, int> b(8, "obs_test_cache");
        a.put(1, 10);
        b.put(1, 10);
        b.put(2, 20);
        (void)a.get(1);
        (void)b.get(1);
        (void)b.get(2);
        (void)b.get(3); // miss
        EXPECT_EQ(registryValue(hits) - hits0, 3u);
        EXPECT_EQ(registryValue(size) - size0, 3u);
    }
    // b's hits stay counted; its two entries leave the size.
    EXPECT_EQ(registryValue(hits) - hits0, 3u);
    EXPECT_EQ(registryValue(size) - size0, 1u);
    a.clear();
    EXPECT_EQ(registryValue(size), size0);
}

TEST(MetricsRegistryTest, ResetWithScratchCheckedOutKeepsLiveBalanced)
{
    // scratch.live counts outstanding handles: a reset() while one is
    // checked out must not leave it below its level once it returns.
    (void)ScratchArena::u32(8); // registers the scratch metrics
    const uint64_t before = registryValue("scratch.live");
    {
        auto h = ScratchArena::u32(64);
        h[0] = 1;
        obs::MetricsRegistry::global().reset();
    }
    EXPECT_EQ(registryValue("scratch.live"), before);
}

TEST(MetricsRegistryTest, SnapshotExportsValidJson)
{
    auto &reg = obs::MetricsRegistry::global();
    reg.counter("obs_test.json \"quoted\"\\name").inc();
    reg.gauge("obs_test.json_gauge").set(3);
    reg.histogram("obs_test.json_hist").observe(0.42);
    std::string why;
    const auto snap = reg.snapshot();
    const std::string json = snap.toJson();
    EXPECT_TRUE(isValidJson(json, &why)) << why << "\n" << json;
    EXPECT_NE(json.find("\"counters\""), std::string::npos);
    EXPECT_NE(json.find("\"histograms\""), std::string::npos);
    // Gauges sit in their own map and JSON object, apart from the
    // counters.
    EXPECT_EQ(snap.gauges.at("obs_test.json_gauge"), 3u);
    EXPECT_EQ(snap.counters.count("obs_test.json_gauge"), 0u);
    const size_t gauges = json.find("\"gauges\": {");
    ASSERT_NE(gauges, std::string::npos);
    EXPECT_GT(json.find("\"obs_test.json_gauge\": 3"), gauges);
}

TEST(MetricsRegistryTest, CountersBitStableAcrossThreadCounts)
{
    auto &reg = obs::MetricsRegistry::global();
    for (unsigned threads : {1u, 2u, 8u}) {
        obs::Counter &c = reg.counter(
            "obs_test.stable_" + std::to_string(threads));
        std::vector<std::thread> ts;
        for (unsigned t = 0; t < threads; ++t) {
            ts.emplace_back([&c] {
                for (int i = 0; i < 10000; ++i)
                    c.inc();
            });
        }
        for (auto &t : ts)
            t.join();
        // Relaxed atomics lose no increments: the total is exact, not
        // approximate, whatever the interleaving.
        EXPECT_EQ(c.value(), threads * 10000u);
    }
}

//
// Execution profiles and traces
//

FheParams
smallParams()
{
    FheParams p;
    p.n = 256;
    p.maxLevel = 8;
    p.primeBits = 28;
    p.plainModulus = 65537;
    return p;
}

Program
diamondProgram()
{
    Program p(256, 8, "obs-diamond");
    int x = p.input();
    int y = p.input();
    int w = p.inputPlain();
    int a = p.mul(x, y);
    int b = p.rotate(x, 1);
    int c = p.mulPlain(y, w);
    int d = p.add(a, c);
    int e = p.sub(d, b);
    int f = p.modSwitch(e);
    p.output(f);
    p.output(b);
    return p;
}

size_t
nonSourceOps(const Program &p)
{
    size_t n = 0;
    for (const HeOp &op : p.ops())
        if (op.kind != HeOpKind::kInput &&
            op.kind != HeOpKind::kInputPlain)
            ++n;
    return n;
}

TEST(TelemetryTest, OffByDefaultProducesNoArtifacts)
{
    FheContext ctx(smallParams());
    BgvScheme bgv(&ctx);
    Program p = diamondProgram();
    OpGraphExecutor exec(p, &bgv);

    auto res = exec.execute({}, {});
    EXPECT_EQ(res.profile, nullptr);
    EXPECT_EQ(res.trace, nullptr);
    EXPECT_EQ(res.opsExecuted, nonSourceOps(p));
}

TEST(TelemetryTest, StatsConsistentAcrossThreadBudgets)
{
    FheContext ctx(smallParams());
    BgvScheme bgv(&ctx);
    Program p = diamondProgram();
    OpGraphExecutor exec(p, &bgv);
    RuntimeInputs in;
    in.seed = 23;

    for (unsigned budget : {1u, 0u}) {
        ExecutionPolicy pol;
        pol.threadBudget = budget;
        auto res = exec.execute(in, pol);
        EXPECT_EQ(res.opsExecuted, nonSourceOps(p));
        EXPECT_GE(res.maxWavefrontWidth, 1u);
        EXPECT_GT(res.peakResidentCiphertexts, 0u);
        if (budget == 1) { // the serial walk
            EXPECT_EQ(res.maxWavefrontWidth, 1u);
            EXPECT_EQ(res.steals, 0u);
        }
    }
}

TEST(TelemetryTest, ProfileCountsHotPathWork)
{
    // GHS key-switching exercises the basis-extension hot path; it
    // needs auxiliary extension primes covering the hint level.
    FheParams params = smallParams();
    params.auxCount = params.maxLevel;
    FheContext ctx(params);
    BgvScheme bgv(&ctx, 0, KeySwitchVariant::kGhsExtension);
    Program p = diamondProgram();
    OpGraphExecutor exec(p, &bgv);
    RuntimeInputs in;
    in.seed = 29;

    ExecutionPolicy pol;
    pol.telemetry.profile = true;
    pol.telemetry.label = "unit";
    auto res = exec.execute(in, pol);

    ASSERT_NE(res.profile, nullptr);
    const obs::ExecutionProfile &prof = *res.profile;
    EXPECT_EQ(prof.label, "unit");
    // The diamond has a mul and a rotate: both key-switch, which
    // basis-extends and runs NTTs.
    EXPECT_GT(prof.keySwitchApplies, 0u);
    EXPECT_GT(prof.basisExtends, 0u);
    EXPECT_GT(prof.nttForward, 0u);
    EXPECT_GT(prof.nttInverse, 0u);
    EXPECT_GT(prof.scratchPeakWords, 0);
    EXPECT_GT(prof.executeMs, 0.0);

    // Every executed op kind shows up with the right multiplicity.
    std::map<std::string, uint64_t> expected;
    for (const HeOp &op : p.ops()) {
        switch (op.kind) {
          case HeOpKind::kInput:
          case HeOpKind::kInputPlain:
            break;
          case HeOpKind::kMul: ++expected["mul"]; break;
          case HeOpKind::kRotate: ++expected["rotate"]; break;
          case HeOpKind::kMulPlain: ++expected["mul_plain"]; break;
          case HeOpKind::kAdd: ++expected["add"]; break;
          case HeOpKind::kSub: ++expected["sub"]; break;
          case HeOpKind::kModSwitch: ++expected["mod_switch"]; break;
          case HeOpKind::kOutput: ++expected["output"]; break;
          default: break;
        }
    }
    uint64_t total = 0;
    for (const auto &[name, want] : expected) {
        auto it = prof.opKinds.find(name);
        ASSERT_NE(it, prof.opKinds.end()) << name;
        EXPECT_EQ(it->second.count, want) << name;
        total += it->second.count;
    }
    EXPECT_EQ(total, res.opsExecuted);

    std::string why;
    EXPECT_TRUE(isValidJson(prof.toJson(), &why)) << why;
}

TEST(TelemetryTest, ProfileCountersBitStableAcrossThreadCounts)
{
    FheContext ctx(smallParams());
    BgvScheme bgv(&ctx);
    Program p = diamondProgram();
    OpGraphExecutor exec(p, &bgv);
    RuntimeInputs in;
    in.seed = 31;

    // Warm the hint cache so every profiled run sees the same cache
    // state (hint generation itself runs NTTs).
    exec.execute(in, {});

    auto profiled = [&](unsigned budget, unsigned threads) {
        setGlobalThreadCount(threads);
        ExecutionPolicy pol;
        pol.threadBudget = budget;
        pol.telemetry.profile = true;
        auto res = exec.execute(in, pol);
        setGlobalThreadCount(0);
        return res.profile;
    };

    auto ref = profiled(1, 1);
    ASSERT_NE(ref, nullptr);
    for (unsigned budget : {1u, 0u}) {
        for (unsigned threads : {1u, 4u}) {
            auto prof = profiled(budget, threads);
            ASSERT_NE(prof, nullptr);
            // Hot-path work is a function of the program alone —
            // identical counts for every budget x thread count.
            EXPECT_EQ(prof->nttForward, ref->nttForward);
            EXPECT_EQ(prof->nttInverse, ref->nttInverse);
            EXPECT_EQ(prof->keySwitchApplies,
                      ref->keySwitchApplies);
            EXPECT_EQ(prof->basisExtends, ref->basisExtends);
            for (const auto &[name, slice] : ref->opKinds) {
                auto it = prof->opKinds.find(name);
                ASSERT_NE(it, prof->opKinds.end()) << name;
                EXPECT_EQ(it->second.count, slice.count) << name;
            }
        }
    }
}

TEST(TelemetryTest, TraceExportsPerfettoJson)
{
    FheContext ctx(smallParams());
    BgvScheme bgv(&ctx);
    Program p = diamondProgram();
    const ScheduleHints hints = compileProgram(p, F1Config{}).hints;
    OpGraphExecutor exec(p, &bgv);
    RuntimeInputs in;
    in.seed = 37;

    setGlobalThreadCount(4);
    ExecutionPolicy pol;
    pol.scheduleHints = &hints;
    pol.telemetry.trace = true;
    pol.telemetry.label = "trace-test";
    auto res = exec.execute(in, pol);
    setGlobalThreadCount(0);

    ASSERT_NE(res.trace, nullptr);
    const obs::Trace &trace = *res.trace;

    // One span per executed op, nothing dropped at this scale.
    EXPECT_EQ(trace.spanCount(), res.opsExecuted);
    EXPECT_EQ(trace.droppedEvents(), 0u);
    EXPECT_GE(trace.laneCount(), 1u);
    EXPECT_EQ(trace.label(), "trace-test");

    // Spans are well-nested per lane: a worker runs ops sequentially,
    // so spans in one lane never overlap.
    std::map<uint16_t, int64_t> laneEnd;
    for (const obs::TraceEvent &ev : trace.events()) {
        if (ev.kind != obs::TraceEventKind::kOpSpan)
            continue;
        auto [it, fresh] = laneEnd.try_emplace(ev.lane, 0);
        if (!fresh) {
            EXPECT_GE(ev.tsNs, it->second)
                << "overlapping spans in lane " << ev.lane;
        }
        it->second = ev.tsNs + ev.durNs;
        // Hinted runs stamp the compiler's predicted start cycle.
        EXPECT_GE(ev.predictedCycle, 0);
        EXPECT_EQ(ev.predictedCycle,
                  int64_t(hints.startCycle[size_t(ev.handle)]));
    }

    const std::string json = trace.json();
    std::string why;
    EXPECT_TRUE(isValidJson(json, &why)) << why;
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(json.find("\"predicted_start_cycle\""),
              std::string::npos);
}

/** Records 20 spans of one run into a 16-slot log and collects them. */
obs::Trace
overflowedTrace(const char *label)
{
    obs::SpanLog log(/*capacity=*/16);
    const uint64_t run = obs::allocateTraceId();
    for (int i = 0; i < 20; ++i) {
        obs::TraceEvent e;
        e.name = "op";
        e.handle = i;
        e.tsNs = i * 100;
        e.durNs = 50;
        log.record(e, run);
    }
    return log.collect(run, 0, log.recorded(), /*emitted=*/20,
                       /*epochNs=*/0, label);
}

TEST(TelemetryTest, TraceRingDropsOldestAndReportsCount)
{
    obs::Trace trace = overflowedTrace("tiny");
    EXPECT_EQ(trace.spanCount(), 16u);
    EXPECT_EQ(trace.droppedEvents(), 4u);
    // The survivors are the NEWEST events, in time order.
    ASSERT_EQ(trace.events().size(), 16u);
    EXPECT_EQ(trace.events().front().handle, 4);
    EXPECT_EQ(trace.events().back().handle, 19);
    std::string why;
    EXPECT_TRUE(isValidJson(trace.json(), &why)) << why;
}

TEST(TelemetryTest, ServingAttachesTenantLabeledProfiles)
{
    FheContext ctx(smallParams());
    BgvScheme bgv(&ctx);
    Program p = diamondProgram();

    ServingConfig cfg;
    cfg.workers = 2;
    cfg.policy.telemetry.profile = true;
    ServingEngine engine(&bgv, cfg);

    JobRequest req;
    req.program = &p;
    req.tenant = "tenant-a";
    auto fut = engine.submit(std::move(req));
    JobResult res = fut.get();

    ASSERT_NE(res.exec.profile, nullptr);
    EXPECT_EQ(res.exec.profile->label, "tenant-a");
    EXPECT_GT(res.exec.profile->keySwitchApplies, 0u);
    // Serving totals also land in the registry.
    auto snap = obs::MetricsRegistry::global().snapshot();
    EXPECT_GE(snap.counters.at("serving.jobs_completed"), 1u);
    ASSERT_TRUE(snap.histograms.count("serving.service_ms"));
    EXPECT_GE(snap.histograms.at("serving.service_ms").count, 1u);
}

//
// Correlated tracing (trace ids, flow events, live capture).
//

TEST(TraceIdTest, AllocationsAreUniqueAndNonZero)
{
    constexpr int kThreads = 4;
    constexpr int kPerThread = 2000;
    std::vector<std::vector<uint64_t>> got(kThreads);
    std::vector<std::thread> ts;
    for (int t = 0; t < kThreads; ++t) {
        ts.emplace_back([&got, t] {
            got[size_t(t)].reserve(kPerThread);
            for (int i = 0; i < kPerThread; ++i)
                got[size_t(t)].push_back(obs::allocateTraceId());
        });
    }
    for (auto &t : ts)
        t.join();
    std::set<uint64_t> all;
    for (const auto &v : got) {
        for (uint64_t id : v) {
            EXPECT_NE(id, 0u);
            all.insert(id);
        }
    }
    // Mixed-counter ids: no collisions even across threads.
    EXPECT_EQ(all.size(), size_t(kThreads) * kPerThread);
}

TEST(TraceIdTest, SpanCarriesTraceIdIntoJson)
{
    obs::SpanLog log(/*capacity=*/16);
    const uint64_t run = obs::allocateTraceId();
    obs::TraceEvent mul;
    mul.name = "mul";
    mul.handle = 3;
    mul.tsNs = 100;
    mul.durNs = 50;
    mul.predictedCycle = 7;
    mul.traceId = 0x00c0ffee12345678ULL;
    log.record(mul, run);
    obs::TraceEvent add; // default traceId: untraced
    add.name = "add";
    add.handle = 4;
    add.tsNs = 200;
    add.durNs = 10;
    log.record(add, run);
    obs::Trace trace = log.collect(run, 0, log.recorded(), /*emitted=*/2,
                                   /*epochNs=*/0, "tid");
    ASSERT_EQ(trace.events().size(), 2u);
    EXPECT_EQ(trace.events()[0].traceId, 0x00c0ffee12345678ULL);
    EXPECT_EQ(trace.events()[1].traceId, 0u);

    const std::string json = trace.json();
    std::string why;
    EXPECT_TRUE(isValidJson(json, &why)) << why;
    // Hex-string ids survive JSON round-trips at full 64-bit width.
    EXPECT_NE(json.find("\"trace_id\": \"0x00c0ffee12345678\""),
              std::string::npos);
}

TEST(CorrelationTest, ServingCorrelationEndToEnd)
{
    FheContext ctx(smallParams());
    BgvScheme bgv(&ctx);
    Program p = diamondProgram();
    const ScheduleHints hints = compileProgram(p, F1Config{}).hints;

    ServingConfig cfg;
    cfg.workers = 2;
    cfg.maxBatch = 4;
    cfg.policy.telemetry.profile = true;
    cfg.policy.telemetry.trace = true;
    ServingEngine engine(&bgv, cfg);

    std::vector<std::future<JobResult>> futs;
    for (int i = 0; i < 6; ++i) {
        JobRequest req;
        req.program = &p;
        req.tenant = i % 2 ? "corr-a" : "corr-b";
        req.inputs.seed = 100 + uint64_t(i);
        req.hints = &hints;
        futs.push_back(engine.submit(std::move(req)));
    }
    std::vector<JobResult> results;
    for (auto &f : futs)
        results.push_back(f.get());

    const std::vector<obs::ServingEvent> events =
        obs::FlightRecorder::global().dump();

    // Every completed job's trace id threads through all three
    // telemetry systems (the PR's acceptance bar).
    std::vector<std::shared_ptr<const obs::Trace>> traces;
    std::set<uint64_t> ids;
    for (const JobResult &r : results) {
        ASSERT_NE(r.traceId, 0u);
        ids.insert(r.traceId);

        size_t lifecycle = 0;
        for (const obs::ServingEvent &ev : events)
            if (ev.traceId == r.traceId)
                ++lifecycle;
        // At minimum submit, admit, and complete.
        EXPECT_GE(lifecycle, 3u) << "job " << r.jobId;

        ASSERT_NE(r.exec.trace, nullptr);
        size_t spans = 0;
        for (const obs::TraceEvent &ev : r.exec.trace->events())
            if (ev.kind == obs::TraceEventKind::kOpSpan &&
                ev.traceId == r.traceId)
                ++spans;
        EXPECT_GT(spans, 0u) << "job " << r.jobId;

        ASSERT_NE(r.exec.profile, nullptr);
        bool inProfile = false;
        for (uint64_t id : r.exec.profile->traceIds)
            inProfile |= id == r.traceId;
        EXPECT_TRUE(inProfile) << "job " << r.jobId;

        // Coalesced members share one trace; dedupe by identity.
        bool seen = false;
        for (const auto &t : traces)
            seen |= t == r.exec.trace;
        if (!seen)
            traces.push_back(r.exec.trace);
    }
    EXPECT_EQ(ids.size(), results.size()); // pairwise distinct

    // The correlated document links every one of this test's jobs
    // from its lifecycle chain into its first executor span.
    std::ostringstream os;
    EXPECT_EQ(obs::writeCorrelatedTrace(os, traces, events),
              ids.size());
    const std::string json = os.str();
    std::string why;
    ASSERT_TRUE(isValidJson(json, &why)) << why;
    EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"s\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"f\""), std::string::npos);
    EXPECT_NE(json.find("\"bp\": \"e\""), std::string::npos);
    EXPECT_EQ(json, obs::correlatedTraceJson(traces, events));
}

TEST(CorrelationTest, LiveCaptureRecordsWhileArmed)
{
    obs::SpanLog log(/*capacity=*/64);
    EXPECT_FALSE(log.armed());
    obs::TraceEvent pre; // disarmed: an untraced executor wouldn't
    pre.name = "mul";    // record, but the log still accepts
    pre.handle = 1;
    pre.tsNs = 100;
    pre.durNs = 10;
    pre.traceId = 7;
    log.record(pre, 0);
    log.arm();
    ASSERT_TRUE(log.armed());
    const uint64_t from = log.recorded();
    const int64_t t0 = 1000;
    for (int i = 0; i < 8; ++i) {
        obs::TraceEvent e;
        e.name = "add";
        e.handle = i;
        e.tsNs = t0 + i * 10;
        e.durNs = 5;
        e.traceId = uint64_t(i + 1);
        e.predictedCycle = i;
        log.record(e, 0);
    }
    log.disarm();
    EXPECT_FALSE(log.armed());

    auto spans = log.events(from, log.recorded());
    ASSERT_EQ(spans.size(), 8u);
    for (size_t i = 0; i < spans.size(); ++i) {
        EXPECT_EQ(spans[i].tsNs, t0 + int64_t(i) * 10);
        EXPECT_EQ(spans[i].handle, int32_t(i));
        EXPECT_EQ(spans[i].traceId, uint64_t(i + 1));
        EXPECT_EQ(spans[i].predictedCycle, int64_t(i));
        EXPECT_STREQ(spans[i].name, "add");
    }
    // The pre-window record is outside the window's sequence range.
    EXPECT_EQ(log.events(0, log.recorded()).size(), 9u);
}

//
// Schedule calibration.
//

TEST(CalibrationTest, RecoversSyntheticLinearFit)
{
    obs::ScheduleCalibration calib;
    // y = 3x + 500, exactly.
    for (int i = 0; i < 200; ++i)
        calib.record(2, "unit_kind", uint64_t(i),
                     int64_t(3 * i + 500));

    auto fits = calib.snapshot();
    ASSERT_EQ(fits.size(), 1u);
    EXPECT_EQ(fits[0].name, "unit_kind");
    EXPECT_EQ(fits[0].samples, 200u);
    EXPECT_NEAR(fits[0].slopeNsPerCycle, 3.0, 1e-6);
    EXPECT_NEAR(fits[0].interceptNs, 500.0, 1e-6);
    EXPECT_NEAR(fits[0].maeNs, 0.0, 1e-6);
    EXPECT_EQ(fits[0].retained, 200u);

    // The kind's gauges publish into the registry (slope in milli).
    auto snap = obs::MetricsRegistry::global().snapshot();
    EXPECT_EQ(snap.gauges.at("calib.unit_kind.samples"), 200u);
    EXPECT_EQ(snap.gauges.at("calib.unit_kind.slope_milli"), 3000u);
    EXPECT_EQ(snap.gauges.at("calib.unit_kind.intercept_ns"), 500u);

    // Out-of-range kinds and null names are ignored, never fatal.
    calib.record(obs::ScheduleCalibration::kMaxKinds, "over", 1, 1);
    calib.record(3, nullptr, 1, 1);
    EXPECT_EQ(calib.snapshot().size(), 1u);

    std::string why;
    const std::string json = calib.toJson();
    EXPECT_TRUE(isValidJson(json, &why)) << why;
    EXPECT_NE(json.find("\"slope_ns_per_cycle\""), std::string::npos);

    calib.reset();
    EXPECT_TRUE(calib.snapshot().empty());
}

TEST(CalibrationTest, ExecutorFeedsGlobalAccumulator)
{
    obs::ScheduleCalibration::global().reset();

    FheContext ctx(smallParams());
    BgvScheme bgv(&ctx);
    Program p = diamondProgram();
    const ScheduleHints hints = compileProgram(p, F1Config{}).hints;
    OpGraphExecutor exec(p, &bgv);
    RuntimeInputs in;
    in.seed = 41;

    ExecutionPolicy pol;
    pol.scheduleHints = &hints;
    pol.telemetry.trace = true;
    for (int i = 0; i < 3; ++i)
        exec.execute(in, pol);

    // The diamond exercises 7 traced op kinds (mul, rotate,
    // mul_plain, add, sub, mod_switch, output) — over the >= 5 the
    // observatory is specified to fit.
    auto fits = obs::ScheduleCalibration::global().snapshot();
    EXPECT_EQ(fits.size(), 7u);
    EXPECT_GE(fits.size(), 5u);
    std::set<std::string> names;
    uint64_t total = 0;
    for (const auto &f : fits) {
        names.insert(f.name);
        total += f.samples;
        EXPECT_EQ(f.retained,
                  std::min<size_t>(
                      f.samples, obs::ScheduleCalibration::kRingCap));
    }
    EXPECT_EQ(names.size(), fits.size());
    // Solo runs: every executed op records one pair.
    EXPECT_EQ(total, 3 * nonSourceOps(p));

    std::string why;
    EXPECT_TRUE(isValidJson(
        obs::ScheduleCalibration::global().toJson(), &why))
        << why;
}

//
// Dropped-telemetry metrics (the observability of the observability).
//

TEST(DroppedMetricsTest, TraceRingDropCountsReachTheRegistry)
{
    obs::Counter &c =
        obs::MetricsRegistry::global().counter("trace.dropped_events");
    const uint64_t before = c.value();
    obs::Trace trace = overflowedTrace("drops");
    EXPECT_EQ(trace.droppedEvents(), 4u);
    EXPECT_EQ(c.value(), before + 4);
}

TEST(DroppedMetricsTest, EventlogDroppedGaugeCountsWraparound)
{
    obs::FlightRecorder rec(/*capacity=*/8);
    const uint64_t before = registryValue("eventlog.dropped");
    for (int i = 0; i < 13; ++i)
        rec.record(obs::ServingEventKind::kSubmit, uint64_t(i + 1),
                   "t");
    // 13 events into 8 slots: the 5 oldest are overwritten, and
    // eventlog.dropped (shared with the global recorder) says so.
    EXPECT_EQ(registryValue("eventlog.dropped"), before + 5);
    auto evs = rec.dump();
    ASSERT_EQ(evs.size(), 8u);
    EXPECT_EQ(evs.front().seq, 6u);
}

/**
 * Races `writers` threads, each pushing `perWriter` entries into a
 * ring of `slots`, against a reader looping over the whole ring, and
 * returns the seqs a quiescent read finds after the join. Every
 * payload word is derived from a per-push value x (writer and push
 * index), so an entry mixing words of two pushes is caught on its
 * own, and the seq each push returned names the x its entry must hold.
 */
template <size_t Words>
std::vector<uint64_t>
raceRing(size_t slots, unsigned writers, uint64_t perWriter)
{
    using Ring = obs::SeqlockRing<Words>;
    using Payload = typename Ring::Payload;
    const auto payloadOf = [](uint64_t x) {
        Payload p;
        for (size_t i = 0; i < Words; ++i)
            p[i] = (x * (2 * i + 1)) ^ (i * 0x9e3779b97f4a7c15ULL);
        return p;
    };
    Ring ring(slots);
    const uint64_t total = writers * perWriter;
    // seq -> x of the push that got it, and of the first read of it
    // (0: not read). Each is written by one thread at a time.
    std::vector<uint64_t> pushedX(total + 1, 0);
    std::vector<uint64_t> readX(total + 1, 0);
    uint64_t mismatches = 0;
    const auto check = [&](uint64_t seq, const Payload &w) {
        if (w != payloadOf(w[0]) ||
            (readX[seq] != 0 && readX[seq] != w[0]))
            ++mismatches;
        readX[seq] = w[0];
    };

    std::atomic<unsigned> started{0};
    std::atomic<bool> done{false};
    uint64_t disorders = 0;
    uint64_t seen = 0;
    std::thread reader([&] {
        started.fetch_add(1, std::memory_order_release);
        do {
            uint64_t last = 0;
            ring.read(0, ring.recorded(),
                      [&](uint64_t seq, const Payload &w) {
                          check(seq, w);
                          if (seq <= last)
                              ++disorders;
                          last = seq;
                          ++seen;
                      });
        } while (!done.load(std::memory_order_acquire));
    });
    // Writers start only once every thread is running, so all race.
    // A reader scans oldest-first, straight into the writers' next
    // slots; a writer yields now and then so that some reads finish
    // ahead of it and return entries instead of losing every slot.
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < writers; ++t)
        pool.emplace_back([&, t] {
            started.fetch_add(1, std::memory_order_release);
            while (started.load(std::memory_order_acquire) <= writers)
                std::this_thread::yield();
            for (uint64_t i = 1; i <= perWriter; ++i) {
                const uint64_t x = (uint64_t(t) << 32) | i;
                pushedX[ring.push(payloadOf(x))] = x;
                if (i % 8 == 0)
                    std::this_thread::yield();
            }
        });
    for (std::thread &th : pool)
        th.join();
    done.store(true, std::memory_order_release);
    reader.join();

    const uint64_t before = ring.dropped();
    std::vector<uint64_t> found;
    const uint64_t torn =
        ring.read(0, ring.recorded(), [&](uint64_t seq, const Payload &w) {
            check(seq, w);
            found.push_back(seq);
        });
    EXPECT_EQ(ring.dropped() - before, torn);
    for (uint64_t seq = 1; seq <= total; ++seq)
        if (readX[seq] != 0 && readX[seq] != pushedX[seq])
            ++mismatches;
    EXPECT_EQ(mismatches, 0u);
    EXPECT_EQ(disorders, 0u);
    EXPECT_GT(seen, 0u);

    // Each of the newest `slots` entries is found, or was given up by
    // its push and is counted as torn by this read.
    EXPECT_EQ(found.size() + torn, slots);
    for (uint64_t seq : found)
        EXPECT_GT(seq, total - slots);
    EXPECT_EQ(ring.recorded(), total);
    EXPECT_GE(ring.dropped(), total - slots + torn);
    return found;
}

TEST(SeqlockRingTest, ConcurrentReaderSeesNoTornEntries)
{
    // One writer: x is the entry's sequence number, and no push is
    // given up, so the ring ends holding exactly the newest 64.
    constexpr size_t kSlots = 64;
    constexpr uint64_t kEntries = 100000;
    const std::vector<uint64_t> last = raceRing<3>(kSlots, 1, kEntries);
    ASSERT_EQ(last.size(), kSlots);
    for (size_t i = 0; i < kSlots; ++i)
        EXPECT_EQ(last[i], kEntries - kSlots + 1 + i);
}

TEST(SeqlockRingTest, LappingWritersNeverCommitMixedEntries)
{
    // Four writers on two slots lap each other on almost every push,
    // and a 16-word payload keeps each store sequence long enough for
    // another writer to land inside it. A push whose slot is still
    // held by a lapped writer gives its entry up; were it to store
    // over that writer, reads would return entries mixing two pushes
    // or carrying another push's seq (a mutation doing so failed
    // this test in 10 of 10 runs).
    raceRing<16>(2, 4, 25000);
}

//
// Concurrent scrape-under-load stress (TSan target): exporter reads
// hammering /metrics, /tracez, and /calibration.json while batched
// serving runs — and job outputs stay bit-identical to solo runs.
//

std::vector<uint32_t>
ctWords(const Ciphertext &ct)
{
    std::vector<uint32_t> out;
    for (const auto &poly : ct.polys)
        out.insert(out.end(), poly.raw().begin(), poly.raw().end());
    return out;
}

TEST(CorrelationTest, ConcurrentScrapeStress)
{
    FheContext ctx(smallParams());
    BgvScheme bgv(&ctx);
    Program p = diamondProgram();
    const ScheduleHints hints = compileProgram(p, F1Config{}).hints;

    // Reference bits from an isolated, exporter-free execution.
    OpGraphExecutor ref(p, &bgv);
    RuntimeInputs in;
    in.seed = 77;
    const ExecutionResult refRes = ref.execute(in, {});

    ServingConfig cfg;
    cfg.workers = 2;
    cfg.maxBatch = 4;
    cfg.policy.telemetry.trace = true;
    cfg.policy.scheduleHints = &hints;
    ServingEngine engine(&bgv, cfg);

    obs::MetricsExporter exporter; // default sources, ephemeral port

    std::atomic<bool> stop{false};
    std::atomic<int> bad{0};
    auto scraper = [&](const char *path, bool wantJson) {
        while (!stop.load(std::memory_order_relaxed)) {
            auto resp = exporter.handle(path);
            if (resp.status != 200) {
                bad.fetch_add(1);
                continue;
            }
            if (wantJson && !isValidJson(resp.body))
                bad.fetch_add(1);
        }
    };
    std::vector<std::thread> scrapers;
    scrapers.emplace_back(scraper, "/metrics", false);
    scrapers.emplace_back(scraper, "/tracez?ms=5", true);
    scrapers.emplace_back(scraper, "/calibration.json", true);

    std::vector<std::future<JobResult>> futs;
    for (int i = 0; i < 12; ++i) {
        JobRequest req;
        req.program = &p;
        req.tenant = "stress";
        req.inputs.seed = 77;
        req.hints = &hints;
        futs.push_back(engine.submit(std::move(req)));
    }
    for (auto &f : futs) {
        JobResult r = f.get();
        // Live capture and concurrent scrapes never perturb outputs.
        ASSERT_EQ(r.exec.outputs.size(), refRes.outputs.size());
        for (const auto &[h, ct] : refRes.outputs) {
            auto it = r.exec.outputs.find(h);
            ASSERT_NE(it, r.exec.outputs.end());
            EXPECT_EQ(ctWords(ct), ctWords(it->second))
                << "output " << h << " diverged under scrape load";
        }
    }
    stop.store(true);
    for (auto &t : scrapers)
        t.join();
    EXPECT_EQ(bad.load(), 0);
    exporter.stop();
}

//
// JSON lint self-checks (the validator must not pass garbage).
//

TEST(JsonHelperTest, EscapesStringsExactly)
{
    std::ostringstream os;
    obs::appendJsonString(os, "q\"b\\n\nt\tc\x01" "end");
    EXPECT_EQ(os.str(), "\"q\\\"b\\\\n\\nt\\tc\\u0001end\"");
    std::string why;
    EXPECT_TRUE(isValidJson(os.str(), &why)) << why;
}

TEST(JsonLintTest, AcceptsAndRejects)
{
    EXPECT_TRUE(isValidJson("{\"a\": [1, 2.5e-3, \"x\\n\", null]}"));
    EXPECT_TRUE(isValidJson("  [true, false] "));
    EXPECT_FALSE(isValidJson("{\"a\": }"));
    EXPECT_FALSE(isValidJson("[1,]"));
    EXPECT_FALSE(isValidJson("{\"a\": 01}"));
    EXPECT_FALSE(isValidJson("\"unterminated"));
    EXPECT_FALSE(isValidJson("{} trailing"));
    EXPECT_FALSE(isValidJson("{\"bad\\q\": 1}"));
}

} // namespace
} // namespace f1
