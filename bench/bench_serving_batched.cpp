/**
 * @file
 * Batched-serving bench: an identical-program workload (many clients
 * of one model — the serving case the coalescer exists for) is pushed
 * through the ServingEngine twice per worker count: once with
 * batching disabled (maxBatch = 1, the per-job pipeline) and once
 * with maxBatch = 8, under the deadline/priority scheduler with two
 * tenant classes (gold: priority 2, tight deadline; bulk: priority 0,
 * loose deadline). Emits one JSON document (BENCH_serving.json in CI)
 * with jobs/sec for both modes, the speedup, the realized batch-size
 * distribution, and per-tenant-class p50/p95 turnaround latency.
 *
 * The workload is deliberately cheap-op-heavy (a long add chain with
 * a few rotations at a small degree): batching amortizes per-job
 * fixed overhead — queue pop round-trips, executor construction, per
 * -op scheduling bookkeeping, hint-cache and metrics-registry lock
 * traffic — so its margin is largest where kernels are small. On one
 * core with compute-dominated jobs that margin is a few percent; the
 * amortized costs are the CONTENDED ones when several workers serve
 * per-job traffic, which is why the gate fires at >= 4 workers.
 * Jobs/sec is the best across reps (both modes equally), which
 * measures intrinsic cost rather than background-load noise.
 *
 * Every job in every mode is checked bit-for-bit against a solo
 * serial run of the same (program, inputs, seed): a throughput win
 * from diverging ciphertexts is a correctness failure, not a perf
 * data point (exit 1). In full mode on >= 4 hardware threads the
 * acceptance gate is enforced: batched jobs/sec must be strictly
 * above per-job jobs/sec at every worker count >= 4 (exit 2).
 *
 * Introspection riders (both modes):
 *  - the embedded exporter is started on an ephemeral port and
 *    self-scraped over real sockets: /healthz and /metrics must
 *    return 200 with a well-formed exposition, /snapshot.json and
 *    /events.json must lint as JSON (exit 3 on any failure);
 *  - an overload scenario (a tenant with an unmeetable deadline
 *    behind AdmissionLimits::maxBurnRate) emits an "slo" section with
 *    per-tenant attainment / deadline misses / burn rate and the shed
 *    count, and must shed at least one job ON the burn-rate metric
 *    (exit 4) — the admission loop closing end to end;
 *  - the flight recorder's ring is dumped to EVENTS_serving.json,
 *    uploaded next to BENCH_serving.json in CI;
 *  - a correlation phase (both modes) runs a multi-kind program with
 *    compiler hints under full telemetry and gates the trace-id
 *    plumbing end to end: every completed job's id must appear in the
 *    flight recorder, in at least one executor span, and in its
 *    ExecutionProfile; the merged Perfetto document (written to
 *    TRACE_serving.json, uploaded next to BENCH_serving.json) must
 *    lint and flow-link every job; the schedule-calibration
 *    observatory must report fits over >= 5 op kinds; and
 *    /calibration.json + /tracez?ms=N must scrape as valid JSON
 *    (exit 5 on any of these).
 * In full mode the telemetry tax is gated: the workload rerun with
 * per-op profiling + tracing on AND a scraper hammering /metrics must
 * stay within 1.5x of the telemetry-off turnaround (exit 4). Both
 * traced phases report trace_dropped_events: the events their runs
 * emitted that the shared span log no longer held at collect.
 *
 * Usage: bench_serving_batched [--smoke]
 *   --smoke  CI canary: fewer jobs, workers {1, 2}, bit-identity and
 *            correlation checks only (no perf/overhead gates).
 */
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/hash.h"
#include "common/parallel.h"
#include "common/time_util.h"
#include "compiler/compiler.h"
#include "json_lint.h"
#include "obs/calib.h"
#include "obs/eventlog.h"
#include "obs/exporter.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/op_graph_executor.h"
#include "runtime/serving.h"

namespace f1::bench {
namespace {

/**
 * One small "model": a plaintext multiply by shared weights, a few
 * rotations, and a long accumulation chain of cheap adds. Per-op
 * kernel cost is tiny, so per-job fixed overhead is a visible
 * fraction — the regime where coalescing pays.
 */
Program
modelProgram(uint32_t n, int addSteps)
{
    Program p(n, 3, "model");
    int x = p.input();
    int w = p.inputPlain();
    int m = p.mulPlain(x, w);
    int acc = p.add(m, p.rotate(m, 1));
    acc = p.add(acc, p.rotate(acc, 2));
    for (int i = 0; i < addSteps; ++i)
        acc = p.add(acc, m);
    p.output(acc);
    return p;
}

/**
 * The correlation phase's program: deliberately multi-kind (mul,
 * rotate, mul_plain, add, sub, mod_switch, output — 7 traced kinds)
 * so the schedule-calibration observatory has >= 5 op kinds to fit
 * and the correlated trace shows a non-trivial span mix.
 */
Program
correlationProgram(uint32_t n)
{
    Program p(n, 3, "correlation");
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

uint64_t
outputsHash(const ExecutionResult &r)
{
    uint64_t h = hashMix(r.outputs.size());
    for (const auto &[handle, ct] : r.outputs) {
        h = hashCombine(h, static_cast<uint64_t>(handle));
        for (const auto &poly : ct.polys)
            for (uint32_t v : poly.raw())
                h = hashCombine(h, v);
        h = hashCombine(h, ct.ptCorrection);
    }
    return h;
}

double
percentile(std::vector<double> xs, double q)
{
    if (xs.empty())
        return 0;
    std::sort(xs.begin(), xs.end());
    const size_t idx = std::min(
        xs.size() - 1,
        static_cast<size_t>(q * static_cast<double>(xs.size())));
    return xs[idx];
}

struct ClassLatency
{
    std::vector<double> turnaroundMs;
};

struct ModeResult
{
    double jobsPerSec = 0; //!< best across reps
    std::map<std::string, ClassLatency> classes;
    std::map<size_t, size_t> batchSizes; //!< size -> jobs served at it
    bool bitIdentical = true;
};

struct SweepRow
{
    unsigned workers;
    ModeResult perJob;  //!< maxBatch = 1
    ModeResult batched; //!< maxBatch = 8
};

int
run(bool smoke)
{
    const uint32_t n = 256;
    const int addSteps = 96;
    const size_t kJobs = smoke ? 16 : 64;
    const int reps = smoke ? 2 : 5;
    const size_t kMaxBatch = 8;
    // Worker counts beyond the physical cores only measure scheduler
    // noise (several batch working sets interleaving through one
    // core's cache), so the sweep is clamped to hw; the >= 4 workers
    // acceptance gate therefore fires exactly on machines that can
    // actually run 4 workers in parallel.
    const unsigned hw =
        std::max(1u, std::thread::hardware_concurrency());
    std::vector<unsigned> workerCounts;
    for (unsigned w : smoke ? std::vector<unsigned>{1, 2}
                            : std::vector<unsigned>{1, 2, 4})
        if (w <= hw)
            workerCounts.push_back(w);
    if (!smoke && hw > 4)
        workerCounts.push_back(hw);
    if (workerCounts.empty())
        workerCounts.push_back(1);

    FheParams params;
    params.n = n;
    params.maxLevel = 3;
    params.primeBits = 28;
    params.plainModulus = 65537;
    FheContext ctx(params);
    BgvScheme bgv(&ctx);

    Program model = modelProgram(n, addSteps);
    std::vector<uint64_t> weights(n);
    for (size_t i = 0; i < n; ++i)
        weights[i] = (7 * i + 11) % 65537;

    const auto tenantOf = [](size_t i) {
        return i % 2 == 0 ? "gold" : "bulk";
    };
    auto makeRequest = [&](size_t i) {
        JobRequest req;
        req.program = &model;
        req.tenant = tenantOf(i);
        req.inputs.seed = 4000 + i;
        req.inputs.bind(1, weights); // shared model weights
        return req;
    };

    // --- Untimed warm-up + solo golden hashes: a serial inline run
    // per job seeds the hint cache and records the bit pattern every
    // engine run must reproduce.
    std::vector<uint64_t> golden(kJobs);
    {
        InlineParallelScope inlineScope;
        OpGraphExecutor exec(model, &bgv);
        for (size_t i = 0; i < kJobs; ++i)
            golden[i] =
                outputsHash(exec.execute(makeRequest(i).inputs));
    }

    auto runMode = [&](unsigned workers, size_t maxBatch,
                       bool telemetryOn = false) {
        ModeResult out;
        std::vector<double> jps(static_cast<size_t>(reps));
        for (int rep = 0; rep < reps; ++rep) {
            ServingConfig cfg;
            cfg.workers = workers;
            cfg.maxBatch = maxBatch;
            cfg.tenantPolicies["gold"] = {2, 20.0, 0};
            cfg.tenantPolicies["bulk"] = {0, 500.0, 0};
            cfg.policy.telemetry.profile = telemetryOn;
            cfg.policy.telemetry.trace = telemetryOn;
            ServingEngine engine(&bgv, cfg);

            const double t0 = steadyNowMs();
            std::vector<std::future<JobResult>> futs;
            futs.reserve(kJobs);
            for (size_t i = 0; i < kJobs; ++i)
                futs.push_back(engine.submit(makeRequest(i)));
            for (size_t i = 0; i < kJobs; ++i) {
                JobResult r = futs[i].get();
                out.bitIdentical = out.bitIdentical &&
                                   outputsHash(r.exec) == golden[i];
                out.classes[tenantOf(i)].turnaroundMs.push_back(
                    r.queueMs + r.serviceMs);
                ++out.batchSizes[r.exec.batchSize];
            }
            jps[size_t(rep)] = 1000.0 * double(kJobs) /
                               (steadyNowMs() - t0);
        }
        out.jobsPerSec = *std::max_element(jps.begin(), jps.end());
        return out;
    };

    // The exporter serves the whole bench run: it is live while the
    // sweep and the overhead phase execute, exactly as a production
    // scraper would see the process.
    obs::MetricsExporter exporter;

    std::vector<SweepRow> rows;
    bool allIdentical = true;
    for (unsigned workers : workerCounts) {
        SweepRow row;
        row.workers = workers;
        row.perJob = runMode(workers, 1);
        row.batched = runMode(workers, kMaxBatch);
        allIdentical = allIdentical && row.perJob.bitIdentical &&
                       row.batched.bitIdentical;
        rows.push_back(std::move(row));
    }

    // --- SLO overload scenario: the "hot" tenant's deadline is
    // unmeetable, so every completion misses and its burn rate hits
    // the cap; admission must start shedding it ON that metric while
    // the well-behaved tenant keeps being served.
    struct SloRow
    {
        uint64_t served = 0;
        uint64_t misses = 0;
        double attainment = 1.0;
        double burnRate = 0.0;
    };
    std::map<std::string, SloRow> sloRows;
    uint64_t sloSheds = 0;
    {
        ServingConfig cfg;
        cfg.workers = 1;
        cfg.maxBatch = kMaxBatch;
        cfg.admission.maxBurnRate = 3.0;
        cfg.slo.windowSize = 16;
        cfg.tenantPolicies["hot"] = {0, 1e-6, 0};
        cfg.tenantPolicies["steady"] = {0, 60000.0, 0};
        cfg.eventDumpPath = "EVENTS_serving.json";
        ServingEngine engine(&bgv, cfg);

        const size_t overloadJobs = smoke ? 12 : 24;
        std::vector<std::future<JobResult>> futs;
        for (size_t i = 0; i < overloadJobs; ++i) {
            JobRequest req;
            req.program = &model;
            req.tenant = i % 2 == 0 ? "hot" : "steady";
            req.inputs.seed = 9000 + i;
            req.inputs.bind(1, weights);
            try {
                futs.push_back(engine.submit(std::move(req)));
            } catch (const AdmissionRejected &) {
                ++sloSheds;
            }
            // Let the first hot job complete (and miss) before the
            // next admission check so the burn-rate gauge has data.
            if (i == 0)
                futs.front().wait();
        }
        for (auto &f : futs)
            f.get();
        for (const auto &[tenant, s] : engine.slo().snapshot())
            sloRows[tenant] = {s.windowTotal, s.misses, s.attainment,
                               s.burnRate};
    }

    // --- Telemetry tax under live scraping (full mode): the same
    // workload with per-op profiling + tracing on, while a scraper
    // hammers /metrics, must stay within 1.5x of telemetry-off.
    double telemetryOffJps = 0;
    double telemetryOnJps = 0;
    // Span-log loss of the traced phases: traced runs share the log's
    // slots, so an overflow shows here.
    obs::Counter &traceDropped =
        obs::MetricsRegistry::global().counter("trace.dropped_events");
    uint64_t telemetryDropped = 0;
    if (!smoke) {
        const unsigned w = std::min(2u, hw);
        telemetryOffJps = runMode(w, kMaxBatch).jobsPerSec;
        std::atomic<bool> stopScraper{false};
        std::thread scraper([&] {
            // 100 Hz — three orders of magnitude hotter than a real
            // Prometheus interval, but not a busy loop that would
            // just measure core starvation on small machines.
            std::string body;
            while (!stopScraper.load(std::memory_order_relaxed)) {
                obs::httpGet(exporter.port(), "/metrics", &body);
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(10));
            }
        });
        const uint64_t dropped0 = traceDropped.value();
        telemetryOnJps = runMode(w, kMaxBatch, true).jobsPerSec;
        telemetryDropped = traceDropped.value() - dropped0;
        stopScraper.store(true, std::memory_order_relaxed);
        scraper.join();
    }

    // --- Correlation phase (both modes): full telemetry over a
    // multi-kind hinted program, then gate the trace-id plumbing,
    // the merged Perfetto document, the calibration fit, and the
    // live-introspection endpoints end to end (exit 5).
    std::string corrFailure;
    size_t corrJobs = 0;
    size_t corrLinked = 0;
    size_t corrCalibKinds = 0;
    const uint64_t corrDropped0 = traceDropped.value();
    {
        obs::ScheduleCalibration::global().reset();
        Program corr = correlationProgram(n);
        const ScheduleHints corrHints =
            compileProgram(corr, F1Config{}).hints;

        ServingConfig cfg;
        cfg.workers = std::min(2u, hw);
        cfg.maxBatch = 4;
        cfg.policy.telemetry.profile = true;
        cfg.policy.telemetry.trace = true;
        ServingEngine engine(&bgv, cfg);

        corrJobs = smoke ? 8 : 16;
        std::vector<std::future<JobResult>> futs;
        for (size_t i = 0; i < corrJobs; ++i) {
            JobRequest req;
            req.program = &corr;
            req.tenant = i % 2 == 0 ? "corr_gold" : "corr_bulk";
            req.inputs.seed = 11000 + i;
            req.hints = &corrHints;
            futs.push_back(engine.submit(std::move(req)));
        }
        std::vector<JobResult> results;
        for (auto &f : futs)
            results.push_back(f.get());

        const std::vector<obs::ServingEvent> events =
            obs::FlightRecorder::global().dump();

        std::set<uint64_t> ids;
        std::vector<std::shared_ptr<const obs::Trace>> traces;
        for (const JobResult &r : results) {
            if (r.traceId == 0) {
                corrFailure = "completed job has no trace id";
                break;
            }
            ids.insert(r.traceId);
            bool inRecorder = false;
            for (const obs::ServingEvent &ev : events)
                inRecorder |= ev.traceId == r.traceId;
            if (!inRecorder) {
                corrFailure =
                    "trace id missing from the flight recorder";
                break;
            }
            bool inSpans = false;
            if (r.exec.trace != nullptr)
                for (const obs::TraceEvent &ev :
                     r.exec.trace->events())
                    inSpans |=
                        ev.kind == obs::TraceEventKind::kOpSpan &&
                        ev.traceId == r.traceId;
            if (!inSpans) {
                corrFailure = "trace id missing from executor spans";
                break;
            }
            bool inProfile = false;
            if (r.exec.profile != nullptr)
                for (uint64_t id : r.exec.profile->traceIds)
                    inProfile |= id == r.traceId;
            if (!inProfile) {
                corrFailure =
                    "trace id missing from the execution profile";
                break;
            }
            bool seen = false;
            for (const auto &t : traces)
                seen |= t == r.exec.trace;
            if (!seen)
                traces.push_back(r.exec.trace);
        }
        if (corrFailure.empty() && ids.size() != results.size())
            corrFailure = "trace ids are not pairwise distinct";

        // The merged Perfetto document: must lint, must carry flow
        // events, and must flow-link every job of this phase. Written
        // to TRACE_serving.json for CI upload either way.
        std::ostringstream doc;
        corrLinked = obs::writeCorrelatedTrace(doc, traces, events);
        const std::string docStr = doc.str();
        {
            std::ofstream out("TRACE_serving.json");
            out << docStr;
        }
        std::string why;
        if (corrFailure.empty()) {
            if (!f1::testing::isValidJson(docStr, &why))
                corrFailure = "TRACE_serving.json invalid: " + why;
            else if (docStr.find("\"ph\": \"s\"") ==
                         std::string::npos ||
                     docStr.find("\"ph\": \"f\"") ==
                         std::string::npos)
                corrFailure =
                    "correlated trace carries no flow events";
            else if (corrLinked < corrJobs)
                corrFailure = "correlated trace flow-linked " +
                              std::to_string(corrLinked) + " of " +
                              std::to_string(corrJobs) + " jobs";
        }

        // The observatory must have fitted the phase's op kinds.
        const auto fits = obs::ScheduleCalibration::global().snapshot();
        corrCalibKinds = fits.size();
        if (corrFailure.empty() && corrCalibKinds < 5)
            corrFailure = "calibration fitted only " +
                          std::to_string(corrCalibKinds) +
                          " op kinds (need >= 5)";

        // The live-introspection endpoints, over real sockets.
        std::string body;
        if (corrFailure.empty()) {
            if (obs::httpGet(exporter.port(), "/calibration.json",
                             &body) != 200 ||
                !f1::testing::isValidJson(body, &why))
                corrFailure = "/calibration.json invalid";
            else if (obs::httpGet(exporter.port(), "/tracez?ms=20",
                                  &body) != 200 ||
                     !f1::testing::isValidJson(body, &why))
                corrFailure = "/tracez invalid";
        }
    }

    const uint64_t corrDropped = traceDropped.value() - corrDropped0;

    // --- Self-scrape over real sockets: what CI's curl would see.
    std::string scrapeFailure;
    {
        std::string body;
        if (obs::httpGet(exporter.port(), "/healthz", &body) != 200)
            scrapeFailure = "/healthz not 200";
        else if (obs::httpGet(exporter.port(), "/metrics", &body) !=
                 200)
            scrapeFailure = "/metrics not 200";
        else if (body.find("# TYPE ") == std::string::npos ||
                 body.find("f1_serving_jobs_submitted") ==
                     std::string::npos)
            scrapeFailure = "/metrics exposition malformed";
        else if (obs::httpGet(exporter.port(), "/snapshot.json",
                              &body) != 200 ||
                 !f1::testing::isValidJson(body))
            scrapeFailure = "/snapshot.json invalid";
        else if (obs::httpGet(exporter.port(), "/events.json",
                              &body) != 200 ||
                 !f1::testing::isValidJson(body))
            scrapeFailure = "/events.json invalid";
    }

    // The post-mortem artifact CI uploads next to BENCH_serving.json.
    obs::FlightRecorder::global().dumpToFile("EVENTS_serving.json");

    const auto printMode = [](const char *key, const ModeResult &m,
                              const char *trail) {
        printf("     \"%s\": {\"jobs_per_sec\": %.2f, "
               "\"bit_identical\": %s,\n",
               key, m.jobsPerSec, m.bitIdentical ? "true" : "false");
        printf("       \"batch_sizes\": {");
        bool first = true;
        for (const auto &[size, count] : m.batchSizes) {
            printf("%s\"%zu\": %zu", first ? "" : ", ", size, count);
            first = false;
        }
        printf("},\n       \"classes\": {");
        first = true;
        for (const auto &[name, lat] : m.classes) {
            printf("%s\"%s\": {\"p50_ms\": %.3f, \"p95_ms\": %.3f}",
                   first ? "" : ", ", name.c_str(),
                   percentile(lat.turnaroundMs, 0.50),
                   percentile(lat.turnaroundMs, 0.95));
            first = false;
        }
        printf("}}%s\n", trail);
    };

    printf("{\n  \"bench\": \"serving_batched\",\n");
    printf("  \"mode\": \"%s\",\n", smoke ? "smoke" : "full");
    printf("  \"hw_concurrency\": %u,\n", hw);
    printf("  \"n\": %u, \"levels\": 3, \"jobs\": %zu, "
           "\"max_batch\": %zu, \"reps\": %d,\n",
           n, kJobs, kMaxBatch, reps);
    printf("  \"results\": [\n");
    for (size_t i = 0; i < rows.size(); ++i) {
        const SweepRow &r = rows[i];
        printf("    {\"workers\": %u,\n", r.workers);
        printMode("per_job", r.perJob, ",");
        printMode("batched", r.batched, ",");
        printf("     \"batched_speedup\": %.3f}%s\n",
               r.perJob.jobsPerSec > 0
                   ? r.batched.jobsPerSec / r.perJob.jobsPerSec
                   : 0.0,
               i + 1 < rows.size() ? "," : "");
    }
    printf("  ],\n");
    printf("  \"slo\": {\"max_burn_rate\": 3.0, \"window\": 16, "
           "\"burn_rate_sheds\": %llu,\n    \"tenants\": {",
           static_cast<unsigned long long>(sloSheds));
    {
        bool first = true;
        for (const auto &[tenant, s] : sloRows) {
            printf("%s\"%s\": {\"window_jobs\": %llu, "
                   "\"deadline_misses\": %llu, "
                   "\"attainment\": %.4f, \"burn_rate\": %.3f}",
                   first ? "" : ", ", tenant.c_str(),
                   static_cast<unsigned long long>(s.served),
                   static_cast<unsigned long long>(s.misses),
                   s.attainment, s.burnRate);
            first = false;
        }
    }
    printf("}},\n");
    printf("  \"exporter\": {\"port\": %u, \"scrape_ok\": %s%s%s},\n",
           exporter.port(), scrapeFailure.empty() ? "true" : "false",
           scrapeFailure.empty() ? "" : ", \"failure\": ",
           scrapeFailure.empty()
               ? ""
               : ("\"" + scrapeFailure + "\"").c_str());
    if (!smoke) {
        printf("  \"telemetry_overhead\": {\"off_jobs_per_sec\": "
               "%.2f, \"on_jobs_per_sec\": %.2f, \"ratio\": %.3f, "
               "\"limit\": 1.5, \"trace_dropped_events\": %llu},\n",
               telemetryOffJps, telemetryOnJps,
               telemetryOnJps > 0 ? telemetryOffJps / telemetryOnJps
                                  : 0.0,
               static_cast<unsigned long long>(telemetryDropped));
    }
    printf("  \"correlation\": {\"jobs\": %zu, \"flow_linked\": %zu, "
           "\"calibration_kinds\": %zu, \"trace_dropped_events\": %llu, "
           "\"ok\": %s%s%s},\n",
           corrJobs, corrLinked, corrCalibKinds,
           static_cast<unsigned long long>(corrDropped),
           corrFailure.empty() ? "true" : "false",
           corrFailure.empty() ? "" : ", \"failure\": ",
           corrFailure.empty()
               ? ""
               : ("\"" + corrFailure + "\"").c_str());
    printf("  \"metrics\": %s\n}\n",
           obs::MetricsRegistry::global().snapshot().toJson().c_str());

    if (!allIdentical) {
        fprintf(stderr, "FAIL: batched/per-job outputs diverged from "
                        "the solo serial baseline\n");
        return 1;
    }
    if (!smoke && hw >= 4) {
        // Acceptance gate: coalescing identical-program jobs must be
        // a strict throughput win over the per-job pipeline at every
        // worker count >= 4.
        for (const SweepRow &r : rows) {
            if (r.workers >= 4 &&
                r.batched.jobsPerSec <= r.perJob.jobsPerSec) {
                fprintf(stderr,
                        "FAIL: %u workers: batched %.2f jobs/s is "
                        "not above per-job %.2f jobs/s\n",
                        r.workers, r.batched.jobsPerSec,
                        r.perJob.jobsPerSec);
                return 2;
            }
        }
    }
    if (!scrapeFailure.empty()) {
        fprintf(stderr, "FAIL: exporter scrape: %s\n",
                scrapeFailure.c_str());
        return 3;
    }
    if (sloSheds == 0) {
        fprintf(stderr,
                "FAIL: overload scenario shed no jobs on the "
                "burn-rate metric\n");
        return 4;
    }
    if (!smoke && telemetryOnJps > 0 &&
        telemetryOffJps / telemetryOnJps > 1.5) {
        fprintf(stderr,
                "FAIL: telemetry-on throughput %.2f jobs/s is more "
                "than 1.5x below telemetry-off %.2f jobs/s\n",
                telemetryOnJps, telemetryOffJps);
        return 4;
    }
    if (!corrFailure.empty()) {
        fprintf(stderr, "FAIL: trace correlation: %s\n",
                corrFailure.c_str());
        return 5;
    }
    return 0;
}

} // namespace
} // namespace f1::bench

int
main(int argc, char **argv)
{
    bool smoke = false;
    for (int i = 1; i < argc; ++i)
        smoke = smoke || std::strcmp(argv[i], "--smoke") == 0;
    return f1::bench::run(smoke);
}
