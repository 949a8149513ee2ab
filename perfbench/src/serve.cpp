/**
 * @file
 * The serve and offline workloads: a one-layer LoLa-style BGV model
 * at N = 4096, L = 4 (Table 4's smallest set) behind ServingEngine
 * with its default configuration except the worker count (see
 * engineWorkers) and two tenant classes.
 *
 *  - serve: one generator thread sends an open loop of Poisson
 *    arrivals at kServeRatePerSec, in kSegments segments with the
 *    engine drained between them. Latency runs from each job's
 *    scheduled send time to the moment the benchmark sees its future
 *    resolve, so a stalled generator or engine is charged to every
 *    later job.
 *  - offline: one client submits rounds of kOfflineRound jobs at once
 *    and waits for each round, so every dispatch fuses a full
 *    maxBatch.
 */
#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cmath>
#include <cstdio>
#include <future>
#include <memory>
#include <mutex>
#include <thread>

#include "common/hash.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/time_util.h"
#include "layers.h"
#include "obs/eventlog.h"
#include "runtime/serving.h"
#include "workloads.h"

namespace f1::perfbench {

namespace {

constexpr uint32_t kN = 4096;
constexpr uint32_t kL = 4;
constexpr int kRotateSteps = 4;    //!< rotate-and-sum over 16 slots
constexpr size_t kInputSets = 16;  //!< distinct client inputs
constexpr double kServeRatePerSec = 25;
/** serve's open loop runs in kSegments segments with a compile slice
 *  of kCompileSliceMs before each; offline runs a slice before each
 *  round once one is due. */
constexpr size_t kSegments = 24;
constexpr double kCompileSliceMs = 40;
constexpr size_t kOfflineRound = 128;
constexpr double kGoldShare = 0.3;
/** An offline client waits for its whole round; a job meets its
 *  deadline when the round's answer for it arrives within this. */
constexpr double kOfflineDeadlineMs = 10000;

const TenantPolicy kGold{/*priority=*/2, /*deadlineMs=*/150.0};
const TenantPolicy kBulk{/*priority=*/0, /*deadlineMs=*/1000.0};

/**
 * Batch workers: one per core but one, rather than the engine's
 * default of one per core. The load generator and the collector need
 * a core too; with a worker on every core one of them preempts a
 * worker, and offline throughput moved three times as much from run
 * to run as with a core left free.
 */
unsigned
engineWorkers()
{
    return std::max(1u, configuredThreadCount() - 1);
}

/**
 * The served model: a plaintext-weight multiply, rotate-and-sum, a
 * square, then a mod-switch. A mod-switch also precedes the square:
 * squaring the full-level product leaves BGV no noise budget at L = 4.
 */
struct Model
{
    Program prog{kN, kL, "serve-model"};
    int x = -1, w = -1, out = -1;

    Model()
    {
        x = prog.input();
        w = prog.inputPlain();
        int acc = prog.mulPlain(x, w);
        for (int s = 0; s < kRotateSteps; ++s)
            acc = prog.add(acc, prog.rotate(acc, int64_t(1) << s));
        acc = prog.modSwitch(acc);
        acc = prog.mul(acc, acc);
        out = prog.output(prog.modSwitch(acc));
    }
};

/** Plaintext semantics of Model: slot arithmetic mod t, rotations as
 *  cyclic shifts within each row of N/2 slots, mod-switch as identity. */
std::vector<uint64_t>
evalModel(const std::vector<uint64_t> &x, const std::vector<uint64_t> &w,
          uint64_t t)
{
    const size_t row = x.size() / 2;
    std::vector<uint64_t> acc(x.size());
    for (size_t i = 0; i < x.size(); ++i)
        acc[i] = x[i] * w[i] % t;
    for (int s = 0; s < kRotateSteps; ++s) {
        const size_t r = size_t(1) << s;
        std::vector<uint64_t> next(acc.size());
        for (size_t i = 0; i < acc.size(); ++i) {
            const size_t base = i / row * row;
            next[i] = (acc[i] + acc[base + (i - base + r) % row]) % t;
        }
        acc = std::move(next);
    }
    for (uint64_t &v : acc)
        v = v * v % t;
    return acc;
}

/** Everything a serving deployment builds before its first request.
 *  Members are destroyed in reverse order: the engine first, while
 *  the program and hints it points to are still alive. */
struct Deployment
{
    std::unique_ptr<FheContext> ctx;
    std::unique_ptr<BgvScheme> bgv;
    Model model;
    CompileResult compiled;
    std::unique_ptr<ServingEngine> engine;
};

std::unique_ptr<Deployment>
deploy(SpanRecorder &spans)
{
    SpanRecorder::Scope root(spans, "bench.setup");
    auto d = std::make_unique<Deployment>();
    {
        SpanRecorder::Scope s(spans, "fhe.keygen", root.id());
        FheParams params;
        params.n = kN;
        params.maxLevel = kL;
        d->ctx = std::make_unique<FheContext>(params);
        d->bgv = std::make_unique<BgvScheme>(d->ctx.get());
    }
    {
        SpanRecorder::Scope s(spans, "compiler.compile", root.id());
        d->compiled = compileProgram(d->model.prog, F1Config{});
    }
    {
        SpanRecorder::Scope s(spans, "runtime.serving.start", root.id());
        ServingConfig cfg;
        cfg.tenantPolicies = {{"gold", kGold}, {"bulk", kBulk}};
        cfg.workers = engineWorkers();
        d->engine = std::make_unique<ServingEngine>(d->bgv.get(), cfg);
    }
    {
        SpanRecorder::Scope s(spans, "fhe.hint_warm", root.id());
        warmHints(d->model.prog, *d->bgv);
    }
    return d;
}

/** Seed-derived inputs: shared weights, kInputSets client inputs with
 *  their encryption seeds, and per-job tenant and input choice. */
struct Inputs
{
    std::vector<uint64_t> weights;
    std::vector<std::vector<uint64_t>> xs;
    std::vector<RuntimeInputs> runtime; //!< per input set
};

Inputs
makeInputs(uint64_t seed, const Model &m, uint64_t t)
{
    Rng rng(hashCombine(seed, 0x5e7e));
    Inputs in;
    in.weights = rng.uniformVector(kN, t);
    for (size_t i = 0; i < kInputSets; ++i) {
        in.xs.push_back(rng.uniformVector(kN, t));
        RuntimeInputs ri;
        ri.bind(m.x, in.xs.back());
        ri.bind(m.w, in.weights);
        ri.seed = rng.next();
        in.runtime.push_back(std::move(ri));
    }
    return in;
}

struct Job
{
    double atMs = 0; //!< scheduled send, relative to phase start
    size_t set = 0;
    bool gold = false;
};

/** The engine's own clock at a job's admission and completion. */
struct EngineStamps
{
    double admitMs = 0;
    double completeMs = 0;
};

/** What the benchmark observed about one job. */
struct JobRecord
{
    double schedMs = 0, sendMs = 0, seenMs = 0;
    bool ok = false, shed = false;
    double queueMs = 0, serviceMs = 0, wallMs = 0;
    size_t batchSize = 0, ops = 0, maxWidth = 0, steals = 0,
           peakResident = 0;
    uint64_t hits = 0, misses = 0, traceId = 0;
};

/**
 * Watches submitted futures from its own thread and stamps each with
 * the time it was seen resolved. Polling (every 250 us) rather than
 * waiting on one future in submit order keeps a slow job from
 * delaying the stamp of a faster one behind it.
 */
class Collector
{
  public:
    Collector(std::vector<JobRecord> &recs,
              const std::vector<Ciphertext> &refs, const Job *jobs,
              int outHandle, bool harvestEvents)
        : recs_(recs), refs_(refs), jobs_(jobs), out_(outHandle),
          harvest_(harvestEvents), thread_([this] { loop(); })
    {
    }

    ~Collector()
    {
        {
            std::lock_guard<std::mutex> lock(m_);
            stop_ = true;
        }
        thread_.join();
    }

    Collector(const Collector &) = delete;
    Collector &operator=(const Collector &) = delete;

    void
    add(size_t j, std::future<JobResult> f)
    {
        std::lock_guard<std::mutex> lock(m_);
        incoming_.emplace_back(j, std::move(f));
    }

    /** A job that never reached the engine (shed or refused). */
    void
    settle()
    {
        countResolved();
    }

    void
    waitFor(size_t count)
    {
        std::unique_lock<std::mutex> lock(m_);
        cvResolved_.wait(lock, [&] { return resolved_ >= count; });
    }

    /** traceId -> the engine's admit and complete stamps, harvested
     *  from the flight recorder while the phase ran (its ring is
     *  bounded, so one read at the end could miss early jobs). */
    std::map<uint64_t, EngineStamps>
    stamps()
    {
        harvestNow();
        std::lock_guard<std::mutex> lock(m_);
        return stamps_;
    }

  private:
    void
    loop()
    {
        std::vector<std::pair<size_t, std::future<JobResult>>> pending;
        double lastHarvest = steadyNowMs();
        for (;;) {
            {
                std::lock_guard<std::mutex> lock(m_);
                if (stop_ && incoming_.empty() && pending.empty())
                    return;
                for (auto &e : incoming_)
                    pending.push_back(std::move(e));
                incoming_.clear();
            }
            for (size_t i = 0; i < pending.size();) {
                auto &[j, f] = pending[i];
                if (f.wait_for(std::chrono::seconds(0)) !=
                    std::future_status::ready) {
                    ++i;
                    continue;
                }
                finish(j, f);
                pending[i] = std::move(pending.back());
                pending.pop_back();
            }
            if (harvest_ && steadyNowMs() - lastHarvest > 200) {
                harvestNow();
                lastHarvest = steadyNowMs();
            }
            std::this_thread::sleep_for(std::chrono::microseconds(250));
        }
    }

    void
    finish(size_t j, std::future<JobResult> &f)
    {
        JobRecord &r = recs_[j];
        r.seenMs = steadyNowMs();
        try {
            JobResult res = f.get();
            const ExecutionResult &e = res.exec;
            auto it = e.outputs.find(out_);
            r.ok = it != e.outputs.end() &&
                   sameCiphertext(it->second, refs_[jobs_[j].set]);
            r.queueMs = res.queueMs;
            r.serviceMs = res.serviceMs;
            r.wallMs = e.wallMs;
            r.batchSize = e.batchSize;
            r.ops = e.opsExecuted;
            r.maxWidth = e.maxWavefrontWidth;
            r.steals = e.steals;
            r.peakResident = e.peakResidentCiphertexts;
            r.hits = e.encodingCacheHits;
            r.misses = e.encodingCacheMisses;
            r.traceId = res.traceId;
        } catch (const std::exception &ex) {
            std::fprintf(stderr, "[serve] job %zu failed: %s\n", j,
                         ex.what());
        }
        countResolved();
    }

    void
    countResolved()
    {
        {
            std::lock_guard<std::mutex> lock(m_);
            ++resolved_;
        }
        cvResolved_.notify_all();
    }

    void
    harvestNow()
    {
        const auto events = obs::FlightRecorder::global().dump();
        std::lock_guard<std::mutex> lock(m_);
        for (const obs::ServingEvent &ev : events) {
            if (ev.kind == obs::ServingEventKind::kAdmit)
                stamps_[ev.traceId].admitMs = ev.tsMs;
            else if (ev.kind == obs::ServingEventKind::kComplete)
                stamps_[ev.traceId].completeMs = ev.tsMs;
        }
    }

    std::vector<JobRecord> &recs_;
    const std::vector<Ciphertext> &refs_;
    const Job *jobs_;
    const int out_;
    const bool harvest_;

    std::mutex m_;
    std::vector<std::pair<size_t, std::future<JobResult>>> incoming_;
    std::map<uint64_t, EngineStamps> stamps_;
    std::condition_variable cvResolved_;
    bool stop_ = false;
    size_t resolved_ = 0;

    std::thread thread_; //!< declared last: runs loop() over the above
};

struct PhaseResult
{
    std::vector<Job> jobs;
    std::vector<JobRecord> recs;
    std::map<uint64_t, EngineStamps> stamps;
};

/**
 * Sleeps until shortly before `t`, then spins to it. A sleeping thread
 * can wake milliseconds late when the host is busy, and the generator's
 * lateness is charged to the job's latency.
 */
void
sendAt(std::chrono::steady_clock::time_point t)
{
    std::this_thread::sleep_until(t - std::chrono::milliseconds(2));
    while (std::chrono::steady_clock::now() < t) {
    }
}

/** Submits one job now; a shed or refused job is settled at once. */
void
submitJob(Deployment &d, const Inputs &in, const Job &job, size_t j,
          JobRecord &rec, Collector &col)
{
    rec.sendMs = steadyNowMs();
    try {
        JobRequest req;
        req.program = &d.model.prog;
        req.tenant = job.gold ? "gold" : "bulk";
        req.inputs = in.runtime[job.set];
        req.hints = &d.compiled.hints;
        col.add(j, d.engine->submit(std::move(req)));
    } catch (const AdmissionRejected &) {
        rec.shed = true;
        col.settle();
    } catch (const std::exception &ex) {
        std::fprintf(stderr, "[serve] submit %zu refused: %s\n", j,
                     ex.what());
        col.settle();
    }
}

/**
 * One timed phase. serve sends kSegments back-to-back open-loop
 * segments, each of Poisson arrivals at the fixed rate over
 * seconds / kSegments, and drains between them; offline submits
 * rounds until the time is spent. A compile slice, when `compile` is
 * given, runs between segments or rounds while the engine is idle.
 */
PhaseResult
runPhase(Deployment &d, const Inputs &in,
         const std::vector<Ciphertext> &refs, uint64_t seed,
         double seconds, bool offline, bool harvest,
         CompileSampler *compile)
{
    using clock = std::chrono::steady_clock;
    PhaseResult p;
    Rng rng(hashCombine(seed, 0x10ad));
    const double segMs = seconds * 1000.0 / kSegments;
    const size_t perSeg =
        size_t(std::llround(kServeRatePerSec * segMs / 1000.0));
    if (offline) {
        p.jobs.resize(kOfflineRound * 64); // more rounds than time allows
    } else {
        // Arrivals conditioned on their count: that many times drawn
        // uniformly over each segment, so every seed offers the same
        // load.
        for (size_t seg = 0; seg < kSegments; ++seg) {
            const size_t first = p.jobs.size();
            for (size_t j = 0; j < perSeg; ++j)
                p.jobs.push_back({rng.uniformReal() * segMs});
            std::sort(p.jobs.begin() + first, p.jobs.end(),
                      [](const Job &a, const Job &b) {
                          return a.atMs < b.atMs;
                      });
        }
    }
    for (Job &j : p.jobs) {
        j.set = size_t(rng.uniform(kInputSets));
        j.gold = rng.uniformReal() < kGoldShare;
    }
    p.recs.resize(p.jobs.size());

    Collector col(p.recs, refs, p.jobs.data(), d.model.out, harvest);
    size_t sent = 0;
    if (offline) {
        const double t0 = steadyNowMs();
        while (sent == 0 || steadyNowMs() - t0 < seconds * 1000.0) {
            if (sent + kOfflineRound > p.jobs.size())
                break;
            if (compile)
                compile->catchUp(steadyNowMs() - t0);
            const double roundMs = steadyNowMs();
            for (size_t k = 0; k < kOfflineRound; ++k, ++sent) {
                p.recs[sent].schedMs = roundMs;
                submitJob(d, in, p.jobs[sent], sent, p.recs[sent], col);
            }
            col.waitFor(sent);
        }
        p.jobs.resize(sent);
        p.recs.resize(sent);
    } else {
        // This thread is the one load generator.
        for (size_t seg = 0; seg < kSegments; ++seg) {
            if (compile)
                compile->catchUp(double(seg) * segMs);
            const auto base = clock::now();
            const double baseMs =
                std::chrono::duration<double, std::milli>(
                    base.time_since_epoch())
                    .count();
            for (const size_t end = sent + perSeg; sent < end; ++sent) {
                sendAt(base + std::chrono::microseconds(std::llround(
                                  p.jobs[sent].atMs * 1000.0)));
                p.recs[sent].schedMs = baseMs + p.jobs[sent].atMs;
                submitJob(d, in, p.jobs[sent], sent, p.recs[sent], col);
            }
            col.waitFor(sent);
        }
    }
    if (compile)
        compile->catchUp(seconds * 1000.0);
    if (harvest)
        p.stamps = col.stamps();
    return p;
}

/** End-to-end metrics of one phase; counts into `o`. */
Metrics
phaseMetrics(const PhaseResult &p, bool offline, Outcome &o)
{
    std::vector<double> lat;
    size_t met = 0, failed = 0;
    double first = 0, last = 0, spanMs = 0;
    for (size_t j = 0; j < p.recs.size(); ++j) {
        const JobRecord &r = p.recs[j];
        if (!r.ok) {
            ++failed;
            continue;
        }
        const double l = r.seenMs - r.schedMs;
        lat.push_back(l);
        met += l <= (offline              ? kOfflineDeadlineMs
                     : p.jobs[j].gold ? kGold.deadlineMs
                                      : kBulk.deadlineMs);
        if (first == 0 || r.sendMs < first)
            first = r.sendMs;
        last = std::max(last, r.seenMs);
    }
    if (offline) {
        // Sum of round spans, so the gaps between rounds do not count.
        for (size_t s = 0; s < p.recs.size(); s += kOfflineRound) {
            double lo = p.recs[s].sendMs, hi = 0;
            for (size_t j = s; j < s + kOfflineRound; ++j)
                hi = std::max(hi, p.recs[j].seenMs);
            spanMs += hi - lo;
        }
    } else {
        spanMs = last - first;
    }
    o.attempted += p.recs.size();
    o.failed += failed;
    Metrics m;
    latencyMetrics(lat, m);
    const double n = double(p.recs.size());
    m["throughput_jobs_s"] = {double(lat.size()) / (spanMs / 1000.0),
                              "jobs/s"};
    m["slo_attainment"] = {double(met) / n, "fraction"};
    m["ok_share"] = {double(n - failed) / n, "fraction"};
    return m;
}

/** Per-layer metrics of the traced phase, plus its span trees. */
void
layerMetrics(const PhaseResult &p, const Metrics &untraced,
             const Metrics &traced, bool offline, double opSum,
             SpanRecorder &spans, Metrics &out)
{
    std::vector<double> queue, service, prepare, submit, notify, lag,
        execMs, goldLat, bulkLat, par, overhead, ops, width, steals,
        resident, batch, attribErr;
    size_t coalesced = 0, shed = 0, failed = 0, missing = 0;
    uint64_t hits = 0, lookups = 0;
    for (size_t j = 0; j < p.recs.size(); ++j) {
        const JobRecord &r = p.recs[j];
        shed += r.shed;
        if (!r.ok) {
            failed += !r.shed;
            continue;
        }
        const double lat = r.seenMs - r.schedMs;
        queue.push_back(r.queueMs);
        service.push_back(r.serviceMs);
        prepare.push_back(r.serviceMs - r.wallMs);
        lag.push_back(r.sendMs - r.schedMs);
        execMs.push_back(r.wallMs);
        (p.jobs[j].gold ? goldLat : bulkLat).push_back(lat);
        const double work = opSum * double(r.batchSize);
        par.push_back(work / r.wallMs);
        overhead.push_back(r.wallMs - work);
        ops.push_back(double(r.ops));
        width.push_back(double(r.maxWidth));
        steals.push_back(double(r.steals));
        resident.push_back(double(r.peakResident));
        batch.push_back(double(r.batchSize));
        coalesced += r.batchSize > 1;
        hits += r.hits;
        lookups += r.hits + r.misses;

        // One request tree per job, from the benchmark's clocks and
        // the engine's own: loadgen lag, submit (admission and
        // enqueue), queue, service (prepare, execute), notify.
        auto st = p.stamps.find(r.traceId);
        if (st == p.stamps.end() || st->second.admitMs == 0 ||
            st->second.completeMs == 0) {
            ++missing;
            continue;
        }
        const double admitMs = st->second.admitMs;
        const double startMs = admitMs + r.queueMs;
        const double endMs = startMs + r.serviceMs;
        const double doneMs = st->second.completeMs;
        submit.push_back(admitMs - r.sendMs);
        notify.push_back(r.seenMs - doneMs);
        const double parts = (r.sendMs - r.schedMs) +
                             (admitMs - r.sendMs) + r.queueMs +
                             r.serviceMs + (r.seenMs - doneMs);
        attribErr.push_back(std::fabs(parts - lat) / lat);
        const uint64_t req = r.traceId;
        const uint64_t root =
            spans.add("bench.job", r.schedMs, r.seenMs, 0, req);
        spans.add("loadgen.lag", r.schedMs, r.sendMs, root, req);
        spans.add("runtime.serving.submit", r.sendMs, admitMs, root, req);
        spans.add("runtime.serving.queue", admitMs, startMs, root, req);
        const uint64_t svc = spans.add("runtime.serving.service",
                                       startMs, endMs, root, req);
        spans.add("runtime.serving.prepare", startMs, endMs - r.wallMs,
                  svc, req);
        spans.add("runtime.executor.execute", endMs - r.wallMs, endMs,
                  svc, req);
        // The admit stamp trails the engine's submit clock by
        // microseconds, so the derived end can pass the complete stamp;
        // clamp so the drawn spans stay nested.
        spans.add("runtime.serving.notify",
                  std::min(std::max(doneMs, endMs), r.seenMs), r.seenMs,
                  root, req);
    }
    if (missing > 0)
        std::fprintf(stderr,
                     "[trace] %zu jobs had no admit or complete event in "
                     "the flight recorder; left out of attribution\n",
                     missing);
    std::fprintf(stderr,
                 "[trace] attribution: |lag + submit + queue + service + "
                 "notify - latency| / latency over %zu jobs: p50 %.4f, "
                 "p99 %.4f, max %.4f\n",
                 attribErr.size(), quantile(attribErr, 0.5),
                 quantile(attribErr, 0.99), quantile(attribErr, 1.0));
    const double n = std::max<double>(1, double(batch.size()));
    double batchSum = 0;
    for (double b : batch)
        batchSum += b;
    out["runtime.serving.queue_ms_p50"] = {quantile(queue, 0.5), "ms"};
    out["runtime.serving.queue_ms_p99"] = {quantile(queue, 0.99), "ms"};
    out["runtime.serving.service_ms_p50"] = {quantile(service, 0.5), "ms"};
    out["runtime.serving.service_ms_p99"] = {quantile(service, 0.99),
                                             "ms"};
    out["runtime.serving.prepare_ms_p50"] = {quantile(prepare, 0.5), "ms"};
    out["runtime.serving.submit_ms_p99"] = {quantile(submit, 0.99), "ms"};
    out["runtime.serving.notify_ms_p99"] = {quantile(notify, 0.99), "ms"};
    out["runtime.serving.batch_size_mean"] = {batchSum / n, "count"};
    out["runtime.serving.coalesced_share"] = {double(coalesced) / n,
                                              "fraction"};
    out["runtime.serving.shed"] = {double(shed), "count"};
    out["runtime.serving.failed"] = {double(failed), "count"};
    out["runtime.serving.gold.latency_p99_ms"] = {quantile(goldLat, 0.99),
                                                  "ms"};
    out["runtime.serving.bulk.latency_p99_ms"] = {quantile(bulkLat, 0.99),
                                                  "ms"};
    out["runtime.executor.execute_ms_p50"] = {median(execMs), "ms"};
    out["runtime.executor.ops"] = {median(ops), "count"};
    out["runtime.executor.max_width"] = {median(width), "count"};
    out["runtime.executor.steals"] = {median(steals), "count"};
    out["runtime.executor.peak_resident_cts"] = {median(resident),
                                                 "count"};
    out["runtime.executor.encoding_hit_ratio"] = {
        lookups ? double(hits) / double(lookups) : 0, "fraction"};
    out["runtime.executor.op_sum_ms"] = {opSum, "ms"};
    out["runtime.executor.parallelism"] = {median(par), "ratio"};
    out["runtime.executor.overhead_ms"] = {median(overhead), "ms"};
    out["loadgen.offered_rate"] = {offline ? 0 : kServeRatePerSec,
                                   "jobs/s"};
    out["loadgen.sent"] = {double(p.recs.size()), "count"};
    out["loadgen.lag_p99_ms"] = {quantile(lag, 0.99), "ms"};
    out["obs.attribution_err_max"] = {quantile(attribErr, 1.0),
                                      "fraction"};
    const char *key = offline ? "throughput_jobs_s" : "latency_p50_ms";
    const double a = untraced.at(key).value, b = traced.at(key).value;
    out["obs.trace_overhead"] = {offline ? a / b : b / a, "ratio"};
}

} // namespace

Outcome
runServing(const Options &opt, bool offline, SpanRecorder &spans)
{
    Outcome o;
    std::vector<double> setupS;
    const auto setUp = [&] { return deploy(spans); };
    std::unique_ptr<Deployment> d;
    for (int i = 0; i < kSetupsBefore; ++i) {
        d.reset();
        d = timedSetUp(setUp, setupS);
    }
    const uint64_t t = d->bgv->plainModulus();
    const Inputs in = makeInputs(opt.seed, d->model, t);

    // Inline serial reference per input set, checked against the
    // plaintext semantics and for a positive noise budget. A job whose
    // reference fails counts as failed.
    std::vector<Ciphertext> refs;
    std::vector<bool> refOk;
    auto failBadRefs = [&](PhaseResult &p) {
        for (size_t j = 0; j < p.recs.size(); ++j)
            if (!refOk[p.jobs[j].set])
                p.recs[j].ok = false;
    };
    {
        SpanRecorder::Scope s(spans, "bench.reference");
        InlineParallelScope inlineScope;
        const OpGraphExecutor exec(d->model.prog, d->bgv.get());
        for (size_t i = 0; i < kInputSets; ++i) {
            ExecutionResult r = exec.execute(in.runtime[i]);
            const Ciphertext &ct = r.outputs.at(d->model.out);
            const std::string what = "input set " + std::to_string(i);
            const bool ok =
                checkNoiseBudget(*d->bgv, ct, what.c_str()) &&
                d->bgv->decryptSlots(ct) ==
                    evalModel(in.xs[i], in.weights, t);
            if (!ok)
                std::fprintf(stderr,
                             "[check] input set %zu: reference output "
                             "fails its check\n",
                             i);
            refs.push_back(ct);
            refOk.push_back(ok);
        }
    }

    CompileSampler compile(d->model.prog, opt.seconds * 1000.0,
                           kSegments, kCompileSliceMs);
    PhaseResult p = runPhase(*d, in, refs, opt.seed, opt.seconds,
                             offline, false, &compile);
    failBadRefs(p);
    o.endToEnd = phaseMetrics(p, offline, o);
    compile.finish(o.endToEnd);

    if (opt.trace) {
        PhaseResult pt = runPhase(*d, in, refs, opt.seed, opt.seconds,
                                  offline, true, nullptr);
        failBadRefs(pt);
        const Metrics traced = phaseMetrics(pt, offline, o);
        const OpCosts costs =
            sweepKernels(*d->ctx, d->bgv.get(), nullptr,
                         d->model.prog, spans, o.layers);
        sweepCompiler(d->model.prog, spans, o.layers);
        layerMetrics(pt, o.endToEnd, traced, offline,
                     opSumMs(d->model.prog, costs), spans, o.layers);
    }
    o.correct = o.failed == 0;
    d.reset();
    finishSetUps(setUp, setupS, o.endToEnd);
    o.endToEnd["peak_rss_mb"] = {peakRssMb(), "MB"};
    return o;
}

} // namespace f1::perfbench
