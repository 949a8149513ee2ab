/**
 * @file
 * Serving-runtime throughput bench: a batch of independent encrypted
 * jobs from several logical tenants is executed (a) back-to-back
 * serially — the pre-runtime deployment model — and (b) through the
 * ServingEngine at increasing worker counts. Emits one JSON document
 * (BENCH_runtime.json in CI) with jobs/sec, p50/p95 turnaround
 * latency, queue latency, and cache hit rates per worker count.
 *
 * A second section runs a deep imbalanced DAG, built so that a
 * schedule with a barrier per depth level is as slow as it can be,
 * serially (threadBudget = 1) and on the whole pool (the
 * "work_stealing" row, a name kept so results line up across
 * versions) fed the compiler's schedule hints, and emits p50/p95
 * execute latency for both. It also computes two bounds from one
 * profiled inline run's per-op-kind mean durations: the barrier
 * schedule (the sum over depth levels of the slowest op at each
 * level, what one round per level costs) and the critical path (the
 * heaviest source-to-output path). These runs have telemetry OFF — their
 * numbers are the trajectory CI compares across PRs to hold the
 * "disabled telemetry costs <1%" contract.
 *
 * A third section re-runs the whole-pool config with full
 * telemetry (per-op trace + execution profile), writes the trace to
 * TRACE_scheduler.json (Perfetto-loadable; uploaded as a CI
 * artifact), validates it in-process (span count == executed ops,
 * exit 4 on mismatch), embeds the profile and a metrics-registry
 * snapshot in the JSON, and in full mode gates the telemetry-ON
 * overhead (exit 5 if p50 exceeds 1.5x the off p50 at >= 4 threads).
 *
 * A fourth section walks a chain of 64 dependent rotations on the
 * whole pool, so one op is in flight and the other workers have no op
 * to claim, and reports wall and process CPU time (getrusage) per
 * execute. Those workers help the lone op's limb loops and sleep
 * between them, so CPU above wall is work, not spinning: on a 4-vCPU
 * host at N = 2048, helping read CPU/wall 1.41-1.72 with wall
 * 33.9-40.9 ms, against 0.99-1.01 and 37.7-44.6 ms with idle workers
 * asleep (3 runs each). Spinning workers would read near the pool
 * size with no lower wall. It has no gate: the ratio depends on the
 * host.
 *
 * Every run is checked bit-for-bit against the serial baseline: a
 * throughput number from diverging ciphertexts is a correctness
 * failure, not a perf data point (exit 1). In full mode on >= 4
 * hardware threads two gates are enforced: >= 2x jobs/sec at >= 4
 * workers (exit 2) and whole-pool p95 at most 0.9x the computed
 * barrier schedule on the imbalanced DAG (exit 3). The computed
 * barrier bound leaves out the barrier's own overhead, so it is a
 * lower bound on what a barrier scheduler would measure.
 *
 * Usage: bench_runtime_throughput [--smoke]
 *   --smoke  CI canary: small degree, few jobs, workers {1, 2},
 *            correctness checks only (no perf gates).
 */
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>

#include "common/hash.h"
#include "common/parallel.h"
#include "common/time_util.h"
#include "compiler/compiler.h"
#include "obs/metrics.h"
#include "runtime/op_graph_executor.h"
#include "runtime/serving.h"

namespace f1::bench {
namespace {

/** Rotate-accumulate over model weights, then a square: the op mix
 *  (plain mul, rotations, ct-ct mul, modswitch) of a small inference
 *  request. */
Program
inferenceProgram(uint32_t n)
{
    Program p(n, 3, "infer");
    int x = p.input();
    int w = p.inputPlain();
    int m = p.mulPlain(x, w);
    int r1 = p.rotate(m, 1);
    int s1 = p.add(m, r1);
    int r2 = p.rotate(s1, 2);
    int s2 = p.add(s1, r2);
    int ms = p.modSwitch(s2);
    p.output(p.mul(ms, ms));
    return p;
}

/** Two-operand aggregate: join-style request shape. */
Program
aggregateProgram(uint32_t n)
{
    Program p(n, 3, "aggregate");
    int x = p.input();
    int y = p.input();
    int t = p.mul(x, y);
    int u = p.rotate(t, 3);
    int v = p.add(t, u);
    p.output(p.modSwitch(v));
    return p;
}

/**
 * Deep imbalanced DAG — a barrier schedule's worst case. `chains`
 * independent accumulator chains of `steps` ops each, phase-shifted so
 * every depth level holds exactly one expensive ct-ct multiply and
 * chains-1 cheap adds: a barrier round per level costs one mul no
 * matter how many threads attack it, so the whole program costs
 * steps x mul. The executor runs the chains independently and
 * spreads the muls across workers.
 */
Program
deepImbalancedDag(uint32_t n, int chains, int steps)
{
    Program p(n, 3, "deep-dag");
    std::vector<int> acc(chains);
    for (int c = 0; c < chains; ++c)
        acc[c] = p.input();
    for (int s = 0; s < steps; ++s)
        for (int c = 0; c < chains; ++c)
            acc[c] = s % chains == c ? p.mul(acc[c], acc[c])
                                     : p.add(acc[c], acc[c]);
    for (int c = 0; c < chains; ++c)
        p.output(acc[c]);
    return p;
}

/** `length` dependent rotations: one op in flight at any time. */
Program
rotationChain(uint32_t n, int length)
{
    Program p(n, 3, "rotate-chain");
    int acc = p.input();
    for (int i = 0; i < length; ++i)
        acc = p.rotate(acc, 1);
    p.output(acc);
    return p;
}

/** User plus system CPU time of the whole process, in ms. */
double
processCpuMs()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto ms = [](const timeval &t) {
        return double(t.tv_sec) * 1e3 + double(t.tv_usec) / 1e3;
    };
    return ms(ru.ru_utime) + ms(ru.ru_stime);
}

/** The ExecutionProfile::opKinds key of each op kind the DAG uses
 *  (inputs are materialized before the timed phase). */
const char *
profileKey(HeOpKind k)
{
    switch (k) {
      case HeOpKind::kAdd: return "add";
      case HeOpKind::kMul: return "mul";
      case HeOpKind::kOutput: return "output";
      default: return "";
    }
}

struct ScheduleBounds
{
    double barrierMs = 0;      //!< Σ over depth levels of the slowest op
    double criticalPathMs = 0; //!< heaviest source-to-output path
};

/** Both bounds for builder program `p` (topologically ordered), from
 *  a profile's per-op-kind mean durations; throws if the profile has
 *  no entry for one of p's op kinds. */
ScheduleBounds
scheduleBounds(const Program &p, const obs::ExecutionProfile &prof)
{
    const auto &ops = p.ops();
    std::vector<size_t> depth(ops.size(), 0);
    std::vector<double> path(ops.size(), 0.0);
    std::vector<double> levelMax;
    ScheduleBounds b;
    for (size_t h = 0; h < ops.size(); ++h) {
        const HeOp &op = ops[h];
        if (op.kind == HeOpKind::kInput)
            continue;
        const auto &kind = prof.opKinds.at(profileKey(op.kind));
        const double ms = kind.totalMs / double(kind.count);
        for (int operand : {op.a, op.b}) {
            if (operand < 0)
                continue;
            depth[h] = std::max(depth[h], depth[size_t(operand)]);
            path[h] = std::max(path[h], path[size_t(operand)]);
        }
        ++depth[h];
        path[h] += ms;
        if (levelMax.size() < depth[h])
            levelMax.resize(depth[h], 0.0);
        levelMax[depth[h] - 1] = std::max(levelMax[depth[h] - 1], ms);
        b.criticalPathMs = std::max(b.criticalPathMs, path[h]);
    }
    for (double ms : levelMax)
        b.barrierMs += ms;
    return b;
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

struct SweepRow
{
    unsigned workers;
    double jobsPerSec;
    double speedup;
    double p50Ms, p95Ms, queueP95Ms;
    uint64_t encHits, encMisses;
    bool bitIdentical;
};

int
run(bool smoke)
{
    const uint32_t n = smoke ? 1024 : 2048;
    const size_t kJobs = smoke ? 8 : 32;
    const std::vector<std::string> tenants = {"alice", "bob", "carol",
                                              "dave"};
    std::vector<unsigned> workerCounts =
        smoke ? std::vector<unsigned>{1, 2}
              : std::vector<unsigned>{1, 2, 4};
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    if (!smoke && hw > 4)
        workerCounts.push_back(hw);

    FheParams params;
    params.n = n;
    params.maxLevel = 3;
    params.primeBits = 28;
    params.plainModulus = 65537;
    FheContext ctx(params);
    // The hint cache's counts, as deltas of the registry's
    // cache.bgv_hints.* counters over this bench's one scheme.
    auto &reg = obs::MetricsRegistry::global();
    const obs::Counter &hintHits = reg.counter("cache.bgv_hints.hits");
    const obs::Counter &hintMisses =
        reg.counter("cache.bgv_hints.misses");
    const obs::Counter &hintEvictions =
        reg.counter("cache.bgv_hints.evictions");
    const uint64_t hintHits0 = hintHits.value();
    const uint64_t hintMisses0 = hintMisses.value();
    const uint64_t hintEvictions0 = hintEvictions.value();
    BgvScheme bgv(&ctx);

    Program infer = inferenceProgram(n);
    Program aggregate = aggregateProgram(n);
    std::vector<uint64_t> weights(n);
    for (size_t i = 0; i < n; ++i)
        weights[i] = (5 * i + 3) % 65537;

    auto makeRequest = [&](size_t i) {
        JobRequest req;
        req.program = i % 2 == 0 ? &infer : &aggregate;
        req.tenant = tenants[i % tenants.size()];
        req.inputs.seed = 1000 + i;
        if (i % 2 == 0)
            req.inputs.bind(1, weights); // shared model
        return req;
    };

    ExecutionPolicy serialPolicy;
    serialPolicy.threadBudget = 1;

    // --- Untimed warm-up: one run per program shape generates every
    // key-switch hint, so neither the baseline nor the engine sweep
    // absorbs one-time key generation and the comparison measures
    // job-level parallelism plus encoding reuse, not cache warm-up.
    {
        InlineParallelScope inlineScope;
        for (size_t i = 0; i < 2 && i < kJobs; ++i) {
            JobRequest req = makeRequest(i);
            OpGraphExecutor exec(*req.program, &bgv);
            exec.execute(req.inputs, serialPolicy);
        }
    }

    // --- Serial baseline: one job at a time, fully single-threaded,
    // no encoding cache — back-to-back execution as a non-serving
    // deployment would run it.
    std::vector<uint64_t> baselineHash(kJobs);
    std::vector<double> baselineLat(kJobs);
    double baselineTotalMs = 0;
    {
        InlineParallelScope inlineScope;
        const double t0 = steadyNowMs();
        for (size_t i = 0; i < kJobs; ++i) {
            JobRequest req = makeRequest(i);
            OpGraphExecutor exec(*req.program, &bgv);
            const double j0 = steadyNowMs();
            auto res = exec.execute(req.inputs, serialPolicy);
            baselineLat[i] = steadyNowMs() - j0;
            baselineHash[i] = outputsHash(res);
        }
        baselineTotalMs = steadyNowMs() - t0;
    }
    const double baselineJps =
        1000.0 * static_cast<double>(kJobs) / baselineTotalMs;

    // --- Engine sweep.
    std::vector<SweepRow> rows;
    bool allIdentical = true;
    for (unsigned workers : workerCounts) {
        ServingConfig cfg;
        cfg.workers = workers;
        ServingEngine engine(&bgv, cfg);

        const double t0 = steadyNowMs();
        std::vector<std::future<JobResult>> futs;
        futs.reserve(kJobs);
        for (size_t i = 0; i < kJobs; ++i)
            futs.push_back(engine.submit(makeRequest(i)));

        std::vector<double> turnaround(kJobs), queueMs(kJobs);
        uint64_t encHits = 0, encMisses = 0;
        bool identical = true;
        for (size_t i = 0; i < kJobs; ++i) {
            JobResult r = futs[i].get();
            turnaround[i] = r.queueMs + r.serviceMs;
            queueMs[i] = r.queueMs;
            encHits += r.exec.encodingCacheHits;
            encMisses += r.exec.encodingCacheMisses;
            identical =
                identical && outputsHash(r.exec) == baselineHash[i];
        }
        const double totalMs = steadyNowMs() - t0;
        allIdentical = allIdentical && identical;

        const double jps =
            1000.0 * static_cast<double>(kJobs) / totalMs;
        rows.push_back({workers, jps, jps / baselineJps,
                        percentile(turnaround, 0.50),
                        percentile(turnaround, 0.95),
                        percentile(queueMs, 0.95), encHits, encMisses,
                        identical});
    }

    // --- Scheduler latency: the deep imbalanced DAG walked serially
    // and on the whole pool, both fed the compiler's schedule hints.
    // wallMs is the timed execute phase (prepare excluded), so this
    // isolates scheduling quality.
    const Program dag =
        deepImbalancedDag(n, 4, smoke ? 8 : 16);
    const ScheduleHints dagHints =
        compileProgram(dag, F1Config{}).hints;
    const int reps = smoke ? 3 : 7;

    struct SchedRow
    {
        const char *name;
        unsigned threadBudget;
        double p50Ms = 0, p95Ms = 0;
        uint64_t steals = 0;
        bool bitIdentical = true;
    };
    std::vector<SchedRow> sched = {
        {"serial", 1},
        {"work_stealing", 0},
    };
    const SchedRow &ws = sched[1];
    ScheduleBounds bounds;
    // --- Telemetry: the whole-pool config again with full
    // telemetry on. The last rep's trace is exported for Perfetto and
    // validated in-process; bit-identity against the baseline proves
    // telemetry never perturbs results.
    double telemOnP50 = 0;
    size_t traceSpans = 0, traceOps = 0, traceLanes = 0;
    uint64_t traceDropped = 0;
    bool traceValid = true;
    std::string profileJson = "{}";
    {
        OpGraphExecutor exec(dag, &bgv);
        RuntimeInputs in;
        in.seed = 77;
        exec.execute(in, serialPolicy); // untimed hint warm-up
        const uint64_t want =
            outputsHash(exec.execute(in, serialPolicy));

        // Per-op-kind mean durations for the bounds, from one inline
        // run: ops there run single-threaded, as each op does on a
        // pool worker.
        {
            InlineParallelScope inlineScope;
            ExecutionPolicy pol;
            pol.telemetry.profile = true;
            const ExecutionResult res = exec.execute(in, pol);
            allIdentical = allIdentical && outputsHash(res) == want;
            bounds = scheduleBounds(dag, *res.profile);
        }

        for (SchedRow &row : sched) {
            ExecutionPolicy pol;
            pol.threadBudget = row.threadBudget;
            pol.scheduleHints = &dagHints;
            std::vector<double> lat(reps);
            for (int r = 0; r < reps; ++r) {
                auto res = exec.execute(in, pol);
                lat[r] = res.wallMs;
                row.steals += res.steals;
                row.bitIdentical = row.bitIdentical &&
                                   outputsHash(res) == want;
            }
            row.p50Ms = percentile(lat, 0.50);
            row.p95Ms = percentile(lat, 0.95);
            allIdentical = allIdentical && row.bitIdentical;
        }

        ExecutionPolicy pol;
        pol.scheduleHints = &dagHints;
        pol.telemetry.profile = true;
        pol.telemetry.trace = true;
        pol.telemetry.label = "bench-scheduler";
        std::vector<double> lat(reps);
        ExecutionResult last;
        for (int r = 0; r < reps; ++r) {
            last = exec.execute(in, pol);
            lat[r] = last.wallMs;
            allIdentical =
                allIdentical && outputsHash(last) == want;
        }
        telemOnP50 = percentile(lat, 0.50);
        if (last.trace && last.profile) {
            traceSpans = last.trace->spanCount();
            traceOps = last.opsExecuted;
            traceLanes = last.trace->laneCount();
            traceDropped = last.trace->droppedEvents();
            traceValid =
                traceSpans == traceOps && traceDropped == 0;
            profileJson = last.profile->toJson();
            std::ofstream f("TRACE_scheduler.json");
            last.trace->writeJson(f);
        } else {
            traceValid = false;
        }
    }

    // --- Idle workers: a chain keeps one op in flight on the whole
    // pool, so process CPU time beyond wall time is what the idle
    // workers burn. One untimed run warms the rotation key.
    const int chainOps = 64;
    double chainWallMs = 0, chainCpuMs = 0;
    {
        const Program chain = rotationChain(n, chainOps);
        OpGraphExecutor exec(chain, &bgv);
        RuntimeInputs in;
        in.seed = 91;
        const uint64_t want =
            outputsHash(exec.execute(in, serialPolicy));
        exec.execute(in);
        const double cpu0 = processCpuMs();
        const double t0 = steadyNowMs();
        for (int r = 0; r < reps; ++r)
            allIdentical =
                allIdentical && outputsHash(exec.execute(in)) == want;
        chainWallMs = (steadyNowMs() - t0) / reps;
        chainCpuMs = (processCpuMs() - cpu0) / reps;
    }

    printf("{\n  \"bench\": \"runtime_throughput\",\n");
    printf("  \"mode\": \"%s\",\n", smoke ? "smoke" : "full");
    printf("  \"hw_concurrency\": %u,\n", hw);
    printf("  \"n\": %u, \"levels\": 3, \"jobs\": %zu, \"tenants\": "
           "%zu,\n",
           n, kJobs, tenants.size());
    printf("  \"baseline\": {\"jobs_per_sec\": %.2f, \"p50_ms\": %.3f, "
           "\"p95_ms\": %.3f},\n",
           baselineJps, percentile(baselineLat, 0.50),
           percentile(baselineLat, 0.95));
    printf("  \"results\": [\n");
    for (size_t i = 0; i < rows.size(); ++i) {
        const SweepRow &r = rows[i];
        printf("    {\"workers\": %u, \"jobs_per_sec\": %.2f, "
               "\"speedup_vs_serial\": %.3f, \"p50_ms\": %.3f, "
               "\"p95_ms\": %.3f, \"queue_p95_ms\": %.3f, "
               "\"enc_cache_hits\": %llu, \"enc_cache_misses\": %llu, "
               "\"bit_identical\": %s}%s\n",
               r.workers, r.jobsPerSec, r.speedup, r.p50Ms, r.p95Ms,
               r.queueP95Ms, (unsigned long long)r.encHits,
               (unsigned long long)r.encMisses,
               r.bitIdentical ? "true" : "false",
               i + 1 < rows.size() ? "," : "");
    }
    printf("  ],\n");
    printf("  \"scheduler_latency\": {\n");
    printf("    \"program\": \"deep-dag\", \"chains\": 4, \"reps\": "
           "%d, \"threads\": %u,\n",
           reps, hw);
    printf("    \"results\": [\n");
    for (size_t i = 0; i < sched.size(); ++i) {
        const SchedRow &r = sched[i];
        printf("      {\"scheduler\": \"%s\", \"p50_ms\": %.3f, "
               "\"p95_ms\": %.3f, \"steals\": %llu, "
               "\"bit_identical\": %s}%s\n",
               r.name, r.p50Ms, r.p95Ms,
               (unsigned long long)r.steals,
               r.bitIdentical ? "true" : "false",
               i + 1 < sched.size() ? "," : "");
    }
    printf("    ],\n");
    printf("    \"barrier_bound_ms\": %.3f, \"critical_path_ms\": %.3f,\n",
           bounds.barrierMs, bounds.criticalPathMs);
    printf("    \"ws_p95_over_barrier\": %.3f, "
           "\"ws_p95_over_critical_path\": %.3f\n  },\n",
           bounds.barrierMs > 0 ? ws.p95Ms / bounds.barrierMs : 0.0,
           bounds.criticalPathMs > 0 ? ws.p95Ms / bounds.criticalPathMs
                                     : 0.0);
    printf("  \"telemetry\": {\n");
    printf("    \"scheduler\": \"work_stealing\", \"off_p50_ms\": "
           "%.3f, \"on_p50_ms\": %.3f, \"on_overhead\": %.3f,\n",
           ws.p50Ms, telemOnP50,
           ws.p50Ms > 0 ? telemOnP50 / ws.p50Ms : 0.0);
    printf("    \"trace_file\": \"TRACE_scheduler.json\", "
           "\"trace_spans\": %zu, \"ops_executed\": %zu, "
           "\"trace_lanes\": %zu, \"trace_dropped\": %llu, "
           "\"trace_valid\": %s,\n",
           traceSpans, traceOps, traceLanes,
           (unsigned long long)traceDropped,
           traceValid ? "true" : "false");
    printf("    \"profile\": %s\n  },\n", profileJson.c_str());
    printf("  \"chain\": {\"program\": \"rotate-chain\", \"ops\": %d, "
           "\"threads\": %u, \"reps\": %d, \"wall_ms\": %.3f, "
           "\"cpu_ms\": %.3f, \"cpu_over_wall\": %.3f},\n",
           chainOps, globalThreadCount(), reps, chainWallMs, chainCpuMs,
           chainWallMs > 0 ? chainCpuMs / chainWallMs : 0.0);
    printf("  \"hint_cache\": {\"hits\": %llu, \"misses\": %llu, "
           "\"evictions\": %llu},\n",
           (unsigned long long)(hintHits.value() - hintHits0),
           (unsigned long long)(hintMisses.value() - hintMisses0),
           (unsigned long long)(hintEvictions.value() - hintEvictions0));
    printf("  \"metrics\": %s\n}\n", reg.snapshot().toJson().c_str());

    if (!allIdentical)
        return 1;
    // Trace integrity is a correctness gate in both modes: one span
    // per executed op, nothing dropped at this scale.
    if (!traceValid) {
        fprintf(stderr,
                "FAIL: trace invalid (%zu spans vs %zu ops, %llu "
                "dropped)\n",
                traceSpans, traceOps,
                (unsigned long long)traceDropped);
        return 4;
    }
    if (!smoke) {
        // Acceptance gate: >= 2x jobs/sec over back-to-back serial at
        // >= 4 workers on an independent-job batch.
        for (const SweepRow &r : rows) {
            if (r.workers >= 4 && hw >= 4 && r.speedup < 2.0) {
                fprintf(stderr,
                        "FAIL: %u workers reached only %.2fx\n",
                        r.workers, r.speedup);
                return 2;
            }
        }
        // Acceptance gate: on the deep imbalanced DAG at >= 4
        // threads, the whole pool must beat a barrier per depth level
        // by >= 10% at p95. The barrier bound is computed without the
        // barrier's own overhead, so this is no looser than timing a
        // barrier scheduler. Below 4 hardware threads there is no
        // barrier idleness to reclaim, so the gate is moot.
        if (hw >= 4 && ws.p95Ms > 0.90 * bounds.barrierMs) {
            fprintf(stderr,
                    "FAIL: whole-pool p95 %.3f ms vs barrier bound "
                    "%.3f ms (< 10%% improvement; critical path %.3f "
                    "ms)\n",
                    ws.p95Ms, bounds.barrierMs, bounds.criticalPathMs);
            return 3;
        }
        // Telemetry sanity gate: full tracing + profiling must stay
        // cheap (two clock reads and one ring store per op). The off
        // path is gated structurally (TLS null checks only) and by
        // the scheduler-latency trajectory above.
        if (hw >= 4 && ws.p50Ms > 0 && telemOnP50 > 1.5 * ws.p50Ms) {
            fprintf(stderr,
                    "FAIL: telemetry-on p50 %.3f ms vs off %.3f ms "
                    "(> 1.5x)\n",
                    telemOnP50, ws.p50Ms);
            return 5;
        }
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
