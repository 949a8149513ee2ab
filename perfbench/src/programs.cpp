/**
 * @file
 * The lola and bootstrap workloads: one caller in a closed loop runs
 * a Table 3 program through OpGraphExecutor::execute under the
 * default ExecutionPolicy with the compiler's ScheduleHints, on the
 * default pool. Serving is bypassed.
 *
 *  - lola: makeLolaMnist(false), CKKS at N = 8192, L = 4 with digit
 *    key-switching, 179 ops in a wide DAG: op-level parallelism.
 *  - bootstrap: makeBgvBootstrap(), BGV at N = 16384, L = 24 with GHS
 *    key-switching over 24 aux primes, 46 ops mostly in a chain: the
 *    only GHS / basis-extension user, and the executor's
 *    single-thread regime.
 */
#include <cstdio>
#include <memory>
#include <type_traits>

#include "common/hash.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/time_util.h"
#include "layers.h"
#include "runtime/op_graph_executor.h"
#include "workloads.h"
#include "workloads/workloads.h"

namespace f1::perfbench {

namespace {

template <class Scheme>
struct Deployment
{
    std::unique_ptr<FheContext> ctx;
    std::unique_ptr<Scheme> scheme;
    Workload work;
    CompileResult compiled;
};

template <class Scheme>
std::unique_ptr<Deployment<Scheme>>
deploy(bool bootstrap, SpanRecorder &spans)
{
    SpanRecorder::Scope root(spans, "bench.setup");
    auto d = std::make_unique<Deployment<Scheme>>(Deployment<Scheme>{
        nullptr, nullptr,
        bootstrap ? makeBgvBootstrap() : makeLolaMnist(false), {}});
    const Workload &w = d->work;
    {
        SpanRecorder::Scope s(spans, "fhe.keygen", root.id());
        FheParams params;
        params.n = w.n;
        params.maxLevel = w.maxLevel;
        params.auxCount = w.auxCount;
        d->ctx = std::make_unique<FheContext>(params);
        const KeySwitchVariant variant =
            w.auxCount > 0 ? KeySwitchVariant::kGhsExtension
                           : KeySwitchVariant::kDigitLxL;
        if constexpr (std::is_same_v<Scheme, BgvScheme>)
            d->scheme = std::make_unique<Scheme>(d->ctx.get(), 0, variant);
        else
            d->scheme = std::make_unique<Scheme>(d->ctx.get(), variant);
    }
    {
        SpanRecorder::Scope s(spans, "compiler.compile", root.id());
        d->compiled = compileProgram(w.program, F1Config{});
    }
    {
        SpanRecorder::Scope s(spans, "fhe.hint_warm", root.id());
        warmHints(w.program, *d->scheme);
    }
    return d;
}

/** Seed-derived bindings for every input handle of the program. */
std::vector<RuntimeInputs>
makeInputs(uint64_t seed, const Workload &w, size_t sets)
{
    Rng rng(hashCombine(seed, 0x9a06));
    std::vector<RuntimeInputs> out(sets);
    for (RuntimeInputs &in : out) {
        const auto &ops = w.program.ops();
        for (size_t h = 0; h < ops.size(); ++h) {
            if (ops[h].kind != HeOpKind::kInput &&
                ops[h].kind != HeOpKind::kInputPlain)
                continue;
            if (w.scheme == WorkloadScheme::kBgv) {
                in.bind(int(h), rng.uniformVector(w.n, 65537));
            } else {
                std::vector<std::complex<double>> slots(w.n / 2);
                for (auto &s : slots)
                    s = {rng.uniformReal(-1, 1), 0.0};
                in.bind(int(h), std::move(slots));
            }
        }
        in.seed = rng.next();
    }
    return out;
}

bool
sameOutputs(const std::map<int, Ciphertext> &a,
            const std::map<int, Ciphertext> &b)
{
    if (a.size() != b.size())
        return false;
    for (const auto &[h, ct] : a) {
        auto it = b.find(h);
        if (it == b.end() || !sameCiphertext(ct, it->second))
            return false;
    }
    return true;
}

struct Sample
{
    double latMs = 0;
    ExecutionResult res; //!< outputs dropped after the check
    bool ok = false;
};

/** Closed loop: one caller, next request when the last returns. */
template <class Scheme>
std::vector<Sample>
runPhase(Deployment<Scheme> &d, const std::vector<RuntimeInputs> &in,
         const std::vector<std::map<int, Ciphertext>> &refs,
         double seconds, SpanRecorder &spans, CompileSampler *compile)
{
    SpanRecorder::Scope root(spans, "bench.closed_loop");
    const OpGraphExecutor exec(d.work.program, d.scheme.get());
    ExecutionPolicy policy;
    policy.scheduleHints = &d.compiled.hints;
    std::vector<Sample> out;
    const double t0 = steadyNowMs();
    while (out.empty() || steadyNowMs() - t0 < seconds * 1000.0) {
        if (compile)
            compile->catchUp(steadyNowMs() - t0);
        const size_t set = out.size() % in.size();
        Sample s;
        {
            SpanRecorder::Scope span(spans, "runtime.executor.execute",
                                     root.id());
            const double a = steadyNowMs();
            s.res = exec.execute(in[set], policy);
            s.latMs = steadyNowMs() - a;
        }
        s.ok = sameOutputs(s.res.outputs, refs[set]);
        s.res.outputs.clear();
        out.push_back(std::move(s));
    }
    return out;
}

Metrics
phaseMetrics(const std::vector<Sample> &samples, double deadlineMs,
             Outcome &o)
{
    std::vector<double> lat;
    size_t met = 0;
    double busyMs = 0;
    for (const Sample &s : samples) {
        busyMs += s.latMs;
        if (!s.ok)
            continue;
        lat.push_back(s.latMs);
        met += s.latMs <= deadlineMs;
    }
    const double n = double(samples.size());
    o.attempted += samples.size();
    o.failed += samples.size() - lat.size();
    Metrics m;
    latencyMetrics(lat, m);
    m["throughput_jobs_s"] = {double(lat.size()) / (busyMs / 1000.0),
                              "jobs/s"};
    m["slo_attainment"] = {double(met) / n, "fraction"};
    m["ok_share"] = {double(lat.size()) / n, "fraction"};
    return m;
}

/** Per-layer metrics that do not come from the sweeps. Serving and
 *  load generation are bypassed here and report zero. */
void
layerMetrics(const std::vector<Sample> &samples, const Metrics &untraced,
             const Metrics &traced, double opSum, Metrics &out)
{
    std::vector<double> wall, ops, width, steals, resident;
    uint64_t hits = 0, lookups = 0;
    for (const Sample &s : samples) {
        wall.push_back(s.res.wallMs);
        ops.push_back(double(s.res.opsExecuted));
        width.push_back(double(s.res.maxWavefrontWidth));
        steals.push_back(double(s.res.steals));
        resident.push_back(double(s.res.peakResidentCiphertexts));
        hits += s.res.encodingCacheHits;
        lookups += s.res.encodingCacheHits + s.res.encodingCacheMisses;
    }
    const double execMs = median(wall);
    out["runtime.executor.execute_ms_p50"] = {execMs, "ms"};
    out["runtime.executor.ops"] = {median(ops), "count"};
    out["runtime.executor.max_width"] = {median(width), "count"};
    out["runtime.executor.steals"] = {median(steals), "count"};
    out["runtime.executor.peak_resident_cts"] = {median(resident),
                                                 "count"};
    out["runtime.executor.encoding_hit_ratio"] = {
        lookups ? double(hits) / double(lookups) : 0, "fraction"};
    out["runtime.executor.op_sum_ms"] = {opSum, "ms"};
    out["runtime.executor.parallelism"] = {opSum / execMs, "ratio"};
    out["runtime.executor.overhead_ms"] = {execMs - opSum, "ms"};
    for (const char *name :
         {"queue_ms_p50", "queue_ms_p99", "service_ms_p50",
          "service_ms_p99", "prepare_ms_p50", "submit_ms_p99",
          "notify_ms_p99"})
        out[std::string("runtime.serving.") + name] = {0, "ms"};
    for (const char *name :
         {"batch_size_mean", "shed", "failed"})
        out[std::string("runtime.serving.") + name] = {0, "count"};
    out["runtime.serving.coalesced_share"] = {0, "fraction"};
    out["runtime.serving.gold.latency_p99_ms"] = {0, "ms"};
    out["runtime.serving.bulk.latency_p99_ms"] = {0, "ms"};
    out["loadgen.offered_rate"] = {0, "jobs/s"};
    out["loadgen.sent"] = {0, "count"};
    out["loadgen.lag_p99_ms"] = {0, "ms"};
    out["obs.attribution_err_max"] = {0, "fraction"};
    out["obs.trace_overhead"] = {traced.at("latency_p50_ms").value /
                                     untraced.at("latency_p50_ms").value,
                                 "ratio"};
}

template <class Scheme>
Outcome
run(const Options &opt, bool bootstrap, SpanRecorder &spans)
{
    // A closed-loop request meets its deadline when it answers within
    // this time; generous, so attainment moves only on a gross stall.
    const double deadlineMs = bootstrap ? 30000 : 1000;
    const size_t inputSets = bootstrap ? 1 : 2;
    Outcome o;
    std::vector<double> setupS;
    const auto setUp = [&] { return deploy<Scheme>(bootstrap, spans); };
    std::unique_ptr<Deployment<Scheme>> d;
    for (int i = 0; i < kSetupsBefore; ++i) {
        d.reset();
        d = timedSetUp(setUp, setupS);
    }
    const std::vector<RuntimeInputs> in =
        makeInputs(opt.seed, d->work, inputSets);

    std::vector<std::map<int, Ciphertext>> refs;
    {
        SpanRecorder::Scope s(spans, "bench.reference");
        InlineParallelScope inlineScope;
        const OpGraphExecutor exec(d->work.program, d->scheme.get());
        for (const RuntimeInputs &ri : in) {
            refs.push_back(exec.execute(ri).outputs);
            if constexpr (std::is_same_v<Scheme, BgvScheme>) {
                for (const auto &[h, ct] : refs.back()) {
                    const std::string what =
                        "output " + std::to_string(h);
                    if (!checkNoiseBudget(*d->scheme, ct, what.c_str()))
                        o.correct = false;
                }
            }
        }
    }

    // A compile slice before about every other request: the more
    // points the compile phase samples, the less the host's drift
    // over the run moves its median.
    CompileSampler compile(d->work.program, opt.seconds * 1000.0,
                           bootstrap ? 8 : 96, bootstrap ? 60 : 20);
    const auto samples =
        runPhase(*d, in, refs, opt.seconds, spans, &compile);
    o.endToEnd = phaseMetrics(samples, deadlineMs, o);
    compile.finish(o.endToEnd);

    if (opt.trace) {
        const auto tracedSamples =
            runPhase(*d, in, refs, opt.seconds, spans, nullptr);
        const Metrics traced = phaseMetrics(tracedSamples, deadlineMs, o);
        BgvScheme *bgv = nullptr;
        CkksScheme *ckks = nullptr;
        if constexpr (std::is_same_v<Scheme, BgvScheme>)
            bgv = d->scheme.get();
        else
            ckks = d->scheme.get();
        const OpCosts costs =
            sweepKernels(*d->ctx, bgv, ckks, d->work.program,
                         spans, o.layers);
        sweepCompiler(d->work.program, spans, o.layers);
        layerMetrics(tracedSamples, o.endToEnd, traced,
                     opSumMs(d->work.program, costs), o.layers);
    }
    o.correct = o.correct && o.failed == 0;

    const double f1Ms = o.endToEnd.at("f1_sim_ms").value;
    const double cpuMs = o.endToEnd.at("latency_p50_ms").value;
    std::fprintf(stderr,
                 "\n[paper] %s: F1 model %.3f ms (paper F1 %s ms) | "
                 "measured latency_p50 %.1f ms on this host (paper CPU "
                 "%s ms)\n"
                 "  The F1 model is not validated against hardware and "
                 "the program is structurally faithful to the paper's, "
                 "not identical, so no error figure is given.\n",
                 d->work.program.name().c_str(), f1Ms,
                 d->work.paperF1Ms, cpuMs, d->work.paperCpuMs);
    d.reset();
    finishSetUps(setUp, setupS, o.endToEnd);
    o.endToEnd["peak_rss_mb"] = {peakRssMb(), "MB"};
    return o;
}

} // namespace

Outcome
runProgram(const Options &opt, bool bootstrap, SpanRecorder &spans)
{
    return bootstrap ? run<BgvScheme>(opt, true, spans)
                     : run<CkksScheme>(opt, false, spans);
}

} // namespace f1::perfbench
