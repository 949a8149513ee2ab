/**
 * @file
 * f1bench entry point: runs one benchmark workload.
 *
 * Usage: f1bench --workload <serve|offline|lola|bootstrap> --seed <n>
 *                --seconds <s> --trace <0|1> [--trace-out <file>]
 *
 * Prints, as the last line of stdout, one JSON object with the keys
 * correct, attempted, failed and metrics: the end-to-end metrics when
 * --trace is 0, the per-layer metrics when it is 1. The traced run
 * also writes its spans as a Perfetto-loadable JSON file. Exits 1 if
 * any output disagrees with its reference, 2 on bad arguments.
 */
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>

#include <sched.h>
#include <sys/resource.h>

#include "common/time_util.h"
#include "workloads.h"

namespace f1::perfbench {

bool
sameCiphertext(const Ciphertext &a, const Ciphertext &b)
{
    if (a.polys.size() != b.polys.size() ||
        a.ptCorrection != b.ptCorrection || a.scale != b.scale)
        return false;
    for (size_t i = 0; i < a.polys.size(); ++i)
        if (a.polys[i].levels() != b.polys[i].levels() ||
            a.polys[i].raw() != b.polys[i].raw())
            return false;
    return true;
}

bool
checkNoiseBudget(const BgvScheme &bgv, const Ciphertext &ct,
                 const char *what)
{
    const double measured = bgv.context()->logQ(ct.level()) -
                            bgv.measuredNoiseBits(ct) - 1;
    std::fprintf(stderr,
                 "[check] %s: noise budget %.1f bits measured, %.1f bits "
                 "by the scheme's tracked estimate\n",
                 what, measured, bgv.noiseBudgetBits(ct));
    return measured > 0;
}

CompileSampler::CompileSampler(const Program &prog, double phaseMs,
                               size_t slices, double sliceMs)
    : prog_(prog), phaseMs_(phaseMs), slices_(slices), sliceMs_(sliceMs)
{
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0)
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &allowed))
                cpus_.push_back(c);
}

void
CompileSampler::slice()
{
    // Pinned to the next core in turn, then released to all of them.
    cpu_set_t all, one;
    const bool pinned = !cpus_.empty() &&
                        sched_getaffinity(0, sizeof(all), &all) == 0;
    if (pinned) {
        CPU_ZERO(&one);
        CPU_SET(cpus_[medians_.size() % cpus_.size()], &one);
        sched_setaffinity(0, sizeof(one), &one);
    }
    const F1Config cfg;
    std::vector<double> ms;
    const double t0 = steadyNowMs();
    do {
        const double a = steadyNowMs();
        const CompileResult r = compileProgram(prog_, cfg);
        ms.push_back(steadyNowMs() - a);
        simMs_ = r.schedule.timeMs(cfg);
    } while (steadyNowMs() - t0 < sliceMs_);
    medians_.push_back(median(ms));
    if (pinned)
        sched_setaffinity(0, sizeof(all), &all);
}

void
CompileSampler::catchUp(double elapsedMs)
{
    while (medians_.size() < slices_ &&
           elapsedMs >= double(medians_.size()) * phaseMs_ / slices_)
        slice();
}

void
CompileSampler::finish(Metrics &out)
{
    while (medians_.size() < slices_)
        slice();
    std::fprintf(stderr,
                 "[compile] %zu slices of %.0f ms over %zu cores: slice "
                 "medians from %.3f to %.3f ms\n",
                 medians_.size(), sliceMs_, cpus_.size(),
                 quantile(medians_, 0), quantile(medians_, 1));
    double sum = 0;
    for (double ms : medians_)
        sum += ms;
    out["compile_ms"] = {sum / double(medians_.size()), "ms"};
    out["f1_sim_ms"] = {simMs_, "sim_ms"};
}

void
latencyMetrics(const std::vector<double> &latMs, Metrics &out)
{
    out["latency_p50_ms"] = {quantile(latMs, 0.5), "ms"};
    out["latency_p90_ms"] = {quantile(latMs, 0.9), "ms"};
    std::fprintf(stderr,
                 "[latency] %zu samples (%zu beyond p90): p99 %.3f ms\n",
                 latMs.size(), latMs.size() / 10, quantile(latMs, 0.99));
}

namespace {

void
printResult(const Outcome &o, const Metrics &m)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                o.correct ? "true" : "false",
                static_cast<unsigned long long>(o.attempted),
                static_cast<unsigned long long>(o.failed));
    bool first = true;
    for (const auto &[name, metric] : m) {
        const double v = std::isfinite(metric.value) ? metric.value : 0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    first ? "" : ", ", name.c_str(), v,
                    metric.unit.c_str());
        first = false;
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

int
usage(const char *msg)
{
    std::fprintf(stderr,
                 "error: %s\nusage: f1bench --workload "
                 "<serve|offline|lola|bootstrap> --seed <n> --seconds <s> "
                 "--trace <0|1> [--trace-out <file>]\n",
                 msg);
    return 2;
}

} // namespace

} // namespace f1::perfbench

int
main(int argc, char **argv)
{
    using namespace f1::perfbench;
    Options opt;
    std::string traceOut;
    bool haveSeed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + key).c_str());
        const std::string val = argv[++i];
        try {
            size_t used = 0;
            if (key == "--workload") {
                opt.workload = val;
            } else if (key == "--seed") {
                opt.seed = std::stoull(val, &used);
                haveSeed = used == val.size();
            } else if (key == "--seconds") {
                opt.seconds = std::stod(val, &used);
                if (used != val.size() || !(opt.seconds > 0) ||
                    opt.seconds > 600)
                    return usage("--seconds must be in (0, 600]");
            } else if (key == "--trace") {
                if (val != "0" && val != "1")
                    return usage("--trace must be 0 or 1");
                opt.trace = val == "1";
            } else if (key == "--trace-out") {
                traceOut = val;
            } else {
                return usage(("unknown argument " + key).c_str());
            }
        } catch (const std::exception &) {
            return usage(("bad value for " + key).c_str());
        }
    }
    if (!haveSeed)
        return usage("--seed must be a whole number");
    if (opt.trace && traceOut.empty())
        return usage("--trace 1 needs --trace-out");

    SpanRecorder spans(opt.trace);
    Outcome o;
    try {
        if (opt.workload == "serve" || opt.workload == "offline")
            o = runServing(opt, opt.workload == "offline", spans);
        else if (opt.workload == "lola" || opt.workload == "bootstrap")
            o = runProgram(opt, opt.workload == "bootstrap", spans);
        else
            return usage("unknown workload");
    } catch (const std::exception &ex) {
        std::fprintf(stderr, "error: %s\n", ex.what());
        return 1;
    }

    if (opt.trace) {
        for (const auto &[layer, ms] : spans.selfTimeByLayer())
            std::fprintf(stderr, "[trace] self time %-26s %12.3f ms\n",
                         layer.c_str(), ms);
        if (!spans.writePerfetto(traceOut)) {
            std::fprintf(stderr, "error: cannot write %s\n",
                         traceOut.c_str());
            return 1;
        }
        std::fprintf(stderr, "[trace] %zu spans written to %s\n",
                     spans.size(), traceOut.c_str());
        for (const auto &[name, m] : o.endToEnd)
            std::fprintf(stderr, "[untraced phase] %-20s %14.4f %s\n",
                         name.c_str(), m.value, m.unit.c_str());
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    std::fprintf(stderr,
                 "[rusage] %ld minor page faults, %.2f s user, %.2f s "
                 "system\n",
                 ru.ru_minflt, ru.ru_utime.tv_sec + ru.ru_utime.tv_usec / 1e6,
                 ru.ru_stime.tv_sec + ru.ru_stime.tv_usec / 1e6);
    printResult(o, opt.trace ? o.layers : o.endToEnd);
    if (!o.correct) {
        std::fprintf(stderr, "error: %llu of %llu requests failed or "
                             "returned a wrong output\n",
                     static_cast<unsigned long long>(o.failed),
                     static_cast<unsigned long long>(o.attempted));
        return 1;
    }
    return 0;
}
