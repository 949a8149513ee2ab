/**
 * @file
 * The benchmark's four workloads and the helpers they share. Every
 * workload runs in one process: set-up (timed several times), an
 * inline serial reference run per distinct input, a timed phase
 * whose every output is compared bit for bit with its reference, and
 * a timed compile phase. The traced run (--trace 1) repeats the timed
 * phase with spans on and adds the per-layer sweeps.
 */
#ifndef F1_PERFBENCH_WORKLOADS_H
#define F1_PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/time_util.h"
#include "compiler/compiler.h"
#include "fhe/bgv.h"
#include "fhe/ckks.h"
#include "util.h"

namespace f1::perfbench {

struct Options
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 10;
    bool trace = false;
};

struct Outcome
{
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0; //!< failed + shed + wrong output
    Metrics endToEnd;    //!< printed by untraced runs
    Metrics layers;      //!< printed by traced runs
};

/** serve / offline; spans are recorded only when opt.trace is set. */
Outcome runServing(const Options &opt, bool offline,
                   SpanRecorder &spans);

/** lola / bootstrap. */
Outcome runProgram(const Options &opt, bool bootstrap,
                   SpanRecorder &spans);

/**
 * Set-ups per run: kSetupsBefore before the timed phase (the last one
 * serves it; the ones before it warm the process up) and, once it is
 * torn down, at least kSetupsAfter more and at least kSetupsAfterMs
 * of them. The first set-ups of a process run cold and take longer
 * than the rest, so the later ones outnumber them
 * and setup_s, the median, is a warm set-up's time rather than
 * whichever side of that divide the middle sample fell on.
 */
constexpr int kSetupsBefore = 3;
constexpr int kSetupsAfter = 8;
constexpr double kSetupsAfterMs = 1000;

/**
 * Runs `deploy` inline (on this thread) and appends its duration in
 * seconds to `seconds`. Inline, setup_s is the set-up's work: on the
 * pool, hint generation at these sizes is mostly per-limb dispatch,
 * whose cost (waking idle cores) swung 3x with the host's load. Keys
 * and hints are the same either way.
 */
template <class Deploy>
auto
timedSetUp(Deploy &&deploy, std::vector<double> &seconds)
{
    InlineParallelScope inlineScope;
    const double t0 = steadyNowMs();
    auto d = deploy();
    seconds.push_back((steadyNowMs() - t0) / 1000.0);
    return d;
}

/** The remaining set-ups after the run's deployment is gone; writes
 *  setup_s and prints a summary of the set-up times to stderr. */
template <class Deploy>
void
finishSetUps(Deploy &&deploy, std::vector<double> &seconds, Metrics &out)
{
    const double t0 = steadyNowMs();
    for (int i = 0;
         i < kSetupsAfter || steadyNowMs() - t0 < kSetupsAfterMs; ++i)
        timedSetUp(deploy, seconds);
    out["setup_s"] = {median(seconds), "s"};
    std::fprintf(stderr,
                 "[setup] %zu set-ups: first (cold) %.4f s, median %.4f "
                 "s, slowest %.4f s\n",
                 seconds.size(), seconds.front(), median(seconds),
                 quantile(seconds, 1.0));
}

/**
 * Generates every key-switch hint `prog` uses through the scheme's
 * public accessors: the key generation a cold first request would
 * otherwise pay inside its prepare phase.
 */
template <class Scheme>
void
warmHints(const Program &prog, Scheme &scheme)
{
    const SlotOrder &order = scheme.encoder().slotOrder();
    for (const HeOp &op : prog.ops()) {
        if (op.kind == HeOpKind::kMul)
            scheme.relinHint(op.level);
        else if (op.kind == HeOpKind::kRotate)
            scheme.galoisHint(order.rotationGalois(op.rotateBy),
                              op.level);
        else if (op.kind == HeOpKind::kConjugate)
            scheme.galoisHint(order.conjugationGalois(), op.level);
    }
}

bool sameCiphertext(const Ciphertext &a, const Ciphertext &b);

/**
 * True when a BGV output still decrypts: its measured noise (from the
 * decryption phase) leaves a positive budget below log2 Q. The
 * scheme's tracked estimate, noiseBudgetBits(), is printed beside it;
 * it over-counts chains of mod-switch and square (bootstrap's output
 * reads about -1800 bits tracked against about +280 measured), so it
 * is reported, not required.
 */
bool checkNoiseBudget(const BgvScheme &bgv, const Ciphertext &ct,
                      const char *what);

/**
 * The timed compile phase, spread over a workload's timed phase in
 * `slices` slices of `sliceMs` each, each slice pinned to the next of
 * the process's cores in turn. compile_ms is the mean over slices of
 * each slice's median compileProgram time at the default F1Config;
 * f1_sim_ms is the schedule's simulated time.
 *
 * On a shared host each core is, for seconds at a time, either fast
 * or about 1.4x slower, and a thread left to the scheduler stays on
 * one core: its slices then came in long runs of one speed, and a
 * median over them jumped between the two. Rotating the cores makes
 * the slices independent draws, and a mean moves smoothly with the
 * share of slow ones.
 */
class CompileSampler
{
  public:
    CompileSampler(const Program &prog, double phaseMs, size_t slices,
                   double sliceMs);

    /** Runs every slice due by `elapsedMs` into the timed phase. */
    void catchUp(double elapsedMs);

    /** Runs the slices still due and writes compile_ms, f1_sim_ms. */
    void finish(Metrics &out);

  private:
    void slice();

    const Program &prog_;
    const double phaseMs_;
    const size_t slices_;
    const double sliceMs_;
    std::vector<int> cpus_;       //!< cores the process may run on
    std::vector<double> medians_; //!< median compile time per slice
    double simMs_ = 0;
};

/** Timed-phase results shared by all workloads' end-to-end tables. */
void latencyMetrics(const std::vector<double> &latMs, Metrics &out);

} // namespace f1::perfbench

#endif // F1_PERFBENCH_WORKLOADS_H
