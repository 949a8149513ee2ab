/**
 * @file
 * Per-layer sweeps of the traced run. Each one times the benchmark's
 * own calls into one layer's public functions at a workload's
 * parameters, inside a span named after the layer:
 *
 *  - fhe: every scheme call a program op makes, plus encrypt,
 *    decrypt, KeySwitcher::apply, BasisExtender::extend and
 *    first-use hint generation, at the workload's (N, L, key-switch
 *    variant). Timed inline (single thread), so the sum over a
 *    program's ops is its serial work.
 *  - poly: one-limb NTTs, an all-limb RnsPoly::toNtt, an automorphism.
 *  - modular: a Shoup multiply per element over one limb.
 *  - common.parallel: an empty parallelFor over L items on the pool.
 *  - compiler: the four compileProgram phases, one at a time.
 *
 * The fhe and poly rows are printed beside the cycle scheduler's time
 * for a one-op program at the same (N, L) and, where the HEAX model
 * has one, HEAX-sigma's time.
 */
#ifndef F1_PERFBENCH_LAYERS_H
#define F1_PERFBENCH_LAYERS_H

#include <map>

#include "compiler/program.h"
#include "fhe/bgv.h"
#include "fhe/ckks.h"
#include "util.h"

namespace f1::perfbench {

/** Inline time of one op call, in microseconds, by (kind, level of
 *  its operands). */
using OpCosts = std::map<std::pair<HeOpKind, uint32_t>, double>;

/** Runs the fhe, poly, modular and common.parallel sweeps on the
 *  scheme under test (exactly one of bgv/ckks is non-null). Fills
 *  `out` and returns the cost of every (kind, level) `prog` uses. */
OpCosts sweepKernels(const FheContext &ctx, BgvScheme *bgv,
                     CkksScheme *ckks, const Program &prog,
                     SpanRecorder &spans, Metrics &out);

/** Times the compiler's phases on `prog` and reads the schedule's
 *  instruction, traffic and utilization counts. */
void sweepCompiler(const Program &prog, SpanRecorder &spans,
                   Metrics &out);

/** Serial work of one run of `prog`: the sum over its ops of the
 *  swept cost of each op's (kind, level), in ms. */
double opSumMs(const Program &prog, const OpCosts &costs);

} // namespace f1::perfbench

#endif // F1_PERFBENCH_LAYERS_H
