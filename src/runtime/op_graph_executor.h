/**
 * @file
 * DAG-parallel execution of DSL programs — the runtime layer between
 * the functional FHE simulator and the serving engine.
 *
 * F1 exploits parallelism below the program (limbs, lanes); this
 * executor adds the level above it: each HeOp's ciphertext operands
 * define a dependency DAG over the Program's op list, and independent
 * ops execute concurrently on the shared thread pool. The walk's
 * workers form a ParkGroup (common/parallel.h): an op's limb loops run
 * inline while every worker is busy and are published to the workers
 * that found nothing to claim otherwise, so wide op-level parallelism
 * narrows into per-limb parallelism without nested-pool deadlocks.
 *
 * One scheduler, one ready heap: workers pop the most urgent ready op
 * from a single priority heap under one mutex, run it, and on
 * retiring it push the consumers it readied; a worker that finds the
 * heap empty parks, helping the running ops' limb loops, and sleeps
 * only when none is open. No thread ever waits at a round barrier. When
 * ExecutionPolicy::scheduleHints carries the compiler's static
 * schedule, ready ops are prioritized critical-path-first
 * (cycle-scheduler issue order) with memory-scheduler liveness rank
 * as the tie-break — F1's §4.4 static schedule driving dynamic
 * execution. Without hints the priority is ascending handle.
 *
 * The serial walk is the same scheduler with one worker, and no
 * group: threadBudget = 1, a one-thread pool, or an
 * InlineParallelScope runs one op at a time in priority order (program
 * order for builder programs without hints). Under threadBudget = 1 on
 * a wider pool the limb loops inside each op still use the pool.
 *
 * Determinism contract: every homomorphic op is a pure function of
 * its operands (hint randomness is derived per identity — see
 * hintSeed — and encryption randomness comes from a per-run Rng
 * consumed in program order during the serial prepare phase), so
 * outputs are bit-identical for any thread count, threadBudget,
 * schedule hints, and concurrent-job interleaving.
 * tests/test_runtime.cpp asserts this.
 *
 * Construction rejects a program that does not fit the scheme's
 * context: a ring degree other than the context's, or an op whose
 * level lies outside [1, maxLevel] (pushRaw programs included). It
 * also rejects a malformed raw program, naming the op: a missing,
 * out-of-range or self operand, an operand that holds no ciphertext,
 * a plain op whose b is not an input_plain op, or a cycle.
 *
 * Liveness: the executor counts the consumers of every ciphertext
 * handle and releases each ciphertext after its last consumer
 * completes, instead of holding every intermediate until the program
 * ends. ExecutionResult::peakResidentCiphertexts reports the
 * high-water mark.
 *
 * Hoisting: under digit key switching, a ciphertext handle with two or
 * more rotate/conjugate consumers is decomposed once per member
 * (RlweScheme::hoistDecomposition), and every one of its Galois ops
 * reuses the digits instead of decomposing its own rotated copy, with
 * the same output words. The mark comes from the program graph alone.
 * The producer decomposes right after the ciphertext exists: inputs in
 * prepare (counted in prepareMs), op results inside executeOp, so the
 * producing op's span and profile time include the decomposition and
 * no consumer waits for it. The digits (L(L+1)N words) live on the
 * heap beside the member's ciphertext and are released with it.
 */
#ifndef F1_RUNTIME_OP_GRAPH_EXECUTOR_H
#define F1_RUNTIME_OP_GRAPH_EXECUTOR_H

#include <complex>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <variant>
#include <vector>

#include "common/lru_cache.h"
#include "compiler/compiler.h"
#include "compiler/program.h"
#include "fhe/bgv.h"
#include "fhe/ckks.h"
#include "obs/telemetry.h"

namespace f1 {

/**
 * Slot data bound to one input handle. The alternative encodes the
 * scheme's slot type — BGV binds integer slots, CKKS binds complex
 * slots — and whether the handle is an encrypted input (kInput) or a
 * plaintext operand (kInputPlain) is determined by the handle's op
 * kind, not the binding. A future third scheme (TFHE gate inputs,
 * ROADMAP item 5) adds a variant alternative here instead of another
 * pair of parallel maps.
 */
using InputBinding =
    std::variant<std::vector<uint64_t>,               // BGV slots
                 std::vector<std::complex<double>>>;  // CKKS slots

/**
 * Per-run inputs, keyed by DSL handle. Handles without supplied data
 * get deterministic pseudo-random values drawn from `seed`; `seed`
 * also drives encryption randomness, so a run's ciphertext bits are a
 * function of (program, inputs, seed) alone. Binding slot data of the
 * wrong scheme for the executing backend fails with a diagnostic at
 * prepare time.
 */
struct RuntimeInputs
{
    std::map<int, InputBinding> bindings;
    uint64_t seed = 0xdada;

    /** Correlation id stamped by the serving engine at submit
     *  (obs/trace.h); the executor carries it into op spans,
     *  flight-recorder events, and the ExecutionProfile so one job's
     *  artifacts share a key. Observability only — it NEVER affects
     *  outputs (the determinism contract stays (program, inputs,
     *  seed)). 0 = untraced. */
    uint64_t traceId = 0;

    void
    bind(int handle, std::vector<uint64_t> slots)
    {
        bindings[handle] = std::move(slots);
    }

    void
    bind(int handle, std::vector<std::complex<double>> slots)
    {
        bindings[handle] = std::move(slots);
    }
};

/**
 * Per-run results and scheduler statistics.
 *
 * Batched execution (executeBatch) returns one ExecutionResult per
 * batch member. outputs / encodingCache{Hits,Misses} / opsExecuted /
 * peakResidentCiphertexts are per member (identical to what a solo
 * run of that member reports, ciphertext-count-wise, because every
 * member walks the same graph); wallMs / maxWavefrontWidth / steals
 * describe the one shared traversal and repeat across members;
 * profile and trace, when enabled, are collected once for the whole
 * batch and shared by every member.
 */
struct ExecutionResult
{
    double wallMs = 0; //!< timed execute phase (prepare excluded)
    std::map<int, Ciphertext> outputs; //!< by DSL handle

    /** Non-source ops the scheduler ran (inputs are materialized by
     *  the prepare phase and not counted). */
    size_t opsExecuted = 0;

    /** Members fused into the traversal that produced this result
     *  (1 for execute()). */
    size_t batchSize = 1;

    /** High-water mark of simultaneously live ciphertexts PER MEMBER
     *  (inputs and intermediates; outputs are copied out and not
     *  counted). A batch holds batchSize times this many. */
    size_t peakResidentCiphertexts = 0;

    size_t maxWavefrontWidth = 0; //!< peak ops in flight

    /** Ops run by a worker other than the one whose retirement readied
     *  them (ops readied by the inputs never count); 0 for a
     *  one-worker walk. */
    size_t steals = 0;

    /** Plaintext-encoding cache traffic attributable to this run. */
    uint64_t encodingCacheHits = 0;
    uint64_t encodingCacheMisses = 0;

    /** Set iff ExecutionPolicy::telemetry.profile. */
    std::shared_ptr<const obs::ExecutionProfile> profile;

    /** Set iff ExecutionPolicy::telemetry.trace. */
    std::shared_ptr<const obs::Trace> trace;
};

/**
 * Content-addressed key for cached plaintext encodings: scheme/param
 * fingerprint plus a hash of the slot data. Content addressing (rather
 * than (program, handle) addressing) keeps the cache correct across
 * tenants that reuse a program shape with different constants.
 *
 * Both schemes cache the RnsPoly a plaintext op consumes: the slots
 * encoded and lifted to the consuming ciphertext's level. Its residues
 * are taken mod the context's primes, so paramsFp folds the scheme
 * tag, n and the ciphertext primes, and for BGV t. shapeFp folds the
 * level and, for CKKS, the encoding scale: the same slot data used at
 * two levels (or CKKS scales) occupies two entries. The scheme tag
 * keeps the two key spaces disjoint, so one shared cache serves mixed
 * traffic.
 */
struct EncodingKey
{
    uint64_t paramsFp = 0; //!< scheme tag, n, primes, BGV t
    uint64_t dataHash = 0; //!< content hash of the slot data
    uint64_t shapeFp = 0;  //!< level and CKKS encoding scale
    bool operator==(const EncodingKey &) const = default;
};

struct EncodingKeyHash
{
    size_t
    operator()(const EncodingKey &k) const
    {
        return static_cast<size_t>(k.paramsFp ^ k.dataHash ^
                                   (k.shapeFp * 0x9e3779b97f4a7c15ULL));
    }
};

/** Shared cache of lifted plaintext encodings for BOTH schemes (the
 *  serving engine owns one and passes it to every job). */
using EncodingCache = LruCache<EncodingKey, RnsPoly, EncodingKeyHash>;

/**
 * Everything that shapes one execution, in one struct — the runtime
 * API is (program, inputs, policy), nothing hides in setter state.
 *
 * scheduleHints must describe the same program the executor was built
 * for (size checked at execute()); nullptr runs hint-free with
 * ascending-handle priority. threadBudget caps the scheduler's worker
 * count (0 = parallelWidth(), i.e. the whole pool outside an
 * InlineParallelScope); 1 is the serial walk. encodingCache nullptr
 * means encode per run. telemetry turns on per-op tracing and/or a
 * per-run ExecutionProfile (both off by default; disabled runs pay
 * only thread-local null checks — see obs/telemetry.h).
 */
struct ExecutionPolicy
{
    const ScheduleHints *scheduleHints = nullptr;
    unsigned threadBudget = 0;
    EncodingCache *encodingCache = nullptr;
    obs::TelemetryOptions telemetry;
};

/**
 * Executes one Program against a scheme backend. The graph analysis
 * (dependents, in-degrees, consumer counts, cycle rejection) happens
 * once at construction; execute() is re-entrant
 * and holds all per-run state on the stack, so distinct jobs over the
 * same program may share one executor or build their own — both are
 * safe concurrently.
 */
class OpGraphExecutor
{
  public:
    OpGraphExecutor(const Program &prog, BgvScheme *bgv);
    OpGraphExecutor(const Program &prog, CkksScheme *ckks);

    /** The single-job entry point: runs `in` under `policy`.
     *  Equivalent to executeBatch with a one-element span. */
    ExecutionResult execute(const RuntimeInputs &in = {},
                            const ExecutionPolicy &policy = {}) const;

    /**
     * Fused execution of `inputs.size()` jobs of THIS program in one
     * graph traversal: each HeOp is dispatched once and executed
     * across every batch member before its operands are released, so
     * per-op overhead (ready-set pops, hint-cache probes, scheduling
     * bookkeeping, encoding-cache lookups) amortizes over the batch —
     * the serving engine's coalescer feeds identical-program jobs
     * here. Returns one ExecutionResult per member, in input order.
     *
     * Determinism: member i's outputs are bit-identical to a solo
     * execute(inputs[i], policy) — prepare() draws each member's
     * randomness from its own Rng(seed) in program order, and every
     * homomorphic op is a pure function of one member's operands, so
     * fusion shares scheduling and caches but never data.
     */
    std::vector<ExecutionResult>
    executeBatch(std::span<const RuntimeInputs> inputs,
                 const ExecutionPolicy &policy = {}) const;

  private:
    struct RunState;
    struct Member;

    void buildGraph();
    void prepare(const RuntimeInputs &in, RunState &st,
                 Member &m, bool first) const;
    std::shared_ptr<const RnsPoly>
    encodePlain(const InputBinding &slots, double scale, size_t level,
                RunState &st, Member &m) const;
    void executeOp(int h, RunState &st, Member &m) const;
    //! executeOp + telemetry
    void runOp(int h, RunState &st, Member &m) const;
    void runGraph(RunState &st, const ExecutionPolicy &policy) const;

    const Program &prog_;
    uint64_t fp_ = 0; //!< prog_.fingerprint(), cached for event hooks
    BgvScheme *bgv_ = nullptr;
    CkksScheme *ckks_ = nullptr;
    RlweScheme *rlwe_ = nullptr; //!< the scheme's RLWE core
    const SlotOrder *slotOrder_ = nullptr; //!< Galois elements
    uint64_t encodingFp_ = 0; //!< EncodingKey::paramsFp of this scheme

    // Graph structure, fixed per program.
    std::vector<std::vector<int>> dependents_; //!< ct-edge successors
    std::vector<int> indegree_;  //!< ct-operand count per op
    std::vector<int> consumers_; //!< ct uses of each op's result
    std::vector<bool> hoisted_;  //!< decomposed once for its Galois ops
    size_t workOps_ = 0;         //!< non-source ops, run per member
};

} // namespace f1

#endif // F1_RUNTIME_OP_GRAPH_EXECUTOR_H
