/**
 * @file
 * Limb-parallel execution engine.
 *
 * F1 exploits the embarrassing parallelism of RNS: every residue
 * polynomial (limb) of a ciphertext is processed by an independent
 * vector unit (paper §2.3, §4). The software functional layer mirrors
 * that mapping with a process-wide thread pool: parallelForLimbs
 * dispatches one work unit per residue, parallelFor handles generic
 * index ranges (e.g. coefficient blocks in basis extension).
 *
 * Determinism contract: every work unit writes a disjoint output slice
 * and performs exact modular arithmetic, so results are bit-identical
 * to the serial path regardless of thread count or scheduling.
 * tests/test_parallel.cpp asserts it directly, and tests/test_runtime
 * asserts it for whole programs through the op-graph executor.
 *
 * Thread count resolution (see configuredThreadCount):
 *   1. explicit setGlobalThreadCount() call (bench sweeps, tests),
 *   2. F1_THREADS environment variable,
 *   3. std::thread::hardware_concurrency().
 * A count of 1 is the serial fallback: bodies run inline on the
 * calling thread with no pool hand-off, for deterministic debugging
 * under gdb/valgrind.
 */
#ifndef F1_COMMON_PARALLEL_H
#define F1_COMMON_PARALLEL_H

#include <cstddef>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

namespace f1 {

/**
 * Fixed-size pool of worker threads executing counted loops. The
 * calling thread participates in every loop, so a pool of T threads
 * uses T-1 workers. Nested calls (a body invoking run() again) execute
 * inline serially — per-limb bodies stay coarse and never deadlock.
 */
class ThreadPool
{
  public:
    /** @param threads total concurrency, including the caller (>= 1) */
    explicit ThreadPool(unsigned threads);
    ~ThreadPool();
    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    unsigned threads() const
    {
        return static_cast<unsigned>(workers_.size()) + 1;
    }

    /**
     * Runs body(i) for every i in [begin, end) and blocks until all
     * iterations complete. Iterations are claimed dynamically from a
     * shared counter. The first exception thrown by any iteration is
     * rethrown on the calling thread after the loop drains.
     */
    void run(size_t begin, size_t end,
             const std::function<void(size_t)> &body);

  private:
    struct State;
    void workerLoop();

    std::unique_ptr<State> state_;
    std::vector<std::thread> workers_;
};

/**
 * Strict F1_THREADS parser: optional leading whitespace, optional '+',
 * decimal digits, full-string consumption, value >= 1. Throws
 * FatalError on anything else — a malformed override must not
 * silently fall back to hardware concurrency on a benchmark run.
 * Exposed for tests.
 */
unsigned parseThreadCountEnv(const char *text);

/**
 * Resolved default: F1_THREADS override (validated by
 * parseThreadCountEnv; throws on malformed values), else hardware
 * concurrency.
 */
unsigned configuredThreadCount();

/** Total threads the global pool currently uses. */
unsigned globalThreadCount();

/**
 * Threads a parallelFor issued from the calling thread can occupy: 1
 * inside a pool body or an InlineParallelScope (both run inline), the
 * global pool's size otherwise. Size per-thread state by this, not by
 * globalThreadCount().
 */
unsigned parallelWidth();

/**
 * Resizes the global pool. n = 0 restores the configured default;
 * n = 1 selects the serial fallback. Safe concurrently with in-flight
 * parallelFor calls: each call holds a shared snapshot of the pool it
 * started on, and a retired pool is destroyed only after its last
 * in-flight batch drains.
 */
void setGlobalThreadCount(unsigned n);

/**
 * Runs body(i) for every i in [begin, end) on the global pool.
 * Serial (inline, in index order) when the pool has one thread, the
 * range has one element, or the caller is itself a pool worker.
 */
void parallelFor(size_t begin, size_t end,
                 const std::function<void(size_t)> &body);

/**
 * RAII guard that forces parallelFor calls issued from the current
 * thread (and anything it calls) to run inline, in index order, for
 * the guard's lifetime. The serving engine puts one guard on each
 * job worker: with W workers each executing one batch single-threaded,
 * concurrency comes entirely from batch-level parallelism and batches
 * never contend for the shared pool. Inline execution is the serial
 * path, so outputs are unchanged.
 */
class InlineParallelScope
{
  public:
    InlineParallelScope();
    ~InlineParallelScope();
    InlineParallelScope(const InlineParallelScope &) = delete;
    InlineParallelScope &operator=(const InlineParallelScope &) = delete;

  private:
    bool prev_;
};

/**
 * Per-limb dispatch over the residues of an RNS polynomial: body(limb)
 * for limb in [0, levels) — the software analogue of assigning residue
 * polynomials to F1's vector clusters.
 */
inline void
parallelForLimbs(size_t levels, const std::function<void(size_t)> &body)
{
    parallelFor(0, levels, body);
}

} // namespace f1

#endif // F1_COMMON_PARALLEL_H
