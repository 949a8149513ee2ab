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
 * Groups: threads that share one mutex and wait on it together form a
 * ParkGroup. A member that waits parks through the group, and while
 * parked it runs iterations of loops other members publish. The pool's
 * workers are one group (members with no work of their own); the
 * executor's walk makes its workers another, so the limb loops of an
 * op that runs alone spread over the workers with nothing to claim.
 *
 * Where a parallelFor runs, by calling thread:
 *   - inside an InlineParallelScope: inline, in index order, always;
 *   - a group member: published to its group when some member is
 *     parked (one relaxed atomic read decides), inline otherwise;
 *   - any other thread: published to the global pool's workers.
 * A publisher runs its own loop's iterations and then waits only for
 * the iterations helpers already claimed. Only a parked thread claims
 * another member's iterations, so no thread waits on a thread that
 * waits on it, and a helped iteration may publish in turn.
 *
 * Determinism contract: every work unit writes a disjoint output slice
 * and performs exact modular arithmetic, so results are bit-identical
 * to the serial path regardless of thread count, helpers or
 * scheduling. tests/test_parallel.cpp asserts it directly, and
 * tests/test_runtime asserts it for whole programs through the
 * op-graph executor.
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

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace f1 {

/**
 * Threads that share one mutex park together and help each other's
 * loops: the one publish/claim/park protocol under both the thread
 * pool and the executor's walk.
 *
 * The owner guards its own state with mutex() and waits for it with
 * park(); a member's parallelFor issued while another member is
 * parked is published here, and the parked members run its iterations
 * before they go back to waiting. Helpers run iterations under the
 * publisher's ProfileCollector (obs/profile.h), so per-job counts stay
 * exact. The first exception an iteration throws is rethrown on the
 * publisher after its loop drains.
 */
class ParkGroup
{
  public:
    ParkGroup() = default;
    ParkGroup(const ParkGroup &) = delete;
    ParkGroup &operator=(const ParkGroup &) = delete;

    /** Guards the owner's state that park() predicates read. */
    std::mutex &mutex() { return mu_; }

    /**
     * Waits until ready() holds; `lock` holds mutex() on entry and on
     * return. While waiting it runs iterations of any open loop,
     * dropping the lock around them, and sleeps only when no loop is
     * open.
     */
    template <typename Ready>
    void
    park(std::unique_lock<std::mutex> &lock, Ready ready)
    {
        if (ready())
            return;
        parked_.fetch_add(1, std::memory_order_relaxed);
        do {
            if (!helpOne(lock))
                sleepers_.wait(lock);
        } while (!ready());
        parked_.fetch_sub(1, std::memory_order_relaxed);
    }

    /** Wake parked members after a change that may make their ready()
     *  hold. Publishers waiting for helpers are never woken here. */
    void wakeOne() { sleepers_.notify_one(); }
    void wakeAll() { sleepers_.notify_all(); }

    /**
     * A member's loop: runs body(i) for every i in [begin, end),
     * published when some member is parked and inline, in index
     * order, otherwise.
     */
    void run(size_t begin, size_t end,
             const std::function<void(size_t)> &body);

    /**
     * Publishes the loop whether or not a member is parked (the
     * pool's path for callers outside the group), runs its
     * iterations on the calling thread, and waits for the ones
     * helpers claimed.
     */
    void publish(size_t begin, size_t end,
                 const std::function<void(size_t)> &body);

    /**
     * RAII membership: for the guard's lifetime the calling thread's
     * parallelFor calls go to this group, and parallelWidth() reads 1.
     */
    class Join
    {
      public:
        explicit Join(ParkGroup &group);
        ~Join();
        Join(const Join &) = delete;
        Join &operator=(const Join &) = delete;

      private:
        ParkGroup *prev_;
    };

  private:
    struct Loop;

    /** Drains the first open loop with unclaimed iterations, without
     *  the lock; false if there is none. */
    bool helpOne(std::unique_lock<std::mutex> &lock);

    std::mutex mu_;
    std::condition_variable sleepers_; //!< parked members only
    std::atomic<unsigned> parked_{0};  //!< members waiting in park()
    std::vector<Loop *> open_;         //!< published loops, under mu_
};

/**
 * Fixed-size pool of worker threads executing counted loops: a
 * ParkGroup whose workers park with no work of their own. The calling
 * thread participates in every loop, so a pool of T threads uses T-1
 * workers. A body's nested parallelFor is published to the same
 * workers when one of them is parked and runs inline otherwise.
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
     * shared counter; the caller waits only for the workers that
     * claimed one. The first exception thrown by any iteration is
     * rethrown on the calling thread after the loop drains.
     */
    void run(size_t begin, size_t end,
             const std::function<void(size_t)> &body);

  private:
    ParkGroup group_;
    bool stop_ = false; //!< under group_.mutex()
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
 * Threads the calling thread may size its own concurrency by: 1 in a
 * group member (a pool body, an executor walk worker) or an
 * InlineParallelScope, the global pool's size otherwise. A walk
 * started in a member therefore runs with one worker instead of
 * sizing itself to the whole pool. Size per-thread state by this, not
 * by globalThreadCount().
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
 * Runs body(i) for every i in [begin, end): inline, in index order,
 * under an InlineParallelScope or for a one-element range; on the
 * calling member's group (ParkGroup::run) in a member; on the global
 * pool otherwise, which runs inline when it has one thread.
 */
void parallelFor(size_t begin, size_t end,
                 const std::function<void(size_t)> &body);

/**
 * RAII guard that forces parallelFor calls issued from the current
 * thread (and anything it calls) to run inline, in index order, for
 * the guard's lifetime, in a group member too. The serving engine
 * puts one guard on each job worker: with W workers each executing one
 * batch single-threaded, concurrency comes entirely from batch-level
 * parallelism and batches never contend for the shared pool. Inline
 * execution is the serial path, so outputs are unchanged.
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
