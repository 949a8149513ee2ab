#include "common/parallel.h"

#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <cstdlib>
#include <limits>
#include <mutex>

#include "common/error.h"
#include "obs/profile.h"

namespace f1 {

namespace {

/** Set while a thread executes loop bodies; nested runs go inline. */
thread_local bool t_inPool = false;

} // namespace

/**
 * Shared pool state. A loop is published by bumping `generation`;
 * workers claim indices from the atomic `next` counter and report
 * completion through `active`. One batch is in flight at a time (run()
 * holds the loop until it drains), matching the bulk-synchronous
 * per-limb dispatch pattern of the callers.
 */
struct ThreadPool::State
{
    std::mutex callers; //!< serializes concurrent external run() calls
    std::mutex m;
    std::condition_variable cvStart;
    std::condition_variable cvDone;
    uint64_t generation = 0;
    bool stop = false;

    const std::function<void(size_t)> *body = nullptr;
    std::atomic<size_t> next{0};
    size_t end = 0;
    unsigned active = 0; //!< workers still draining the current batch
    std::exception_ptr error;

    /**
     * The dispatching thread's profile collector, inherited by every
     * worker for the batch's duration so per-limb work nested inside
     * a profiled job is attributed to that job even on pool threads
     * (see obs/profile.h). One TLS store per batch when profiling is
     * off — not per iteration.
     */
    obs::ProfileCollector *collector = nullptr;

    /** Claims indices until the range drains; records one exception. */
    void
    drain()
    {
        obs::ProfileScope profScope(collector);
        const auto &fn = *body;
        for (;;) {
            const size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= end)
                return;
            try {
                fn(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(m);
                if (!error)
                    error = std::current_exception();
            }
        }
    }
};

ThreadPool::ThreadPool(unsigned threads) : state_(new State)
{
    F1_REQUIRE(threads >= 1, "thread pool needs at least one thread");
    workers_.reserve(threads - 1);
    for (unsigned i = 0; i + 1 < threads; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(state_->m);
        state_->stop = true;
    }
    state_->cvStart.notify_all();
    for (auto &w : workers_)
        w.join();
}

void
ThreadPool::workerLoop()
{
    t_inPool = true;
    State &st = *state_;
    uint64_t seen = 0;
    for (;;) {
        {
            std::unique_lock<std::mutex> lock(st.m);
            st.cvStart.wait(lock, [&] {
                return st.stop || st.generation != seen;
            });
            if (st.stop)
                return;
            seen = st.generation;
        }
        st.drain();
        {
            std::lock_guard<std::mutex> lock(st.m);
            if (--st.active == 0)
                st.cvDone.notify_all();
        }
    }
}

void
ThreadPool::run(size_t begin, size_t end,
                const std::function<void(size_t)> &body)
{
    if (end <= begin)
        return;
    // Serial fallback: no workers, a single iteration, or a nested
    // call from inside a pool thread all run inline, in index order.
    if (workers_.empty() || end - begin == 1 || t_inPool) {
        for (size_t i = begin; i < end; ++i)
            body(i);
        return;
    }

    State &st = *state_;
    // One external batch at a time: a second application thread
    // calling in while workers drain would otherwise clobber the
    // shared batch state. Held until the batch fully drains.
    std::lock_guard<std::mutex> callerLock(st.callers);
    {
        std::lock_guard<std::mutex> lock(st.m);
        st.body = &body;
        st.next.store(begin, std::memory_order_relaxed);
        st.end = end;
        st.active = static_cast<unsigned>(workers_.size());
        st.error = nullptr;
        st.collector = obs::profileCollector();
        ++st.generation;
    }
    st.cvStart.notify_all();

    // The calling thread participates; mark it as in-pool so bodies
    // that recurse into parallelFor stay serial.
    t_inPool = true;
    st.drain();
    t_inPool = false;

    // st.body points at the caller's stack frame; it must be nulled
    // before run() returns on EVERY path — including an exception out
    // of cvDone.wait and the body-exception rethrow below — or a
    // later batch could chase a pointer into a dead frame.
    std::exception_ptr err;
    {
        std::unique_lock<std::mutex> lock(st.m);
        try {
            st.cvDone.wait(lock, [&] { return st.active == 0; });
        } catch (...) {
            st.body = nullptr;
            throw;
        }
        st.body = nullptr;
        err = st.error;
        st.error = nullptr;
    }
    if (err)
        std::rethrow_exception(err);
}

unsigned
parseThreadCountEnv(const char *text)
{
    // Accepted grammar (documented in README.md): optional leading
    // whitespace, an optional '+', then decimal digits; the whole
    // string must be consumed and the value must be >= 1. Anything
    // else ("", "0", "-3", "8x", "2 4") is an operator typo that must
    // not silently fall back to hardware concurrency.
    F1_REQUIRE(text != nullptr, "F1_THREADS: null value");
    char *end = nullptr;
    errno = 0;
    const long long v = std::strtoll(text, &end, 10);
    const bool consumed = end != text && *end == '\0';
    F1_REQUIRE(consumed && errno != ERANGE && v >= 1 &&
                   v <= std::numeric_limits<unsigned>::max(),
               "F1_THREADS must be a positive decimal integer, got \""
               << text << "\"");
    return static_cast<unsigned>(v);
}

unsigned
configuredThreadCount()
{
    if (const char *env = std::getenv("F1_THREADS"))
        return parseThreadCountEnv(env);
    const unsigned hw = std::thread::hardware_concurrency();
    return hw >= 1 ? hw : 1;
}

namespace {

std::mutex g_poolMutex;
std::shared_ptr<ThreadPool> g_pool;

/**
 * Snapshot of the global pool. Callers hold the shared_ptr across
 * run(), so a concurrent setGlobalThreadCount() cannot destroy a pool
 * with batches in flight: the replacement only swaps the global slot,
 * and the retired pool is destroyed (joining its workers) when the
 * last in-flight caller drops its snapshot.
 */
std::shared_ptr<ThreadPool>
globalPool()
{
    std::lock_guard<std::mutex> lock(g_poolMutex);
    if (!g_pool)
        g_pool = std::make_shared<ThreadPool>(configuredThreadCount());
    return g_pool;
}

} // namespace

unsigned
globalThreadCount()
{
    return globalPool()->threads();
}

unsigned
parallelWidth()
{
    return t_inPool ? 1 : globalThreadCount();
}

void
setGlobalThreadCount(unsigned n)
{
    const unsigned want = n == 0 ? configuredThreadCount() : n;
    std::shared_ptr<ThreadPool> retired;
    {
        std::lock_guard<std::mutex> lock(g_poolMutex);
        if (g_pool && g_pool->threads() == want)
            return;
        retired = std::move(g_pool);
        g_pool = std::make_shared<ThreadPool>(want);
    }
    // `retired` goes out of scope here, outside g_poolMutex. If other
    // threads are mid-parallelFor on the old pool they share ownership
    // and the destructor (which joins the workers) runs only after the
    // last of them finishes its batch.
}

InlineParallelScope::InlineParallelScope() : prev_(t_inPool)
{
    // Reuses the pool's own nested-call mechanism: a thread flagged as
    // in-pool always takes the inline path in ThreadPool::run.
    t_inPool = true;
}

InlineParallelScope::~InlineParallelScope()
{
    t_inPool = prev_;
}

void
parallelFor(size_t begin, size_t end,
            const std::function<void(size_t)> &body)
{
    globalPool()->run(begin, end, body);
}

} // namespace f1
