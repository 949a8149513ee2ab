#include "common/parallel.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <exception>
#include <limits>

#include "common/error.h"
#include "obs/profile.h"

namespace f1 {

namespace {

/** The group the calling thread is a member of (ParkGroup::Join). */
thread_local ParkGroup *t_group = nullptr;

/** Set by InlineParallelScope: parallelFor runs inline. */
thread_local bool t_inline = false;

void
runInline(size_t begin, size_t end,
          const std::function<void(size_t)> &body)
{
    for (size_t i = begin; i < end; ++i)
        body(i);
}

} // namespace

/**
 * One published loop, on its publisher's stack. Indices are claimed
 * from the atomic `next`; `helpers` counts the members draining it
 * besides the publisher, which waits on its own `drained` variable
 * (a shared one would let a retire's notify_one wake a publisher
 * instead of a parked member).
 */
struct ParkGroup::Loop
{
    Loop(const std::function<void(size_t)> &fn, size_t begin,
         size_t stop)
        : body(&fn), next(begin), end(stop),
          collector(obs::profileCollector())
    {
    }

    const std::function<void(size_t)> *body;
    std::atomic<size_t> next;
    const size_t end;
    /** The publisher's profile collector, installed on every helper
     *  for the loop's duration (see obs/profile.h). */
    obs::ProfileCollector *const collector;
    unsigned helpers = 0;          //!< under the group's mutex
    std::exception_ptr error;      //!< first failure, under the mutex
    std::condition_variable drained;

    /** Claims iterations until the range is exhausted; returns the
     *  first exception one of them threw. */
    std::exception_ptr
    drain()
    {
        obs::ProfileScope profScope(collector);
        std::exception_ptr err;
        for (;;) {
            const size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= end)
                return err;
            try {
                (*body)(i);
            } catch (...) {
                if (!err)
                    err = std::current_exception();
            }
        }
    }
};

bool
ParkGroup::helpOne(std::unique_lock<std::mutex> &lock)
{
    for (Loop *loop : open_) {
        if (loop->next.load(std::memory_order_relaxed) >= loop->end)
            continue;
        // Registered under the lock, so the publisher cannot return
        // (and free the loop) until this helper deregisters. A helper
        // is not parked while it works: its own nested loops, and
        // other members', publish only if someone else is.
        ++loop->helpers;
        parked_.fetch_sub(1, std::memory_order_relaxed);
        lock.unlock();
        std::exception_ptr err = loop->drain();
        lock.lock();
        parked_.fetch_add(1, std::memory_order_relaxed);
        if (err && !loop->error)
            loop->error = err;
        if (--loop->helpers == 0)
            loop->drained.notify_one();
        return true;
    }
    return false;
}

void
ParkGroup::run(size_t begin, size_t end,
               const std::function<void(size_t)> &body)
{
    // A busy group takes no lock: with nobody parked the loop runs
    // inline, exactly as the serial path.
    if (parked_.load(std::memory_order_relaxed) == 0)
        runInline(begin, end, body);
    else
        publish(begin, end, body);
}

void
ParkGroup::publish(size_t begin, size_t end,
                   const std::function<void(size_t)> &body)
{
    Loop loop(body, begin, end);
    {
        std::lock_guard<std::mutex> lock(mu_);
        open_.push_back(&loop);
    }
    // The publisher takes one iteration itself; wake a parked member
    // for each of the others.
    const size_t want = end - begin - 1;
    if (want >= parked_.load(std::memory_order_relaxed)) {
        sleepers_.notify_all();
    } else {
        for (size_t k = 0; k < want; ++k)
            sleepers_.notify_one();
    }
    std::exception_ptr err = loop.drain();
    {
        std::unique_lock<std::mutex> lock(mu_);
        open_.erase(std::find(open_.begin(), open_.end(), &loop));
        loop.drained.wait(lock, [&] { return loop.helpers == 0; });
        if (!err)
            err = loop.error;
    }
    if (err)
        std::rethrow_exception(err);
}

ParkGroup::Join::Join(ParkGroup &group) : prev_(t_group)
{
    t_group = &group;
}

ParkGroup::Join::~Join()
{
    t_group = prev_;
}

ThreadPool::ThreadPool(unsigned threads)
{
    F1_REQUIRE(threads >= 1, "thread pool needs at least one thread");
    workers_.reserve(threads - 1);
    for (unsigned i = 0; i + 1 < threads; ++i) {
        workers_.emplace_back([this] {
            ParkGroup::Join member(group_);
            std::unique_lock<std::mutex> lock(group_.mutex());
            group_.park(lock, [this] { return stop_; });
        });
    }
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(group_.mutex());
        stop_ = true;
    }
    group_.wakeAll();
    for (auto &w : workers_)
        w.join();
}

void
ThreadPool::run(size_t begin, size_t end,
                const std::function<void(size_t)> &body)
{
    if (workers_.empty() || end <= begin + 1) {
        runInline(begin, end, body);
        return;
    }
    // The caller is a member while it drains: its iterations' nested
    // calls go to the workers, and parallelWidth() reads 1 in them.
    ParkGroup::Join member(group_);
    group_.publish(begin, end, body);
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
    return t_inline || t_group != nullptr ? 1 : globalThreadCount();
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

InlineParallelScope::InlineParallelScope() : prev_(t_inline)
{
    t_inline = true;
}

InlineParallelScope::~InlineParallelScope()
{
    t_inline = prev_;
}

void
parallelFor(size_t begin, size_t end,
            const std::function<void(size_t)> &body)
{
    if (end <= begin)
        return;
    if (t_inline || end - begin == 1)
        runInline(begin, end, body);
    else if (t_group != nullptr)
        t_group->run(begin, end, body);
    else
        globalPool()->run(begin, end, body);
}

} // namespace f1
