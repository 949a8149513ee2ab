/**
 * @file
 * Thread-local pooled scratch arena.
 *
 * The RNS hot paths (key-switching, basis extension, GSW products)
 * need short-lived n- and limb×n-sized working buffers on every call.
 * Allocating them with std::vector puts the allocator on the critical
 * path of every key-switch digit — exactly the software overhead that
 * statically managed accelerator scratchpads (F1 §4, FAB, BASALISC)
 * avoid. This arena caches buffers per thread and hands them out via
 * RAII handles, so a warmed-up steady state performs zero heap
 * allocations: the arena's heapAllocs counter stops growing while
 * checkouts keeps counting.
 *
 * Checkout discipline:
 *  - ScratchArena::u32(count) / ::i64(count) return a Handle<T> whose
 *    span() is a count-element buffer. The handle returns the buffer
 *    to the owning thread's pool on destruction (scope exit).
 *  - A handle must be released on the thread that checked it out.
 *    RAII scoping inside a parallelFor body satisfies this: pool
 *    worker threads each grow their own cache, which persists across
 *    batches (the software analogue of a vector cluster's register
 *    file and scratchpad staying resident).
 *  - Buffer contents are unspecified at checkout unless zeroed=true.
 *  - Handles may be moved (e.g. returned from a helper) but not
 *    copied; moving does not change the owning thread.
 *
 * Stats live in the process-wide metrics registry (obs/metrics.h),
 * aggregated over all threads: "scratch.checkouts" (u32()/i64()
 * calls), "scratch.heap_allocs" (blocks that hit the heap) and
 * "scratch.heap_words" (uint64 words heap-allocated) are counters;
 * "scratch.live" (handles outstanding) is a gauge, so a registry
 * reset() with a handle out does not unbalance it. When a profile
 * collector is installed (obs/profile.h), checkouts also feed the
 * per-job scratch high-water mark.
 */
#ifndef F1_COMMON_SCRATCH_H
#define F1_COMMON_SCRATCH_H

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace f1 {

namespace detail {

/** One pooled buffer; 8-byte-aligned storage tagged with a free bit. */
struct ScratchBlock
{
    std::vector<uint64_t> words;
    bool inUse = false;
};

ScratchBlock *scratchAcquire(size_t words);
void scratchRelease(ScratchBlock *block);

} // namespace detail

class ScratchArena
{
  public:
    /** RAII checkout of a count-element T buffer. */
    template <typename T> class Handle
    {
        static_assert(sizeof(T) <= sizeof(uint64_t) &&
                          alignof(T) <= alignof(uint64_t),
                      "scratch blocks are uint64-backed");

      public:
        Handle() = default;
        Handle(Handle &&o) noexcept
            : block_(o.block_), count_(o.count_)
        {
            o.block_ = nullptr;
            o.count_ = 0;
        }
        Handle &
        operator=(Handle &&o) noexcept
        {
            if (this != &o) {
                reset();
                block_ = o.block_;
                count_ = o.count_;
                o.block_ = nullptr;
                o.count_ = 0;
            }
            return *this;
        }
        Handle(const Handle &) = delete;
        Handle &operator=(const Handle &) = delete;
        ~Handle() { reset(); }

        T *
        data()
        {
            return reinterpret_cast<T *>(block_->words.data());
        }
        const T *
        data() const
        {
            return reinterpret_cast<const T *>(block_->words.data());
        }
        size_t size() const { return count_; }
        std::span<T> span() { return {data(), count_}; }
        std::span<const T> span() const { return {data(), count_}; }
        T &operator[](size_t i) { return data()[i]; }
        const T &operator[](size_t i) const { return data()[i]; }

        /** Returns the buffer to the pool early (idempotent). */
        void
        reset()
        {
            if (block_) {
                detail::scratchRelease(block_);
                block_ = nullptr;
                count_ = 0;
            }
        }

      private:
        friend class ScratchArena;
        Handle(detail::ScratchBlock *block, size_t count)
            : block_(block), count_(count)
        {
        }

        detail::ScratchBlock *block_ = nullptr;
        size_t count_ = 0;
    };

    static Handle<uint32_t> u32(size_t count, bool zeroed = false);
    static Handle<int64_t> i64(size_t count, bool zeroed = false);

    /**
     * Frees the calling thread's cached blocks (all must be checked
     * in). For tests that measure cold-path behaviour.
     */
    static void releaseThreadCache();
};

} // namespace f1

#endif // F1_COMMON_SCRATCH_H
