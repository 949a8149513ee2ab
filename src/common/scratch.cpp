#include "common/scratch.h"

#include <algorithm>
#include <memory>

#include "common/error.h"
#include "obs/metrics.h"
#include "obs/profile.h"

namespace f1 {

namespace {

/**
 * Per-thread block cache. Blocks are held by unique_ptr so their
 * addresses stay stable while the vector grows; handles keep raw
 * ScratchBlock pointers across checkout/release.
 */
struct ThreadCache
{
    std::vector<std::unique_ptr<detail::ScratchBlock>> blocks;
};

thread_local ThreadCache t_cache;

/**
 * The arena's process-wide metrics ("scratch.*" — see README's metrics
 * catalog). Resolved once: an update is one relaxed atomic op.
 */
struct ScratchMetrics
{
    obs::Counter &checkouts;
    obs::Counter &heapAllocs;
    obs::Counter &heapWords;
    obs::Gauge &live;

    static ScratchMetrics &
    get()
    {
        auto &reg = obs::MetricsRegistry::global();
        static ScratchMetrics m{
            reg.counter("scratch.checkouts"),
            reg.counter("scratch.heap_allocs"),
            reg.counter("scratch.heap_words"),
            reg.gauge("scratch.live"),
        };
        return m;
    }
};

/** Capacities are rounded up to quarter octaves (8, 10, 12, 14, 16,
 *  20, 24, ... words) so the handful of distinct request sizes per
 *  workload (n, limb×n, l) converge on a small set of reusable blocks
 *  while a block exceeds its request by less than a quarter: the
 *  digit key switch's L(L+1)N-word decomposition and (L+1)N-word
 *  accumulators fit exactly at L = 4. */
size_t
roundCapacity(size_t words)
{
    size_t octave = 8;
    while (octave * 2 <= words)
        octave <<= 1;
    const size_t step = octave / 4;
    return std::max(octave, (words + step - 1) / step * step);
}

} // namespace

namespace detail {

ScratchBlock *
scratchAcquire(size_t words)
{
    ScratchMetrics &ctr = ScratchMetrics::get();
    ctr.checkouts.inc();
    ctr.live.add();

    // Best fit among free blocks: smallest capacity that still holds
    // the request, so an n-sized checkout does not pin a limb×n block.
    ScratchBlock *best = nullptr;
    for (auto &b : t_cache.blocks) {
        if (!b->inUse && b->words.size() >= words &&
            (!best || b->words.size() < best->words.size()))
            best = b.get();
    }
    if (!best) {
        const size_t cap = roundCapacity(words);
        auto fresh = std::make_unique<ScratchBlock>();
        fresh->words.resize(cap);
        best = fresh.get();
        t_cache.blocks.push_back(std::move(fresh));
        ctr.heapAllocs.inc();
        ctr.heapWords.inc(cap);
    }
    best->inUse = true;
    // Per-job scratch high-water: attributed to the active profile
    // collector (if any) by block capacity, the footprint that
    // actually bounds memory.
    obs::profileScratchAcquire(
        static_cast<int64_t>(best->words.size()));
    return best;
}

void
scratchRelease(ScratchBlock *block)
{
    block->inUse = false;
    obs::profileScratchRelease(
        static_cast<int64_t>(block->words.size()));
    ScratchMetrics::get().live.sub();
}

} // namespace detail

ScratchArena::Handle<uint32_t>
ScratchArena::u32(size_t count, bool zeroed)
{
    auto *block = detail::scratchAcquire((count + 1) / 2);
    Handle<uint32_t> h(block, count);
    if (zeroed)
        std::fill_n(h.data(), count, 0u);
    return h;
}

ScratchArena::Handle<int64_t>
ScratchArena::i64(size_t count, bool zeroed)
{
    auto *block = detail::scratchAcquire(count);
    Handle<int64_t> h(block, count);
    if (zeroed)
        std::fill_n(h.data(), count, int64_t{0});
    return h;
}

void
ScratchArena::releaseThreadCache()
{
    for (const auto &b : t_cache.blocks)
        F1_CHECK(!b->inUse,
                 "releaseThreadCache with a handle still outstanding");
    t_cache.blocks.clear();
}

} // namespace f1
