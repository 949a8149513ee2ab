/**
 * @file
 * Tests for the pooled scratch arena: checkout/reuse semantics, RAII
 * release, move handling, quarter-octave block capacities,
 * worker-thread caches, and the steady-state contract on the
 * key-switching hot path — after warm-up, apply() performs zero heap
 * allocations.
 */
#include <gtest/gtest.h>

#include <utility>

#include "common/parallel.h"
#include "common/scratch.h"
#include "fhe/fhe_context.h"
#include "fhe/keyswitch.h"
#include "obs/metrics.h"
#include "poly/rns_poly.h"

namespace f1 {
namespace {

// The arena's registry metrics (obs/metrics.h), read by name; tests
// compare values before and after the work they measure.
uint64_t
checkouts()
{
    return obs::MetricsRegistry::global()
        .counter("scratch.checkouts")
        .value();
}

uint64_t
heapAllocs()
{
    return obs::MetricsRegistry::global()
        .counter("scratch.heap_allocs")
        .value();
}

uint64_t
heapWords()
{
    return obs::MetricsRegistry::global()
        .counter("scratch.heap_words")
        .value();
}

uint64_t
live()
{
    return obs::MetricsRegistry::global().gauge("scratch.live").value();
}

TEST(Scratch, CheckoutReleasesAndReusesBlocks)
{
    ScratchArena::releaseThreadCache();
    const uint64_t live0 = live();
    const uint64_t allocs0 = heapAllocs();
    const uint64_t checkouts0 = checkouts();
    {
        auto h = ScratchArena::u32(1000);
        for (size_t i = 0; i < h.size(); ++i)
            h[i] = static_cast<uint32_t>(i);
        EXPECT_EQ(live(), live0 + 1);
    }
    EXPECT_EQ(live(), live0);
    const uint64_t coldAllocs = heapAllocs() - allocs0;
    EXPECT_GE(coldAllocs, 1u);

    // Same-size re-checkout must come from the cache, not the heap.
    for (int i = 0; i < 100; ++i) {
        auto h = ScratchArena::u32(1000);
        h[0] = 1;
    }
    EXPECT_EQ(heapAllocs() - allocs0, coldAllocs);
    EXPECT_EQ(checkouts() - checkouts0, 101u);
}

TEST(Scratch, ZeroedCheckoutClearsPreviousContents)
{
    ScratchArena::releaseThreadCache();
    {
        auto h = ScratchArena::u32(64);
        for (auto &x : h.span())
            x = 0xdeadbeef;
    }
    auto h = ScratchArena::u32(64, /*zeroed=*/true);
    for (uint32_t x : h.span())
        EXPECT_EQ(x, 0u);
    auto g = ScratchArena::i64(64, /*zeroed=*/true);
    for (int64_t x : g.span())
        EXPECT_EQ(x, 0);
}

TEST(Scratch, ConcurrentHandlesGetDistinctBuffers)
{
    auto a = ScratchArena::u32(256);
    auto b = ScratchArena::u32(256);
    EXPECT_NE(a.data(), b.data());
    for (size_t i = 0; i < 256; ++i) {
        a[i] = 1;
        b[i] = 2;
    }
    for (size_t i = 0; i < 256; ++i) {
        EXPECT_EQ(a[i], 1u);
        EXPECT_EQ(b[i], 2u);
    }
}

TEST(Scratch, MoveTransfersOwnership)
{
    ScratchArena::releaseThreadCache();
    const uint64_t live0 = live();
    auto a = ScratchArena::u32(128);
    uint32_t *p = a.data();
    ScratchArena::Handle<uint32_t> b = std::move(a);
    EXPECT_EQ(b.data(), p);
    EXPECT_EQ(b.size(), 128u);
    EXPECT_EQ(live(), live0 + 1);
    b.reset();
    EXPECT_EQ(live(), live0);
    b.reset(); // idempotent
    EXPECT_EQ(live(), live0);
}

TEST(Scratch, BestFitPrefersSmallestSufficientBlock)
{
    ScratchArena::releaseThreadCache();
    {
        // Hold the big block while the small one is first allocated,
        // so the cache ends up with two distinct size classes.
        auto big = ScratchArena::u32(1 << 14);
        auto small = ScratchArena::u32(64);
        (void)big;
        (void)small;
    }
    const uint64_t allocs0 = heapAllocs();
    // A small request must not pin the big block.
    auto s = ScratchArena::u32(60);
    auto b = ScratchArena::u32(1 << 14);
    EXPECT_EQ(heapAllocs() - allocs0, 0u)
        << "both requests should have been served from the cache";
    (void)s;
    (void)b;
}

TEST(Scratch, CapacityRoundsToQuarterOctaves)
{
    // The digit key switch's decomposition at N = 8192, L = 4 is
    // L(L+1)N u32 words, 81,920 arena words = 1.25 x 2^16: its block
    // is exactly that large, not the next power of two.
    ScratchArena::releaseThreadCache();
    const uint64_t words0 = heapWords();
    {
        auto decomposition = ScratchArena::i64(81920);
        EXPECT_EQ(heapWords() - words0, 81920u);
    }
    // One word more takes the next quarter octave (1.5 x 2^16), and
    // small requests step by a quarter of their octave too.
    ScratchArena::releaseThreadCache();
    const uint64_t words1 = heapWords();
    {
        auto above = ScratchArena::i64(81921);
        auto small = ScratchArena::i64(9);
        EXPECT_EQ(heapWords() - words1, 98304u + 10u);
    }
}

TEST(Scratch, WorkerThreadsKeepTheirOwnCaches)
{
    setGlobalThreadCount(4);
    // Warm every worker's cache, then verify the second sweep is
    // allocation-free: each worker reuses its own resident block.
    auto sweep = [] {
        parallelFor(0, 64, [&](size_t) {
            auto h = ScratchArena::u32(512);
            h[0] = 1;
        });
    };
    // Each thread cold-allocates at most one block for this size
    // class, ever — so 20 sweeps x 64 checkouts may hit the heap at
    // most threads() times, no matter how iterations are claimed.
    const uint64_t live0 = live();
    const uint64_t allocs0 = heapAllocs();
    const uint64_t checkouts0 = checkouts();
    constexpr int kSweeps = 20;
    for (int i = 0; i < kSweeps; ++i)
        sweep();
    EXPECT_EQ(checkouts() - checkouts0, uint64_t{kSweeps} * 64);
    EXPECT_LE(heapAllocs() - allocs0, uint64_t{globalThreadCount()});
    EXPECT_EQ(live(), live0);
    setGlobalThreadCount(0);
}

class ScratchKeySwitchTest : public ::testing::Test
{
  protected:
    static FheParams
    params()
    {
        FheParams p;
        p.n = 128;
        p.maxLevel = 4;
        p.auxCount = 4;
        p.primeBits = 28;
        p.plainModulus = 257;
        return p;
    }

    ScratchKeySwitchTest() : ctx(params()), sw(&ctx) {}

    FheContext ctx;
    KeySwitcher sw;
};

TEST_F(ScratchKeySwitchTest, ApplyIsAllocationFreeOnceWarm)
{
    // The acceptance bar of this PR: steady-state key-switching
    // checks out every temporary from the arena — heap allocations
    // per apply() drop to zero after warm-up, for both variants.
    setGlobalThreadCount(1); // one thread == one deterministic cache
    for (auto variant : {KeySwitchVariant::kDigitLxL,
                         KeySwitchVariant::kGhsExtension}) {
        Rng rng(7);
        SecretKey sk = sw.keyGen(rng);
        auto w = sk.s.mul(sk.s);
        auto hint = sw.makeHint(w, sk, 4, 257, variant, rng);
        auto x = RnsPoly::uniform(ctx.polyContext(), 4, rng);

        auto warm = sw.apply(x, hint, 257);
        auto warm2 = sw.apply(x, hint, 257);
        const uint64_t live0 = live();
        const uint64_t allocs0 = heapAllocs();
        const uint64_t checkouts0 = checkouts();
        constexpr int kApplies = 4;
        for (int i = 0; i < kApplies; ++i) {
            auto out = sw.apply(x, hint, 257);
            EXPECT_EQ(out.first.raw(), warm.first.raw());
            EXPECT_EQ(out.second.raw(), warm.second.raw());
        }
        EXPECT_EQ(heapAllocs() - allocs0, 0u)
            << "steady-state apply() hit the heap";
        EXPECT_EQ(live(), live0);
        EXPECT_GT(checkouts() - checkouts0, 0u);
        (void)warm2;
    }
    setGlobalThreadCount(0);
}

} // namespace
} // namespace f1

