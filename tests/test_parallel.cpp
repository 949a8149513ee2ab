/**
 * @file
 * Tests for the limb-parallel execution engine: pool semantics
 * (coverage, exceptions, nesting) and the bit-identical contract — the
 * threaded NTT, element-wise, basis-extension, and key-switching paths
 * must produce exactly the serial reference's output for any thread
 * count.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <numeric>
#include <thread>
#include <type_traits>

#include "common/error.h"
#include "common/parallel.h"
#include "fhe/basis_extend.h"
#include "fhe/bgv.h"
#include "fhe/keyswitch.h"
#include "modular/primes.h"
#include "poly/rns_poly.h"

namespace f1 {
namespace {

/** Runs fn under an explicit pool size, then restores the default. */
template <typename Fn>
auto
withThreads(unsigned threads, Fn &&fn)
{
    setGlobalThreadCount(threads);
    if constexpr (std::is_void_v<decltype(fn())>) {
        fn();
        setGlobalThreadCount(0);
    } else {
        auto out = fn();
        setGlobalThreadCount(0);
        return out;
    }
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce)
{
    withThreads(4, [] {
        std::vector<int> hits(1000, 0);
        parallelFor(0, hits.size(), [&](size_t i) { hits[i] += 1; });
        EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 1000);
        EXPECT_EQ(*std::min_element(hits.begin(), hits.end()), 1);
        EXPECT_EQ(*std::max_element(hits.begin(), hits.end()), 1);
    });
}

TEST(ParallelFor, EmptyAndSingletonRanges)
{
    withThreads(4, [] {
        int calls = 0;
        parallelFor(5, 5, [&](size_t) { ++calls; });
        EXPECT_EQ(calls, 0);
        parallelFor(7, 8, [&](size_t i) {
            EXPECT_EQ(i, 7u);
            ++calls;
        });
        EXPECT_EQ(calls, 1);
    });
}

TEST(ParallelFor, PropagatesBodyExceptions)
{
    withThreads(4, [] {
        EXPECT_THROW(parallelFor(0, 64,
                                 [&](size_t i) {
                                     if (i == 13)
                                         F1_FATAL("boom at " << i);
                                 }),
                     FatalError);
    });
}

TEST(ParallelFor, NestedCallsRunInline)
{
    withThreads(4, [] {
        std::vector<int> grid(8 * 8, 0);
        parallelFor(0, 8, [&](size_t i) {
            parallelFor(0, 8,
                        [&](size_t j) { grid[i * 8 + j] += 1; });
        });
        EXPECT_EQ(std::accumulate(grid.begin(), grid.end(), 0), 64);
    });
}

TEST(ParallelFor, PoolUsableAfterBodyThrow)
{
    // Regression for the st.body lifetime bug: after a batch whose
    // body throws, the pool's shared state must not retain a pointer
    // into the dead run() frame — follow-up batches (with different
    // bodies and stack layouts) must execute normally.
    withThreads(4, [] {
        for (int round = 0; round < 8; ++round) {
            EXPECT_THROW(parallelFor(0, 64,
                                     [&](size_t i) {
                                         if (i % 7 == 3)
                                             F1_FATAL("boom " << i);
                                     }),
                         FatalError);
            std::atomic<int> calls{0};
            parallelFor(0, 64, [&](size_t) { ++calls; });
            EXPECT_EQ(calls.load(), 64);
        }
    });
}

TEST(ParallelFor, PoolReplacementWithInFlightBatches)
{
    // Stress for the setGlobalThreadCount() use-after-free: caller
    // threads hammer parallelFor while the main thread keeps swapping
    // the global pool. Each batch runs to completion on the pool it
    // snapshotted; under ASan the old code's destroyed-pool window
    // faults here.
    std::atomic<bool> stop{false};
    constexpr uint64_t kExpected = 64 * 63 / 2;
    std::vector<std::thread> callers;
    for (int t = 0; t < 3; ++t) {
        callers.emplace_back([&] {
            while (!stop.load(std::memory_order_relaxed)) {
                std::atomic<uint64_t> sum{0};
                parallelFor(0, 64, [&](size_t i) {
                    sum.fetch_add(i, std::memory_order_relaxed);
                });
                EXPECT_EQ(sum.load(), kExpected);
            }
        });
    }
    for (int round = 0; round < 40; ++round)
        setGlobalThreadCount(1 + round % 4);
    stop = true;
    for (auto &c : callers)
        c.join();
    setGlobalThreadCount(0);
}

TEST(ThreadCount, ParserAcceptsPositiveDecimals)
{
    EXPECT_EQ(parseThreadCountEnv("1"), 1u);
    EXPECT_EQ(parseThreadCountEnv("8"), 8u);
    EXPECT_EQ(parseThreadCountEnv("128"), 128u);
    EXPECT_EQ(parseThreadCountEnv(" 16"), 16u);
    EXPECT_EQ(parseThreadCountEnv("+4"), 4u);
}

TEST(ThreadCount, ParserRejectsMalformedValues)
{
    EXPECT_THROW(parseThreadCountEnv(""), FatalError);
    EXPECT_THROW(parseThreadCountEnv("0"), FatalError);
    EXPECT_THROW(parseThreadCountEnv("-3"), FatalError);
    EXPECT_THROW(parseThreadCountEnv("8x"), FatalError);
    EXPECT_THROW(parseThreadCountEnv("2 4"), FatalError);
    EXPECT_THROW(parseThreadCountEnv("threads"), FatalError);
    EXPECT_THROW(parseThreadCountEnv("0x8"), FatalError);
    EXPECT_THROW(parseThreadCountEnv("8."), FatalError);
    EXPECT_THROW(parseThreadCountEnv("99999999999999999999"),
                 FatalError);
}

TEST(ThreadCount, EnvOverrideIsValidatedNotMasked)
{
    setenv("F1_THREADS", "3", 1);
    EXPECT_EQ(configuredThreadCount(), 3u);
    setenv("F1_THREADS", "8x", 1);
    EXPECT_THROW(configuredThreadCount(), FatalError);
    setenv("F1_THREADS", "0", 1);
    EXPECT_THROW(configuredThreadCount(), FatalError);
    unsetenv("F1_THREADS");
    EXPECT_GE(configuredThreadCount(), 1u);
}

TEST(ParallelFor, GlobalThreadCountControl)
{
    setGlobalThreadCount(3);
    EXPECT_EQ(globalThreadCount(), 3u);
    EXPECT_EQ(parallelWidth(), 3u);
    {
        InlineParallelScope inlineScope; // parallelFor runs inline
        EXPECT_EQ(parallelWidth(), 1u);
    }
    std::atomic<unsigned> nested{0};
    parallelFor(0, 2, [&](size_t) { nested += parallelWidth(); });
    EXPECT_EQ(nested.load(), 2u); // pool bodies run nested calls inline
    setGlobalThreadCount(1); // serial fallback
    EXPECT_EQ(globalThreadCount(), 1u);
    int calls = 0;
    parallelFor(0, 16, [&](size_t) { ++calls; }); // inline, no races
    EXPECT_EQ(calls, 16);
    setGlobalThreadCount(0); // back to configured default
    EXPECT_GE(globalThreadCount(), 1u);
}

/** Serial vs threaded runs of `fn` must agree byte-for-byte. */
template <typename Fn>
void
expectBitIdentical(Fn &&fn)
{
    const auto serial = withThreads(1, fn);
    const auto threaded = withThreads(4, fn);
    EXPECT_EQ(serial, threaded);
}

class ParallelEquivalenceTest : public ::testing::Test
{
  protected:
    ParallelEquivalenceTest()
        : moduli(generateNttPrimes(6, 28, 256)), ctx(256, moduli)
    {
    }

    std::vector<uint32_t> moduli;
    PolyContext ctx;
};

TEST_F(ParallelEquivalenceTest, NttRoundTrip)
{
    expectBitIdentical([&] {
        Rng rng(42);
        RnsPoly p = RnsPoly::uniform(&ctx, 6, rng, Domain::kCoeff);
        p.toNtt();
        std::vector<uint32_t> ntt = p.raw();
        p.toCoeff();
        std::vector<uint32_t> coeff = p.raw();
        ntt.insert(ntt.end(), coeff.begin(), coeff.end());
        return ntt;
    });
}

TEST_F(ParallelEquivalenceTest, ElementwiseOps)
{
    expectBitIdentical([&] {
        Rng rng(43);
        RnsPoly a = RnsPoly::uniform(&ctx, 6, rng);
        RnsPoly b = RnsPoly::uniform(&ctx, 6, rng);
        RnsPoly sum = a + b;
        RnsPoly prod = a.mul(b);
        RnsPoly rot = a.automorphism(5);
        RnsPoly neg = b;
        neg.negate();
        neg.mulScalar(12345);
        std::vector<uint32_t> out = sum.raw();
        for (const auto *p : {&prod, &rot, &neg})
            out.insert(out.end(), p->raw().begin(), p->raw().end());
        return out;
    });
}

TEST_F(ParallelEquivalenceTest, BasisExtension)
{
    expectBitIdentical([&] {
        Rng rng(44);
        const uint32_t n = ctx.n();
        BasisExtender be(&ctx, {0, 1, 2, 3}, {4, 5});
        std::vector<uint32_t> in(4 * n), out(2 * n);
        for (size_t i = 0; i < 4; ++i)
            for (uint32_t j = 0; j < n; ++j)
                in[i * n + j] =
                    static_cast<uint32_t>(rng.uniform(ctx.modulus(i)));
        be.extend(in, n, out);
        return out;
    });
}

class ParallelKeySwitchTest : public ::testing::Test
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

    ParallelKeySwitchTest() : ctx(params()), sw(&ctx) {}

    std::vector<uint32_t>
    switchOnce(KeySwitchVariant variant)
    {
        Rng rng(123);
        SecretKey sk = sw.keyGen(rng);
        auto w = sk.s.mul(sk.s);
        auto hint = sw.makeHint(w, sk, 4, 257, variant, rng);
        auto x = RnsPoly::uniform(ctx.polyContext(), 4, rng);
        auto [u0, u1] = sw.apply(x, hint, 257);
        std::vector<uint32_t> out = u0.raw();
        out.insert(out.end(), u1.raw().begin(), u1.raw().end());
        return out;
    }

    FheContext ctx;
    KeySwitcher sw;
};

TEST_F(ParallelKeySwitchTest, DigitVariantBitIdentical)
{
    expectBitIdentical(
        [&] { return switchOnce(KeySwitchVariant::kDigitLxL); });
}

TEST_F(ParallelKeySwitchTest, GhsVariantBitIdentical)
{
    expectBitIdentical(
        [&] { return switchOnce(KeySwitchVariant::kGhsExtension); });
}

TEST(ParallelFullStack, BgvMultiplyDepthBitIdentical)
{
    // End-to-end cross-validation through the functional layer: fresh
    // context, encrypt, square twice with relinearization and modulus
    // switching, decrypt. Every draw of scheme randomness is serial,
    // so the entire trace must be bit-identical for any pool size.
    auto run = [] {
        FheParams p;
        p.n = 256;
        p.maxLevel = 5;
        p.primeBits = 28;
        p.plainModulus = 65537; // ≡ 1 mod 2N: slot packing at N=256
        FheContext ctx(p);
        BgvScheme scheme(&ctx, 0, KeySwitchVariant::kDigitLxL, 7);
        std::vector<uint64_t> slots(scheme.encoder().slotCount());
        for (size_t i = 0; i < slots.size(); ++i)
            slots[i] = (3 * i + 1) % 65537;
        auto ct = scheme.encryptSlots(slots, 5);
        ct = scheme.modSwitch(scheme.mul(ct, ct));
        ct = scheme.modSwitch(scheme.mul(ct, ct));
        std::vector<uint32_t> out;
        for (const auto &poly : ct.polys)
            out.insert(out.end(), poly.raw().begin(),
                       poly.raw().end());
        auto slotsOut = scheme.decryptSlots(ct);
        out.insert(out.end(), slotsOut.begin(), slotsOut.end());
        return out;
    };
    const auto serial = withThreads(1, run);
    const auto threaded = withThreads(4, run);
    EXPECT_EQ(serial, threaded);
}

} // namespace
} // namespace f1
