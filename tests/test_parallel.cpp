/**
 * @file
 * Tests for the limb-parallel execution engine: pool semantics
 * (coverage, exceptions, nesting), the park-and-help group (published
 * loops run on parked members, exceptions and profile counts reach
 * the publisher, nested publishes, inline fallbacks) and the
 * bit-identical contract — the threaded NTT, element-wise,
 * basis-extension, and key-switching paths must produce exactly the
 * serial reference's output for any thread count.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <numeric>
#include <set>
#include <thread>
#include <type_traits>
#include <utility>

#include "common/error.h"
#include "common/parallel.h"
#include "fhe/basis_extend.h"
#include "fhe/bgv.h"
#include "fhe/keyswitch.h"
#include "modular/primes.h"
#include "obs/profile.h"
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

//
// ParkGroup: members park together and help each other's loops
//

/**
 * `count` threads that join `group` and park until destroyed. The
 * constructor returns once every one of them is parked: park() counts
 * a member in the same critical section as its first ready() check,
 * so a thread that takes the mutex after all of them checked sees
 * them all parked.
 */
class ParkedMembers
{
  public:
    ParkedMembers(ParkGroup &group, unsigned count) : group_(group)
    {
        for (unsigned i = 0; i < count; ++i) {
            threads_.emplace_back([this] {
                ParkGroup::Join member(group_);
                std::unique_lock<std::mutex> lock(group_.mutex());
                bool first = true;
                group_.park(lock, [&] {
                    if (std::exchange(first, false))
                        ++arrived_;
                    return done_;
                });
            });
        }
        for (;;) {
            {
                std::lock_guard<std::mutex> lock(group_.mutex());
                if (arrived_ == count)
                    return;
            }
            std::this_thread::yield();
        }
    }

    ~ParkedMembers()
    {
        {
            std::lock_guard<std::mutex> lock(group_.mutex());
            done_ = true;
        }
        group_.wakeAll();
        for (auto &t : threads_)
            t.join();
    }

  private:
    ParkGroup &group_;
    unsigned arrived_ = 0; //!< under the group's mutex
    bool done_ = false;    //!< under the group's mutex
    std::vector<std::thread> threads_;
};

/**
 * Records which thread ran each index. An iteration on the calling
 * thread blocks until a helper has run one, and a helper's until the
 * caller has, so a published loop always runs on the caller and on at
 * least one helper (it needs more indices than helpers).
 */
class HelpedLoop
{
  public:
    explicit HelpedLoop(size_t n) : ran_(n) {}

    void
    operator()(size_t i)
    {
        const bool mine = std::this_thread::get_id() == caller_;
        {
            std::lock_guard<std::mutex> lock(m_);
            ran_[i].push_back(std::this_thread::get_id());
        }
        (mine ? callerRan_ : helperRan_) = true;
        const std::atomic<bool> &other = mine ? helperRan_ : callerRan_;
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(30);
        while (!other && std::chrono::steady_clock::now() < deadline)
            std::this_thread::yield();
    }

    /** Every index ran exactly once; returns the threads that ran. */
    std::set<std::thread::id>
    threads() const
    {
        std::set<std::thread::id> ids;
        for (size_t i = 0; i < ran_.size(); ++i) {
            EXPECT_EQ(ran_[i].size(), 1u) << "index " << i;
            ids.insert(ran_[i].begin(), ran_[i].end());
        }
        return ids;
    }

  private:
    const std::thread::id caller_ = std::this_thread::get_id();
    std::mutex m_;
    std::vector<std::vector<std::thread::id>> ran_;
    std::atomic<bool> callerRan_{false};
    std::atomic<bool> helperRan_{false};
};

TEST(ParkGroup, PublishedLoopRunsOnParkedMembers)
{
    ParkGroup group;
    ParkedMembers parked(group, 2);
    ParkGroup::Join member(group);
    EXPECT_EQ(parallelWidth(), 1u);
    HelpedLoop loop(64);
    parallelFor(0, 64, [&](size_t i) { loop(i); });
    const auto ids = loop.threads();
    EXPECT_GT(ids.size(), 1u);
    EXPECT_TRUE(ids.count(std::this_thread::get_id()));
}

TEST(ParkGroup, RunsInlineWhenNoMemberIsParked)
{
    ParkGroup group;
    ParkGroup::Join member(group);
    EXPECT_EQ(parallelWidth(), 1u);
    std::vector<size_t> order;
    std::set<std::thread::id> ids;
    parallelFor(0, 32, [&](size_t i) {
        order.push_back(i);
        ids.insert(std::this_thread::get_id());
    });
    std::vector<size_t> want(32);
    std::iota(want.begin(), want.end(), size_t{0});
    EXPECT_EQ(order, want);
    EXPECT_EQ(ids, std::set{std::this_thread::get_id()});
}

TEST(ParkGroup, HelperExceptionReachesPublisher)
{
    ParkGroup group;
    ParkedMembers parked(group, 2);
    ParkGroup::Join member(group);
    const auto caller = std::this_thread::get_id();
    for (int round = 0; round < 4; ++round) {
        HelpedLoop loop(32);
        EXPECT_THROW(parallelFor(0, 32,
                                 [&](size_t i) {
                                     loop(i);
                                     if (std::this_thread::get_id() !=
                                         caller)
                                         F1_FATAL("helper " << i);
                                 }),
                     FatalError);
        EXPECT_GT(loop.threads().size(), 1u);
        // The group stays usable: the next loop runs every index.
        HelpedLoop after(32);
        parallelFor(0, 32, [&](size_t i) { after(i); });
        EXPECT_GT(after.threads().size(), 1u);
    }
}

TEST(ParkGroup, HelpedIterationMayPublishAgain)
{
    ParkGroup group;
    ParkedMembers parked(group, 2);
    ParkGroup::Join member(group);
    std::vector<std::atomic<int>> grid(16 * 16);
    HelpedLoop outer(16);
    parallelFor(0, 16, [&](size_t i) {
        outer(i);
        parallelFor(0, 16, [&](size_t j) { grid[i * 16 + j] += 1; });
    });
    EXPECT_GT(outer.threads().size(), 1u);
    for (const auto &cell : grid)
        EXPECT_EQ(cell.load(), 1);
}

TEST(ParkGroup, HelpersCountIntoThePublishersCollector)
{
    ParkGroup group;
    ParkedMembers parked(group, 2);
    ParkGroup::Join member(group);
    obs::ProfileCollector collector;
    obs::ProfileScope scope(&collector);
    HelpedLoop loop(48);
    parallelFor(0, 48, [&](size_t i) {
        loop(i);
        obs::profileAdd(obs::ProfileCounter::kNttForward);
    });
    EXPECT_GT(loop.threads().size(), 1u);
    EXPECT_EQ(collector
                  .counters[size_t(obs::ProfileCounter::kNttForward)]
                  .load(),
              48u);
}

TEST(ParkGroup, InlineScopeOverridesMembership)
{
    ParkGroup group;
    ParkedMembers parked(group, 2);
    ParkGroup::Join member(group);
    InlineParallelScope inlineScope;
    std::vector<size_t> order;
    std::set<std::thread::id> ids;
    parallelFor(0, 32, [&](size_t i) {
        order.push_back(i);
        ids.insert(std::this_thread::get_id());
    });
    std::vector<size_t> want(32);
    std::iota(want.begin(), want.end(), size_t{0});
    EXPECT_EQ(order, want);
    EXPECT_EQ(ids, std::set{std::this_thread::get_id()});
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
