/**
 * @file
 * Tests for the negacyclic NTT: round trips, agreement with the O(n^2)
 * reference transform, convolution semantics, linearity, and the
 * four-step hardware datapath (paper §5.2).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <span>

#include "common/rng.h"
#include "fhe/fhe_context.h"
#include "modular/modarith.h"
#include "modular/primes.h"
#include "poly/fourstep.h"
#include "poly/ntt.h"
#include "poly/transpose.h"

namespace f1 {
namespace {

std::vector<uint32_t>
randomPoly(uint32_t n, uint32_t q, Rng &rng)
{
    std::vector<uint32_t> a(n);
    for (auto &x : a)
        x = static_cast<uint32_t>(rng.uniform(q));
    return a;
}

/** O(len^2) cyclic DFT with root w of order len: out[k] = Σ a[j] w^jk. */
std::vector<uint32_t>
slowCyclicDft(std::span<const uint32_t> a, uint32_t q, uint32_t w)
{
    const size_t len = a.size();
    std::vector<uint32_t> out(len);
    for (size_t k = 0; k < len; ++k) {
        uint64_t acc = 0;
        const uint32_t wk = powMod(w, k, q);
        uint32_t x = 1;
        for (size_t j = 0; j < len; ++j) {
            acc = (acc + (uint64_t)a[j] * x) % q;
            x = mulMod(x, wk, q);
        }
        out[k] = static_cast<uint32_t>(acc);
    }
    return out;
}

class NttParamTest : public ::testing::TestWithParam<uint32_t>
{
  protected:
    uint32_t n() const { return GetParam(); }
    uint32_t q() const { return generateNttPrimes(1, 28, n())[0]; }
};

TEST_P(NttParamTest, RoundTrip)
{
    NttTables t(n(), q());
    Rng rng(n());
    auto a = randomPoly(n(), q(), rng);
    auto orig = a;
    t.forward(a);
    t.inverse(a);
    EXPECT_EQ(a, orig);
}

TEST_P(NttParamTest, MatchesSlowReference)
{
    if (n() > 512)
        GTEST_SKIP() << "O(n^2) reference too slow";
    NttTables t(n(), q());
    Rng rng(n() + 1);
    auto a = randomPoly(n(), q(), rng);
    auto ref = slowNegacyclicNtt(a, q(), t.psi());
    t.forward(a);
    EXPECT_EQ(a, ref);
}

TEST_P(NttParamTest, PointwiseMulIsNegacyclicConvolution)
{
    if (n() > 512)
        GTEST_SKIP() << "O(n^2) reference too slow";
    const uint32_t qq = q();
    NttTables t(n(), qq);
    Rng rng(n() + 2);
    auto a = randomPoly(n(), qq, rng);
    auto b = randomPoly(n(), qq, rng);
    auto ref = slowNegacyclicMul(a, b, qq);
    t.forward(a);
    t.forward(b);
    for (uint32_t i = 0; i < n(); ++i)
        a[i] = mulMod(a[i], b[i], qq);
    t.inverse(a);
    EXPECT_EQ(a, ref);
}

TEST_P(NttParamTest, Linearity)
{
    const uint32_t qq = q();
    NttTables t(n(), qq);
    Rng rng(n() + 3);
    auto a = randomPoly(n(), qq, rng);
    auto b = randomPoly(n(), qq, rng);
    std::vector<uint32_t> sum(n());
    for (uint32_t i = 0; i < n(); ++i)
        sum[i] = addMod(a[i], b[i], qq);
    t.forward(a);
    t.forward(b);
    t.forward(sum);
    for (uint32_t i = 0; i < n(); ++i)
        EXPECT_EQ(sum[i], addMod(a[i], b[i], qq));
}

TEST_P(NttParamTest, FourStepMatchesIterative)
{
    const uint32_t qq = q();
    NttTables t(n(), qq);
    // E = 128 as in F1; also test a small E to exercise G > 1 cases.
    for (uint32_t lanes : {128u, 64u}) {
        if (n() > (uint64_t)lanes * lanes)
            continue;
        FourStepNtt fs(t, lanes);
        Rng rng(n() + lanes);
        auto a = randomPoly(n(), qq, rng);
        auto b = a;
        t.forward(a);
        fs.forward(b);
        EXPECT_EQ(a, b) << "forward, lanes=" << lanes;
        t.inverse(a);
        fs.inverse(b);
        EXPECT_EQ(a, b) << "inverse, lanes=" << lanes;
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, NttParamTest,
                         ::testing::Values(128u, 256u, 512u, 1024u, 2048u,
                                           4096u, 8192u, 16384u));

TEST(Ntt, ImpulseTransformsToConstantOne)
{
    // NTT(1) = all-ones: the constant polynomial evaluates to 1 at
    // every root.
    const uint32_t n = 256;
    const uint32_t q = generateNttPrimes(1, 28, n)[0];
    NttTables t(n, q);
    std::vector<uint32_t> a(n, 0);
    a[0] = 1;
    t.forward(a);
    for (uint32_t i = 0; i < n; ++i)
        EXPECT_EQ(a[i], 1u);
}

TEST(Ntt, MonomialXHasPsiOddPowers)
{
    // NTT(x)[k] = psi^(2k+1).
    const uint32_t n = 256;
    const uint32_t q = generateNttPrimes(1, 28, n)[0];
    NttTables t(n, q);
    std::vector<uint32_t> a(n, 0);
    a[1] = 1;
    t.forward(a);
    for (uint32_t k = 0; k < n; ++k)
        EXPECT_EQ(a[k], powMod(t.psi(), 2 * k + 1, q));
}

TEST(Ntt, XToTheNIsMinusOne)
{
    // (x^(n/2))^2 = x^n = -1 mod (x^n + 1): squaring the monomial
    // x^(n/2) via the NTT must give the constant -1.
    const uint32_t n = 128;
    const uint32_t q = generateNttPrimes(1, 28, n)[0];
    NttTables t(n, q);
    std::vector<uint32_t> a(n, 0);
    a[n / 2] = 1;
    t.forward(a);
    for (uint32_t i = 0; i < n; ++i)
        a[i] = mulMod(a[i], a[i], q);
    t.inverse(a);
    EXPECT_EQ(a[0], q - 1);
    for (uint32_t i = 1; i < n; ++i)
        EXPECT_EQ(a[i], 0u);
}

TEST(Ntt, CyclicForwardInverseRoundTripSubLengths)
{
    const uint32_t n = 1024;
    const uint32_t q = generateNttPrimes(1, 28, n)[0];
    NttTables t(n, q);
    Rng rng(99);
    for (uint32_t len : {2u, 8u, 64u, 256u, 1024u}) {
        auto a = randomPoly(len, q, rng);
        auto orig = a;
        t.cyclicForward(a);
        t.cyclicInverse(a);
        EXPECT_EQ(a, orig) << "len=" << len;
    }
}

TEST(NttCyclicShort, ForwardMatchesSlowDftEveryShortLength)
{
    // Property check of the len < n cyclic path (the four-step unit's
    // inner transforms): the FFT must equal the direct DFT with root
    // ω_len = ω^(n/len) at every power-of-two sub-length.
    const uint32_t n = 1024;
    const uint32_t q = generateNttPrimes(1, 28, n)[0];
    NttTables t(n, q);
    Rng rng(1001);
    for (uint32_t len = 2; len <= 256; len <<= 1) {
        const uint32_t wlen = t.omegaPow(n / len);
        for (int draw = 0; draw < 3; ++draw) {
            auto a = randomPoly(len, q, rng);
            auto ref = slowCyclicDft(a, q, wlen);
            t.cyclicForward(a);
            EXPECT_EQ(a, ref) << "len=" << len << " draw=" << draw;
        }
    }
}

TEST(NttCyclicShort, InverseMatchesSlowDftEveryShortLength)
{
    // cyclicInverse = direct DFT with ω_len^-1, scaled by 1/len.
    const uint32_t n = 1024;
    const uint32_t q = generateNttPrimes(1, 28, n)[0];
    NttTables t(n, q);
    Rng rng(1002);
    for (uint32_t len = 2; len <= 256; len <<= 1) {
        const uint32_t wlenInv = invMod(t.omegaPow(n / len), q);
        const uint32_t lenInv = invMod(len, q);
        for (int draw = 0; draw < 3; ++draw) {
            auto a = randomPoly(len, q, rng);
            auto ref = slowCyclicDft(a, q, wlenInv);
            for (auto &x : ref)
                x = mulMod(x, lenInv, q);
            t.cyclicInverse(a);
            EXPECT_EQ(a, ref) << "len=" << len << " draw=" << draw;
        }
    }
}

TEST(NttCyclicShort, LinearityAndRoundTripProperty)
{
    const uint32_t n = 512;
    const uint32_t q = generateNttPrimes(1, 28, n)[0];
    NttTables t(n, q);
    Rng rng(1003);
    for (uint32_t len : {2u, 4u, 16u, 128u, 256u}) {
        for (int draw = 0; draw < 4; ++draw) {
            auto a = randomPoly(len, q, rng);
            auto b = randomPoly(len, q, rng);
            std::vector<uint32_t> sum(len);
            for (uint32_t i = 0; i < len; ++i)
                sum[i] = addMod(a[i], b[i], q);
            auto fa = a, fb = b, fsum = sum;
            t.cyclicForward(fa);
            t.cyclicForward(fb);
            t.cyclicForward(fsum);
            for (uint32_t i = 0; i < len; ++i)
                EXPECT_EQ(fsum[i], addMod(fa[i], fb[i], q))
                    << "len=" << len;
            t.cyclicInverse(fa);
            EXPECT_EQ(fa, a) << "round trip len=" << len;
        }
    }
}

class NttLazyStrict : public ::testing::Test
{
  protected:
    /**
     * Lazy and strict paths must agree transform-by-transform. The
     * lazy operands live `offset` words into their buffer, so an odd
     * offset puts every vector load of the stage loops off alignment.
     */
    static void
    expectEquivalent(const NttTables &t, Rng &rng, size_t offset = 0)
    {
        const uint32_t n = t.n();
        const uint32_t q = t.q();
        std::vector<uint32_t> buf(offset + n);
        std::span<uint32_t> a(buf.data() + offset, n);
        auto b = randomPoly(n, q, rng);
        std::copy(b.begin(), b.end(), a.begin());
        t.forward(a);
        t.forwardStrict(b);
        EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()))
            << "forward, q=" << q << " offset=" << offset;
        t.inverse(a);
        t.inverseStrict(b);
        EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()))
            << "inverse, q=" << q << " offset=" << offset;

        // Cyclic transforms at the full length and at sub-lengths,
        // which read the permutation table through a shift.
        for (uint32_t len = n; len >= 2; len >>= 3) {
            std::span<uint32_t> c(buf.data() + offset, len);
            auto d = randomPoly(len, q, rng);
            std::copy(d.begin(), d.end(), c.begin());
            t.cyclicForward(c);
            t.cyclicForwardStrict(d);
            EXPECT_TRUE(std::equal(c.begin(), c.end(), d.begin()))
                << "cyclicForward, q=" << q << " len=" << len
                << " offset=" << offset;
            t.cyclicInverse(c);
            t.cyclicInverseStrict(d);
            EXPECT_TRUE(std::equal(c.begin(), c.end(), d.begin()))
                << "cyclicInverse, q=" << q << " len=" << len
                << " offset=" << offset;
        }
    }
};

TEST_F(NttLazyStrict, EquivalentOnEveryChainAndAuxPrime)
{
    // Full PolyContext layout: ciphertext chain + aux block + special
    // prime, exactly as key-switching sees it.
    FheParams p;
    p.n = 256;
    p.maxLevel = 4;
    p.auxCount = 3;
    p.primeBits = 28;
    p.plainModulus = 257;
    FheContext ctx(p);
    const PolyContext *pc = ctx.polyContext();
    Rng rng(2024);
    for (size_t i = 0; i < pc->chainLength(); ++i) {
        SCOPED_TRACE("modulus index " + std::to_string(i));
        expectEquivalent(pc->tables(i), rng);
    }
}

TEST_F(NttLazyStrict, EquivalentAtHeadroomBoundPrime)
{
    // The largest NTT-friendly q below the lazy bound 2^30: every
    // lazy intermediate sits within one bit of overflow here.
    for (uint32_t n : {128u, 4096u}) {
        const uint32_t q = generateNttPrimes(1, 30, n)[0];
        ASSERT_LT(q, 1u << 30);
        ASSERT_GT(q, 1u << 29);
        NttTables t(n, q);
        Rng rng(n);
        for (int draw = 0; draw < 4; ++draw)
            expectEquivalent(t, rng);
    }
}

TEST_F(NttLazyStrict, EquivalentAtBootstrapRing)
{
    // N = 16384 is the bootstrap workload's ring, the largest any
    // workload uses: the full-size permutation table.
    const uint32_t n = 16384;
    for (uint32_t bits : {28u, 30u}) {
        NttTables t(n, generateNttPrimes(1, bits, n)[0]);
        Rng rng(n + bits);
        expectEquivalent(t, rng);
    }
}

TEST_F(NttLazyStrict, EquivalentOnOddWordOffsetSpans)
{
    // Residues are spans into larger buffers; one that starts an odd
    // number of words in misaligns the AVX2 clone's loads.
    for (uint32_t n : {128u, 4096u, 16384u}) {
        NttTables t(n, generateNttPrimes(1, 30, n)[0]);
        Rng rng(3 * n);
        for (size_t offset : {1u, 3u, 7u}) {
            SCOPED_TRACE("n=" + std::to_string(n));
            expectEquivalent(t, rng, offset);
        }
    }
}

TEST_F(NttLazyStrict, RejectsModulusWithoutLazyHeadroom)
{
    // A 31-bit NTT-friendly prime satisfies q ≡ 1 (mod 2n) but leaves
    // no room for [0, 4q) intermediates; construction must refuse it.
    const uint32_t q31 = generateNttPrimes(1, 31, 128)[0];
    ASSERT_GE(q31, 1u << 30);
    EXPECT_THROW(NttTables(128, q31), FatalError);
}

TEST(Ntt, RejectsNonNttFriendlyModulus)
{
    // 786433 = 3*2^18+1 supports N up to 2^17 but 65537 only N <= 2^15.
    EXPECT_THROW(NttTables(65536, 65537), FatalError);
}

TEST(Transpose, QuadrantSwapMatchesDirect)
{
    Rng rng(5);
    for (size_t dim : {2u, 4u, 8u, 16u, 32u, 128u}) {
        std::vector<uint32_t> m(dim * dim);
        for (auto &x : m)
            x = static_cast<uint32_t>(rng.next());
        std::vector<uint32_t> ref(dim * dim);
        transposeDirect<uint32_t>(m, ref, dim, dim);
        transposeQuadrantSwap<uint32_t>(m, dim);
        EXPECT_EQ(m, ref) << "dim=" << dim;
    }
}

TEST(Transpose, QuadrantSwapIsInvolution)
{
    Rng rng(6);
    std::vector<uint32_t> m(64 * 64);
    for (auto &x : m)
        x = static_cast<uint32_t>(rng.next());
    auto orig = m;
    transposeQuadrantSwap<uint32_t>(m, 64);
    transposeQuadrantSwap<uint32_t>(m, 64);
    EXPECT_EQ(m, orig);
}

} // namespace
} // namespace f1
