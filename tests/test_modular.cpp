/**
 * @file
 * Tests for scalar modular arithmetic, the four Table-1 multiplier
 * designs, Shoup multiplication, the limb kernels of the modulus
 * switches, and prime generation.
 */
#include <gtest/gtest.h>

#include "common/rng.h"
#include "modular/limb_kernels.h"
#include "modular/modarith.h"
#include "modular/multiplier.h"
#include "modular/primes.h"

namespace f1 {
namespace {

uint32_t
refMul(uint32_t a, uint32_t b, uint32_t q)
{
    return static_cast<uint32_t>((unsigned __int128)a * b % q);
}

class MultiplierTest : public ::testing::TestWithParam<uint32_t>
{
};

TEST_P(MultiplierTest, AllDesignsMatchReference)
{
    const uint32_t q = GetParam();
    auto muls = makeAllMultipliers(q);
    ASSERT_EQ(muls.size(), 4u);
    Rng rng(q);
    for (int it = 0; it < 2000; ++it) {
        uint32_t a = static_cast<uint32_t>(rng.uniform(q));
        uint32_t b = static_cast<uint32_t>(rng.uniform(q));
        uint32_t ref = refMul(a, b, q);
        for (const auto &m : muls) {
            EXPECT_EQ(m->mul(a, b), ref)
                << m->name() << " a=" << a << " b=" << b << " q=" << q;
        }
    }
}

TEST_P(MultiplierTest, CornerCases)
{
    const uint32_t q = GetParam();
    auto muls = makeAllMultipliers(q);
    const uint32_t cases[] = {0u, 1u, 2u, q - 1, q - 2, q / 2, q / 2 + 1};
    for (const auto &m : muls)
        for (uint32_t a : cases)
            for (uint32_t b : cases)
                EXPECT_EQ(m->mul(a, b), refMul(a, b, q)) << m->name();
}

// Primes of several widths, all ≡ 1 (mod 2^16) so the FHE-friendly
// design applies (the library-wide modulus constraint).
INSTANTIATE_TEST_SUITE_P(
    Widths, MultiplierTest,
    ::testing::ValuesIn([] {
        std::vector<uint32_t> qs;
        for (uint32_t bits : {24u, 26u, 28u, 30u, 31u}) {
            auto p = generateNttPrimes(2, bits, 1024);
            qs.insert(qs.end(), p.begin(), p.end());
        }
        return qs;
    }()));

TEST(Multiplier, CostTableMatchesPaperTable1)
{
    auto muls = makeAllMultipliers(generateNttPrimes(1, 28, 1024)[0]);
    // Paper Table 1 (14/12nm synthesis).
    EXPECT_DOUBLE_EQ(muls[0]->cost().areaUm2, 5271.0);
    EXPECT_DOUBLE_EQ(muls[1]->cost().areaUm2, 2916.0);
    EXPECT_DOUBLE_EQ(muls[2]->cost().areaUm2, 2165.0);
    EXPECT_DOUBLE_EQ(muls[3]->cost().areaUm2, 1817.0);
    // FHE-friendly strictly dominates NTT-friendly in area and power.
    EXPECT_LT(muls[3]->cost().areaUm2, muls[2]->cost().areaUm2);
    EXPECT_LT(muls[3]->cost().powerMw, muls[2]->cost().powerMw);
}

TEST(ModArith, AddSubNeg)
{
    const uint32_t q = 65537;
    EXPECT_EQ(addMod(65536, 1, q), 0u);
    EXPECT_EQ(addMod(65536, 65536, q), 65535u);
    EXPECT_EQ(subMod(0, 1, q), 65536u);
    EXPECT_EQ(negMod(0, q), 0u);
    EXPECT_EQ(negMod(1, q), 65536u);
}

TEST(ModArith, PowAndInverse)
{
    const uint32_t q = generateNttPrimes(1, 28, 4096)[0];
    Rng rng(3);
    for (int it = 0; it < 100; ++it) {
        uint32_t a = static_cast<uint32_t>(rng.uniform(q - 1)) + 1;
        uint32_t inv = invMod(a, q);
        EXPECT_EQ(mulMod(a, inv, q), 1u);
        EXPECT_EQ(powMod(a, q - 1, q), 1u); // Fermat
    }
}

TEST(ModArith, ShoupMatchesReference)
{
    const uint32_t q = generateNttPrimes(1, 30, 8192)[0];
    Rng rng(11);
    for (int it = 0; it < 2000; ++it) {
        uint32_t a = static_cast<uint32_t>(rng.uniform(q));
        uint32_t w = static_cast<uint32_t>(rng.uniform(q));
        uint32_t pre = shoupPrecompute(w, q);
        EXPECT_EQ(mulModShoup(a, w, pre, q), refMul(a, w, q));
    }
}

uint32_t
refSigned(int64_t x, uint32_t q)
{
    return static_cast<uint32_t>(((x % q) + q) % q);
}

/** NTT primes of 17, 20, 28 and 30 bits: the lazy-headroom moduli. */
std::vector<uint32_t>
nttModuli()
{
    std::vector<uint32_t> qs;
    for (uint32_t bits : {17u, 20u, 28u, 30u})
        qs.push_back(generateNttPrimes(1, bits, 1024)[0]);
    return qs;
}

/**
 * nttModuli() plus a 31-bit prime (kMaxModulusBits) and 2^31 - 1, the
 * largest modulus a 32-bit remainder must hold.
 */
std::vector<uint32_t>
reductionModuli()
{
    std::vector<uint32_t> qs = nttModuli();
    qs.push_back(generateNttPrimes(1, kMaxModulusBits, 1024)[0]);
    qs.push_back((1u << kMaxModulusBits) - 1); // 2^31 - 1, prime
    return qs;
}

/** Barrett multiply against the division-based reference. */
class BarrettTest : public ::testing::TestWithParam<uint32_t>
{
};

TEST_P(BarrettTest, MultiplyMatchesMulMod)
{
    const uint32_t q = GetParam();
    const uint64_t mu = barrettPrecompute(q);
    const uint32_t edges[] = {0u, 1u, q - 1};
    for (uint32_t a : edges)
        for (uint32_t b : edges)
            EXPECT_EQ(mulModBarrett(a, b, q, mu), mulMod(a, b, q))
                << "a=" << a << " b=" << b << " q=" << q;
    Rng rng(q);
    for (int it = 0; it < 100000; ++it) {
        const uint32_t a = static_cast<uint32_t>(rng.uniform(q));
        const uint32_t b = static_cast<uint32_t>(rng.uniform(q));
        ASSERT_EQ(mulModBarrett(a, b, q, mu), mulMod(a, b, q))
            << "a=" << a << " b=" << b << " q=" << q;
    }
}

TEST_P(BarrettTest, MultiplyTakesUnreducedOperands)
{
    // Basis extension multiplies a residue of one prime by a constant
    // of another without reducing it first: any 32-bit operand works.
    const uint32_t q = GetParam();
    const uint64_t mu = barrettPrecompute(q);
    const uint32_t edges[] = {q, 2 * q - 1, UINT32_MAX};
    for (uint32_t a : edges)
        for (uint32_t b : edges)
            EXPECT_EQ(mulModBarrett(a, b, q, mu), refMul(a, b, q))
                << "a=" << a << " b=" << b << " q=" << q;
    Rng rng(q + 1);
    for (int it = 0; it < 100000; ++it) {
        const uint32_t a = static_cast<uint32_t>(rng.next());
        const uint32_t b = static_cast<uint32_t>(rng.next());
        ASSERT_EQ(mulModBarrett(a, b, q, mu), refMul(a, b, q))
            << "a=" << a << " b=" << b << " q=" << q;
    }
}

INSTANTIATE_TEST_SUITE_P(Widths, BarrettTest,
                         ::testing::ValuesIn(reductionModuli()));

/**
 * WideModulus, the 64-bit reduction by two lazy Shoup multiplies, and
 * the signed kernel built on it, against the division-based
 * references, on NTT primes of 17 to 30 bits (WideModulus needs
 * m < 2^30, as every PolyContext modulus is).
 */
class WideModulusTest : public ::testing::TestWithParam<uint32_t>
{
};

TEST_P(WideModulusTest, ReducesAnyWord)
{
    const uint32_t q = GetParam();
    const WideModulus mod(q);
    const uint64_t edges[] = {0,
                              1,
                              q - 1u,
                              q,
                              UINT32_MAX,
                              uint64_t(1) << 32,
                              (uint64_t(q - 1) << 32) | (q - 1),
                              UINT64_MAX};
    for (uint64_t x : edges)
        EXPECT_EQ(mod.reduce(x), x % q) << "x=" << x << " q=" << q;
    Rng rng(q + 3);
    for (int it = 0; it < 100000; ++it) {
        const uint64_t x = rng.next();
        ASSERT_EQ(mod.reduce(x), x % q) << "x=" << x << " q=" << q;
    }
}

TEST_P(WideModulusTest, SignedReductionMatchesRemainder)
{
    const uint32_t q = GetParam();
    const int64_t iq = q;
    // Centered lifts of any library residue lie in [-2^30, 2^30];
    // fromSigned also receives products d * t up to about 2^62.
    const int64_t lift = int64_t(1) << 30;
    const int64_t big = int64_t(1) << 62;
    std::vector<int64_t> xs = {
        0,       1,        -1,        iq - 1,    -(iq - 1),
        iq,      -iq,      iq + 1,    -iq - 1,   iq / 2,
        -iq / 2, lift,     -lift,     big,       -big,
        big - 1, -big + 1, INT64_MAX, INT64_MIN,
    };
    Rng rng(q + 2);
    for (int it = 0; it < 100000; ++it) {
        xs.push_back(static_cast<int64_t>(rng.uniform(2 * lift + 1)) -
                     lift);
        xs.push_back(
            static_cast<int64_t>(rng.uniform(uint64_t(2) * big + 1)) -
            big);
    }
    // One call over every input: whole kSplit passes, vector bodies
    // and a scalar tail.
    std::vector<uint32_t> got(xs.size());
    reduceSigned(xs, got, q);
    for (size_t i = 0; i < xs.size(); ++i)
        ASSERT_EQ(got[i], refSigned(xs[i], q)) << "x=" << xs[i] << " q=" << q;
}

INSTANTIATE_TEST_SUITE_P(Widths, WideModulusTest,
                         ::testing::ValuesIn(nttModuli()));

TEST(WideModulus, RejectsModuliWithoutLazyHeadroom)
{
    EXPECT_THROW(WideModulus(0), PanicError);
    EXPECT_THROW(WideModulus(1u << kLazyModulusBits), PanicError);
    EXPECT_THROW(WideModulus(generateNttPrimes(1, 31, 1024)[0]),
                 PanicError);
}

TEST(LimbKernels, LiftCenteredMatchesRemainder)
{
    // Every ordered pair over four widths: p < m, p > m and p = m.
    const std::vector<uint32_t> primes = nttModuli();
    for (uint32_t p : primes) {
        std::vector<uint32_t> src = {0, 1, p / 2, p / 2 + 1, p - 1};
        Rng rng(p);
        for (int it = 0; it < 10000; ++it)
            src.push_back(static_cast<uint32_t>(rng.uniform(p)));
        for (uint32_t m : primes) {
            for (uint32_t w : {1u, 2u, 65537u % m, m - 1}) {
                std::vector<uint32_t> dst(src.size());
                liftCentered(src, p, dst, m, w);
                for (size_t i = 0; i < src.size(); ++i) {
                    const int64_t c = src[i] > p / 2
                                          ? int64_t(src[i]) - p
                                          : int64_t(src[i]);
                    ASSERT_EQ(dst[i], refSigned(c * w, m))
                        << "src=" << src[i] << " p=" << p << " m=" << m
                        << " w=" << w;
                }
            }
        }
    }
}

TEST(LimbKernels, LazyMacFoldsBeforeOverflow)
{
    // Both operands at m - 1 on the largest NTT-friendly prime below
    // 2^30: 17 such products overflow a 64-bit lane, so a missing or
    // late fold shows as a wrong sum.
    const uint32_t m = generateNttPrimes(1, 30, 1024)[0];
    ASSERT_GT(m, 1u << 29);
    const size_t len = LazyMacBlock::kBlock;
    const std::vector<uint32_t> top(len, m - 1);
    std::vector<uint32_t> out0(len), out1(len);
    for (unsigned terms : {1u, 15u, 16u, 17u, 31u, 32u}) {
        LazyMacBlock mac(m, len);
        uint32_t want = 0;
        for (unsigned t = 0; t < terms; ++t) {
            mac.add(top.data(), top.data(), top.data());
            want = addMod(want, mulMod(m - 1, m - 1, m), m);
        }
        mac.finish(out0.data(), out1.data());
        for (size_t i = 0; i < len; ++i) {
            ASSERT_EQ(out0[i], want) << terms << " products, word " << i;
            ASSERT_EQ(out1[i], want) << terms << " products, word " << i;
        }
    }
}

TEST(LimbKernels, LazyMacMatchesMulModSums)
{
    // Random operands over a partial block: the two sums stay apart.
    const uint32_t m = generateNttPrimes(1, 30, 1024)[0];
    const size_t len = 37;
    const size_t terms = 40;
    Rng rng(m);
    std::vector<std::vector<uint32_t>> x(terms), h0(terms), h1(terms);
    std::vector<uint32_t> want0(len, 0), want1(len, 0);
    for (size_t t = 0; t < terms; ++t) {
        for (auto *v : {&x[t], &h0[t], &h1[t]}) {
            v->resize(len);
            for (auto &w : *v)
                w = static_cast<uint32_t>(rng.uniform(m));
        }
        for (size_t i = 0; i < len; ++i) {
            want0[i] = addMod(want0[i], mulMod(x[t][i], h0[t][i], m), m);
            want1[i] = addMod(want1[i], mulMod(x[t][i], h1[t][i], m), m);
        }
    }
    LazyMacBlock mac(m, len);
    for (size_t t = 0; t < terms; ++t)
        mac.add(x[t].data(), h0[t].data(), h1[t].data());
    std::vector<uint32_t> out0(len), out1(len);
    mac.finish(out0.data(), out1.data());
    EXPECT_EQ(out0, want0);
    EXPECT_EQ(out1, want1);
}

TEST(Primes, MillerRabinKnownValues)
{
    EXPECT_TRUE(isPrime(2));
    EXPECT_TRUE(isPrime(3));
    EXPECT_TRUE(isPrime(65537));
    EXPECT_TRUE(isPrime(2147483647ULL)); // 2^31 - 1
    EXPECT_TRUE(isPrime(0xffffffff00000001ULL)); // Goldilocks
    EXPECT_FALSE(isPrime(1));
    EXPECT_FALSE(isPrime(0));
    EXPECT_FALSE(isPrime(65536));
    EXPECT_FALSE(isPrime(3215031751ULL)); // strong pseudoprime to 2,3,5,7
    EXPECT_FALSE(isPrime((uint64_t)2147483647 * 2147483629));
}

TEST(Primes, GeneratedPrimesSatisfyCongruences)
{
    for (uint32_t n : {1024u, 4096u, 16384u}) {
        auto primes = generateNttPrimes(8, 28, n);
        ASSERT_EQ(primes.size(), 8u);
        for (uint32_t q : primes) {
            EXPECT_TRUE(isPrime(q));
            EXPECT_EQ((q - 1) % (2 * n), 0u) << q;
            EXPECT_EQ(q % (1u << 16), 1u) << q; // FHE-friendly
            EXPECT_GE(q, 1u << 27);
            EXPECT_LT(q, 1u << 28);
        }
        // Distinct.
        std::set<uint32_t> s(primes.begin(), primes.end());
        EXPECT_EQ(s.size(), primes.size());
    }
}

TEST(Primes, AvoidListRespected)
{
    auto first = generateNttPrimes(4, 28, 2048);
    auto second = generateNttPrimes(4, 28, 2048, first);
    for (uint32_t q : second)
        EXPECT_EQ(std::count(first.begin(), first.end(), q), 0);
}

TEST(Primes, PrimitiveRootHasExactOrder)
{
    const uint32_t n = 4096;
    const uint32_t q = generateNttPrimes(1, 28, n)[0];
    uint32_t root = primitiveRootOfUnity(2 * n, q);
    EXPECT_EQ(powMod(root, 2 * n, q), 1u);
    EXPECT_EQ(powMod(root, n, q), q - 1); // ψ^N = -1 (negacyclic)
}

TEST(Primes, FheFriendlyPrimeCountIsLarge)
{
    // Paper §5.3: ~6,186 32-bit primes satisfy the restriction. We
    // count 24-bit primes (fast) and check density is as expected.
    size_t count = countFheFriendlyPrimes(24);
    EXPECT_GT(count, 5u);
}

} // namespace
} // namespace f1
