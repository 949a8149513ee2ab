/**
 * @file
 * Tests for GSW (external products, CMux) and for BGV/CKKS
 * bootstrapping (paper §7 "Bootstrapping" benchmarks, §8.5 functional
 * simulator scope).
 */
#include <gtest/gtest.h>

#include "common/error.h"

#include <cmath>

#include "fhe/bootstrap.h"
#include "fhe/gsw.h"

namespace f1 {
namespace {

TEST(Gsw, ExternalProductMultipliesPlaintexts)
{
    FheParams p;
    p.n = 256;
    p.maxLevel = 4;
    p.primeBits = 28;
    p.plainModulus = 65537;
    FheContext ctx(p);
    BgvScheme bgv(&ctx);
    GswScheme gsw(&bgv);

    std::vector<uint64_t> slots(256);
    for (size_t i = 0; i < slots.size(); ++i)
        slots[i] = (3 * i + 1) % 65537;
    auto rlwe = bgv.encryptSlots(slots, 4);
    for (uint64_t m : {0ULL, 1ULL, 2ULL}) {
        auto rgsw = gsw.encryptScalar(m, 4);
        auto prod = gsw.externalProduct(rlwe, rgsw);
        auto got = bgv.decryptSlots(prod);
        for (size_t i = 0; i < slots.size(); ++i)
            EXPECT_EQ(got[i], slots[i] * m % 65537) << "m=" << m;
    }
}

TEST(Gsw, ExternalProductNoiseIsAsymmetric)
{
    // Chaining external products against fresh GSW bits keeps RLWE
    // noise bounded (additive growth), unlike BGV mul (multiplicative):
    // the defining GSW property (paper §2.5).
    FheParams p;
    p.n = 256;
    p.maxLevel = 4;
    p.primeBits = 28;
    p.plainModulus = 65537;
    FheContext ctx(p);
    BgvScheme bgv(&ctx);
    GswScheme gsw(&bgv);

    std::vector<uint64_t> slots(256, 7);
    auto rlwe = bgv.encryptSlots(slots, 4);
    auto one = gsw.encryptScalar(1, 4);
    double prev = bgv.measuredNoiseBits(rlwe);
    for (int hop = 0; hop < 4; ++hop) {
        rlwe = gsw.externalProduct(rlwe, one);
        double cur = bgv.measuredNoiseBits(rlwe);
        // Additive: noise gains at most ~a constant per hop.
        EXPECT_LT(cur, prev + 55);
        prev = cur;
    }
    for (auto v : bgv.decryptSlots(rlwe))
        EXPECT_EQ(v, 7u);
}

TEST(Gsw, CmuxSelects)
{
    FheParams p;
    p.n = 256;
    p.maxLevel = 4;
    p.primeBits = 28;
    p.plainModulus = 65537;
    FheContext ctx(p);
    BgvScheme bgv(&ctx);
    GswScheme gsw(&bgv);

    std::vector<uint64_t> sa(256, 111), sb(256, 222);
    auto c0 = bgv.encryptSlots(sa, 4);
    auto c1 = bgv.encryptSlots(sb, 4);
    auto bit0 = gsw.encryptScalar(0, 4);
    auto bit1 = gsw.encryptScalar(1, 4);
    EXPECT_EQ(bgv.decryptSlots(gsw.cmux(bit0, c0, c1))[0], 111u);
    EXPECT_EQ(bgv.decryptSlots(gsw.cmux(bit1, c0, c1))[0], 222u);
}

TEST(Gsw, EncryptionsDrawFreshRandomness)
{
    // Two RGSW encryptions at one level must not share masks: with
    // equal a rows, the difference of the b rows is the difference of
    // the plaintexts, readable without the key.
    FheParams p;
    p.n = 256;
    p.maxLevel = 4;
    p.primeBits = 28;
    p.plainModulus = 65537;
    FheContext ctx(p);
    BgvScheme bgv(&ctx);
    GswScheme gsw(&bgv);

    const auto zero = gsw.encryptScalar(0, 3);
    const auto one = gsw.encryptScalar(1, 3);
    ASSERT_EQ(zero.cm.a.size(), 3u);
    for (size_t i = 0; i < 3; ++i) {
        EXPECT_NE(zero.cm.a[i].raw(), one.cm.a[i].raw()) << "digit " << i;
        EXPECT_NE(zero.csm.a[i].raw(), one.csm.a[i].raw())
            << "digit " << i;
    }
}

TEST(BgvBootstrap, RecryptsExhaustedCiphertext)
{
    FheParams p;
    p.n = 256;
    p.maxLevel = 12;
    p.primeBits = 28;
    p.plainModulus = 2;
    FheContext ctx(p);
    BgvScheme bgv(&ctx, 2);
    BgvBootstrapper boot(&bgv, /*digits=*/6);

    // Non-packed: the payload is the single bit in coefficient 0
    // (the homomorphic trace zeroes the other coefficients).
    for (uint64_t bit : {0ULL, 1ULL}) {
        std::vector<uint64_t> bits(256, 0);
        bits[0] = bit;
        // Exhausted input: encrypted directly at level 1.
        auto ct = bgv.encryptCoeffs(bits, 1);
        auto fresh = boot.bootstrap(ct);
        EXPECT_EQ(fresh.level(), boot.outputLevel());
        EXPECT_GT(fresh.level(), 4u);
        auto got = bgv.decryptCoeffs(fresh);
        EXPECT_EQ(got[0], bit);
        for (size_t i = 1; i < got.size(); ++i)
            ASSERT_EQ(got[i], 0u) << i;
    }
}

TEST(BgvBootstrap, RefreshedCiphertextSupportsMoreOps)
{
    FheParams p;
    p.n = 256;
    p.maxLevel = 12;
    p.primeBits = 28;
    p.plainModulus = 2;
    FheContext ctx(p);
    BgvScheme bgv(&ctx, 2);
    BgvBootstrapper boot(&bgv, 6);

    std::vector<uint64_t> bits(256, 0);
    bits[0] = 1;
    auto ct = bgv.encryptCoeffs(bits, 1);
    auto fresh = boot.bootstrap(ct);
    // AND of the bit with itself via multiplication (t=2).
    auto sq = bgv.mul(fresh, fresh);
    EXPECT_EQ(bgv.decryptCoeffs(sq)[0], 1u);
}

TEST(BgvBootstrap, RejectsWrongPlaintextModulus)
{
    FheParams p;
    p.n = 256;
    p.maxLevel = 12;
    p.primeBits = 28;
    p.plainModulus = 65537;
    FheContext ctx(p);
    BgvScheme bgv(&ctx); // t = 65537
    EXPECT_THROW(BgvBootstrapper(&bgv, 6), FatalError);
}

TEST(CkksBootstrap, RecoversSmallPlaintexts)
{
    FheParams p;
    p.n = 256;
    p.maxLevel = 24; // the paper's bootstrapping L_max
    p.primeBits = 28;
    p.secretHammingWeight = 32; // sparse key bounds the wrap term
    FheContext ctx(p);
    CkksScheme ckks(&ctx);
    CkksBootstrapper boot(&ckks, /*taylorDeg=*/7);

    // Non-packed: one value, encoded as a constant (all slots equal),
    // small relative to q0 (the sparse regime HEAAN requires).
    for (double v : {2e-4, -7e-4}) {
        std::vector<std::complex<double>> slots(128, {v, 0.0});
        auto ct = ckks.encrypt(slots, 1);
        auto fresh = boot.bootstrap(ct);
        EXPECT_GT(fresh.level(), 1u);
        auto got = ckks.decrypt(fresh);
        for (size_t i = 0; i < slots.size(); ++i)
            EXPECT_NEAR(got[i].real(), v, 1e-4) << i;
    }
}

} // namespace
} // namespace f1
