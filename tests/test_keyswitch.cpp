/**
 * @file
 * Direct tests of the key-switching core (paper §2.4, Listing 1):
 * digit decomposition invariants, the hoisted inner product against
 * apply() of the rotated input, hint sizes, agreement between the two
 * variants, and the modulus-switching primitive.
 */
#include <gtest/gtest.h>

#include "fhe/basis_extend.h"
#include "fhe/encoder.h"
#include "fhe/keyswitch.h"
#include "modular/modarith.h"

namespace f1 {
namespace {

FheParams
params()
{
    FheParams p;
    p.n = 128;
    p.maxLevel = 4;
    p.auxCount = 4;
    p.primeBits = 28;
    p.plainModulus = 257; // 257 ≡ 1 mod 256 = 2N: slot-friendly at N=128
    return p;
}

class KeySwitchTest : public ::testing::Test
{
  protected:
    KeySwitchTest()
        : ctx(params()), sw(&ctx), rng(123), sk(sw.keyGen(rng))
    {
    }

    double
    switchError(const RnsPoly &x, const RnsPoly &w,
                const std::pair<RnsPoly, RnsPoly> &u)
    {
        return switchErrorBits(sk, x, w, u);
    }

    /** Noise of (u0 + u1*s) - x*w under key `key`, max |coeff| bits. */
    static double
    switchErrorBits(const SecretKey &key, const RnsPoly &x,
                    const RnsPoly &w, const std::pair<RnsPoly, RnsPoly> &u)
    {
        const size_t level = x.levels();
        RnsPoly got = u.first;
        got += u.second.mul(key.s.restricted(level));
        RnsPoly want = x.mul(w.restricted(level));
        got -= want;
        got.toCoeff();
        size_t bits = 0;
        for (uint32_t i = 0; i < x.n(); ++i) {
            auto [mag, neg] = got.coeffCentered(i);
            bits = std::max(bits, mag.bitLength());
        }
        return static_cast<double>(bits);
    }

    FheContext ctx;
    KeySwitcher sw;
    Rng rng;
    SecretKey sk;
};

TEST_F(KeySwitchTest, DigitDecompositionReconstructs)
{
    // sum_i x~_i * P_i ≡ x (mod every q_j): check residue-wise using
    // the selector identity P_i ≡ δ_ij.
    const size_t level = 3, tracks = level + 1;
    const uint32_t n = ctx.n();
    auto x = RnsPoly::uniform(ctx.polyContext(), level, rng);
    std::vector<uint32_t> digits(digitDecompositionWords(level, n));
    sw.decompose(x, digits);
    const auto track = [&](size_t i, size_t j) {
        return std::span<const uint32_t>(digits).subspan(
            (i * tracks + j) * n, n);
    };
    // Residue j of the reconstruction = digit j's residue j.
    for (size_t j = 0; j < level; ++j) {
        auto t = track(j, j);
        EXPECT_TRUE(std::equal(t.begin(), t.end(), x.residue(j).begin()));
    }
    // Digit 0 is small: every track, the special prime's included,
    // holds the centered lift of x's residue 0 reduced mod its prime.
    const PolyContext *pc = ctx.polyContext();
    std::vector<uint32_t> x0(x.residue(0).begin(), x.residue(0).end());
    pc->tables(0).inverse(x0);
    const int64_t q0 = pc->modulus(0);
    for (size_t j = 0; j < tracks; ++j) {
        const size_t mod = j < level ? j : ctx.specialIndex();
        const int64_t q = pc->modulus(mod);
        std::vector<uint32_t> coeff(track(0, j).begin(), track(0, j).end());
        pc->tables(mod).inverse(coeff);
        for (uint32_t i = 0; i < n; ++i) {
            const int64_t lift = x0[i] > q0 / 2 ? x0[i] - q0 : x0[i];
            EXPECT_EQ(coeff[i], ((lift % q) + q) % q) << j << " " << i;
        }
    }
}

TEST_F(KeySwitchTest, DigitVariantSwitchesCorrectly)
{
    const size_t level = 4;
    auto w = sk.s.automorphism(5); // a realistic source key
    auto hint = sw.makeHint(w, sk, level, 257, KeySwitchVariant::kDigitLxL,
                            rng);
    auto x = RnsPoly::uniform(ctx.polyContext(), level, rng);
    auto u = sw.apply(x, hint, 257);
    // Error must be far below Q (112 bits here).
    EXPECT_LT(switchError(x, w, u), ctx.logQ(level) - 20);

    // Seventeen digits on 30-bit primes: every word sums more
    // products than one 64-bit lane holds, so the inner product's
    // fold runs on real data.
    FheParams deep = params();
    deep.maxLevel = 17;
    deep.primeBits = 30;
    const FheContext deepCtx(deep);
    const KeySwitcher deepSw(&deepCtx);
    const SecretKey deepSk = deepSw.keyGen(rng);
    const size_t deepLevel = 17;
    const auto deepW = deepSk.s.automorphism(5);
    const auto deepHint = deepSw.makeHint(
        deepW, deepSk, deepLevel, 257, KeySwitchVariant::kDigitLxL, rng);
    const auto deepX =
        RnsPoly::uniform(deepCtx.polyContext(), deepLevel, rng);
    EXPECT_LT(switchErrorBits(deepSk, deepX, deepW,
                              deepSw.apply(deepX, deepHint, 257)),
              deepCtx.logQ(deepLevel) - 20);
}

TEST_F(KeySwitchTest, GhsVariantSwitchesCorrectly)
{
    const size_t level = 4;
    auto w = sk.s.mul(sk.s);
    auto hint = sw.makeHint(w, sk, level, 257,
                            KeySwitchVariant::kGhsExtension, rng);
    auto x = RnsPoly::uniform(ctx.polyContext(), level, rng);
    auto u = sw.apply(x, hint, 257);
    EXPECT_LT(switchError(x, w, u), ctx.logQ(level) - 20);
}

TEST_F(KeySwitchTest, GhsNoiseLowerThanDigit)
{
    // GHS divides the hint noise by P ≈ Q, so its additive error is
    // materially smaller than the digit variant's.
    const size_t level = 4;
    auto w = sk.s.mul(sk.s);
    auto x = RnsPoly::uniform(ctx.polyContext(), level, rng);
    auto hintA = sw.makeHint(w, sk, level, 257,
                             KeySwitchVariant::kDigitLxL, rng);
    auto hintB = sw.makeHint(w, sk, level, 257,
                             KeySwitchVariant::kGhsExtension, rng);
    double errA = switchError(x, w, sw.apply(x, hintA, 257));
    double errB = switchError(x, w, sw.apply(x, hintB, 257));
    EXPECT_LT(errB, errA);
}

TEST_F(KeySwitchTest, HintSizesMatchPaperScaling)
{
    // Variant A (hybrid): 2 * L * (L+1) residue vectors, the paper's
    // O(L^2); variant B: 2 * (L + K), the paper's O(L).
    auto w = sk.s.mul(sk.s);
    for (size_t level : {2u, 3u, 4u}) {
        auto ha = sw.makeHint(w, sk, level, 257,
                              KeySwitchVariant::kDigitLxL, rng);
        EXPECT_EQ(ha.sizeRVecs(), 2 * level * (level + 1));
        auto hb = sw.makeHint(w, sk, level, 257,
                              KeySwitchVariant::kGhsExtension, rng);
        EXPECT_EQ(hb.sizeRVecs(), 2 * (level + ctx.auxCount()));
    }
    // At L = 16, N = 16K the paper reports 32 MB per hint set
    // (2 * 16 * 16 RVecs of 64 KB); the hybrid adds one special
    // residue per digit (34 MB).
    EXPECT_EQ(2 * 16 * 16 * 16384 * 4, 32u << 20);
}

TEST_F(KeySwitchTest, BasisExtensionExact)
{
    // Extended residues must equal the centered value's residues.
    const size_t level = 3;
    std::vector<int64_t> coeffs(ctx.n());
    Rng r2(5);
    for (auto &c : coeffs)
        c = static_cast<int64_t>(r2.uniform(1000001)) - 500000;
    auto x = RnsPoly::fromSigned(ctx.polyContext(), level, coeffs,
                                 Domain::kCoeff);
    std::vector<size_t> src{0, 1, 2}, dst{4, 5}; // aux primes
    BasisExtender be(ctx.polyContext(), src, dst);
    std::vector<uint32_t> in(level * ctx.n());
    for (size_t i = 0; i < level; ++i)
        std::copy(x.residue(i).begin(), x.residue(i).end(),
                  in.begin() + i * ctx.n());
    std::vector<uint32_t> out(2 * ctx.n());
    be.extend(in, ctx.n(), out);
    for (size_t k = 0; k < 2; ++k) {
        const uint32_t p = ctx.polyContext()->modulus(dst[k]);
        for (uint32_t i = 0; i < ctx.n(); ++i) {
            int64_t v = coeffs[i] % (int64_t)p;
            if (v < 0)
                v += p;
            EXPECT_EQ(out[k * ctx.n() + i], (uint32_t)v)
                << "k=" << k << " i=" << i;
        }
    }
}

TEST_F(KeySwitchTest, DropLastModulusPreservesValueScaled)
{
    // For a polynomial with small coefficients v, (v*q_last - delta)/
    // q_last must give back v exactly (delta ≡ 0 when divisible).
    const size_t level = 3;
    std::vector<int64_t> coeffs(ctx.n());
    for (uint32_t i = 0; i < ctx.n(); ++i)
        coeffs[i] = (int64_t)(i % 97) - 48;
    const uint32_t q_last = ctx.polyContext()->modulus(level - 1);
    std::vector<int64_t> scaled(ctx.n());
    for (uint32_t i = 0; i < ctx.n(); ++i)
        scaled[i] = coeffs[i] * (int64_t)q_last;
    auto p = RnsPoly::fromSigned(ctx.polyContext(), level, scaled);
    dropLastModulusRounded(p, 1);
    EXPECT_EQ(p.levels(), level - 1);
    p.toCoeff();
    for (uint32_t i = 0; i < ctx.n(); ++i) {
        auto [mag, neg] = p.coeffCentered(i);
        int64_t v = (int64_t)mag.toU64() * (neg ? -1 : 1);
        EXPECT_EQ(v, coeffs[i]) << i;
    }
}

/**
 * Hoisting: at every level, for random x, innerProduct(decompose(x),
 * hint for σ_g, g) returns apply(σ_g(x)) word for word, for rotation
 * elements, the conjugation and g = 1 (where it is apply(x)).
 */
void
expectInnerProductMatchesApply(const FheContext &c, uint64_t errorScale)
{
    const KeySwitcher ks(&c);
    Rng r(99);
    const SecretKey key = ks.keyGen(r);
    const SlotOrder order(c.n());
    const uint64_t gs[] = {1, order.rotationGalois(1),
                           order.rotationGalois(3),
                           order.rotationGalois(-1),
                           order.conjugationGalois()};
    for (size_t level = 1; level <= c.maxLevel(); ++level) {
        const auto x = RnsPoly::uniform(c.polyContext(), level, r);
        std::vector<uint32_t> digits(digitDecompositionWords(level, c.n()));
        ks.decompose(x, digits);
        for (uint64_t g : gs) {
            const auto hint =
                ks.makeHint(key.s.automorphism(g), key, level, errorScale,
                            KeySwitchVariant::kDigitLxL, r);
            const auto want =
                ks.apply(x.automorphism(g), hint, errorScale);
            const auto got = ks.innerProduct(digits, hint, errorScale, g);
            EXPECT_EQ(got.first.raw(), want.first.raw())
                << "level " << level << " g " << g;
            EXPECT_EQ(got.second.raw(), want.second.raw())
                << "level " << level << " g " << g;
            if (g == 1) {
                const auto plain = ks.apply(x, hint, errorScale);
                EXPECT_EQ(got.first.raw(), plain.first.raw());
                EXPECT_EQ(got.second.raw(), plain.second.raw());
            }
        }
    }
}

TEST_F(KeySwitchTest, HoistedInnerProductMatchesApplyBgv)
{
    expectInnerProductMatchesApply(ctx, params().plainModulus);
}

TEST_F(KeySwitchTest, HoistedInnerProductMatchesApplyCkks)
{
    FheParams p;
    p.n = 256;
    p.maxLevel = 3;
    p.primeBits = 28;
    expectInnerProductMatchesApply(FheContext(p), 1);
}

TEST_F(KeySwitchTest, InnerProductRejectsMismatchedInputs)
{
    auto w = sk.s.mul(sk.s);
    auto digitHint = sw.makeHint(w, sk, 3, 257,
                                 KeySwitchVariant::kDigitLxL, rng);
    auto ghsHint = sw.makeHint(w, sk, 3, 257,
                               KeySwitchVariant::kGhsExtension, rng);
    std::vector<uint32_t> digits(digitDecompositionWords(3, ctx.n()));
    sw.decompose(RnsPoly::uniform(ctx.polyContext(), 3, rng), digits);
    EXPECT_THROW(sw.innerProduct(digits, ghsHint, 257), PanicError);
    digits.resize(digitDecompositionWords(2, ctx.n()));
    EXPECT_THROW(sw.innerProduct(digits, digitHint, 257), PanicError);
}

TEST_F(KeySwitchTest, HintLevelMismatchRejected)
{
    auto w = sk.s.mul(sk.s);
    auto hint = sw.makeHint(w, sk, 3, 257, KeySwitchVariant::kDigitLxL,
                            rng);
    auto x = RnsPoly::uniform(ctx.polyContext(), 4, rng);
    EXPECT_THROW(sw.apply(x, hint, 257), PanicError);
}

} // namespace
} // namespace f1
