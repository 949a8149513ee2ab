#include "fhe/rlwe.h"

#include <cmath>

#include "common/error.h"

namespace f1 {

RlweScheme::RlweScheme(const FheContext *ctx, uint64_t errorScale,
                       KeySwitchVariant variant, uint64_t seed,
                       const char *hintCacheName)
    : ctx_(ctx), errorScale_(errorScale), variant_(variant), seed_(seed),
      switcher_(ctx), rng_(seed), sk_(switcher_.keyGen(rng_)),
      sSquared_(sk_.s.mul(sk_.s)), hints_(0, hintCacheName)
{
}

void
RlweScheme::adoptKey(const SecretKey &sk)
{
    sk_ = sk;
    sSquared_ = sk_.s.mul(sk_.s);
    hints_.clear();
}

Ciphertext
RlweScheme::encryptPolys(const RnsPoly &m, Rng &rng) const
{
    auto [a, b] =
        rlweSample(ctx_, sk_.s.restricted(m.levels()), errorScale_, rng);
    b += m;
    Ciphertext ct;
    ct.polys.push_back(std::move(b));
    ct.polys.push_back(std::move(a));
    return ct;
}

RnsPoly
RlweScheme::decryptPhase(const Ciphertext &ct) const
{
    F1_CHECK(ct.polys.size() == 2, "decrypting non-relinearized ct");
    RnsPoly phase = ct.polys[0];
    phase += ct.polys[1].mul(sk_.s.restricted(ct.level()));
    return phase;
}

Ciphertext
RlweScheme::add(const Ciphertext &a, const Ciphertext &b) const
{
    F1_CHECK(a.level() == b.level(), "level mismatch in add");
    F1_CHECK(a.ptCorrection == b.ptCorrection,
             "plaintext-correction mismatch in add; modulus-switch "
             "operands in lockstep");
    // CKKS primes are only approximately equal to the scale, so
    // rescaled operands drift; deep circuits (bootstrapping) compound
    // it to a few percent. The mismatch perturbs the smaller addend by
    // the drift fraction, which stays below our precision targets;
    // reject only gross mismatches (wrong-scale operands).
    F1_CHECK(std::abs(a.scale - b.scale) <=
                 0.15 * std::max(a.scale, b.scale),
             "scale mismatch in CKKS add: " << a.scale << " vs "
             << b.scale);
    Ciphertext out = a;
    for (size_t i = 0; i < out.polys.size(); ++i)
        out.polys[i] += b.polys[i];
    out.noiseBits = std::max(a.noiseBits, b.noiseBits) + 1.0;
    return out;
}

Ciphertext
RlweScheme::sub(const Ciphertext &a, const Ciphertext &b) const
{
    F1_CHECK(a.level() == b.level(), "level mismatch in sub");
    F1_CHECK(a.ptCorrection == b.ptCorrection,
             "plaintext-correction mismatch in sub");
    Ciphertext out = a;
    for (size_t i = 0; i < out.polys.size(); ++i)
        out.polys[i] -= b.polys[i];
    out.noiseBits = std::max(a.noiseBits, b.noiseBits) + 1.0;
    return out;
}

std::shared_ptr<const KeySwitchHint>
RlweScheme::relinHintShared(size_t level)
{
    return hints_.getOrCreate(HintKey{0, level}, [&] {
        Rng rng(hintSeed(seed_, 0, level));
        return switcher_.makeHint(sSquared_, sk_, level, errorScale_,
                                  variant_, rng);
    });
}

std::shared_ptr<const KeySwitchHint>
RlweScheme::galoisHintShared(uint64_t g, size_t level)
{
    return hints_.getOrCreate(HintKey{g, level}, [&] {
        Rng rng(hintSeed(seed_, g, level));
        RnsPoly sg = sk_.s.automorphism(g);
        return switcher_.makeHint(sg, sk_, level, errorScale_, variant_,
                                  rng);
    });
}

const KeySwitchHint &
RlweScheme::relinHint(size_t level)
{
    return *relinHintShared(level);
}

const KeySwitchHint &
RlweScheme::galoisHint(uint64_t g, size_t level)
{
    return *galoisHintShared(g, level);
}

Ciphertext
RlweScheme::relinTensor(const Ciphertext &a, const Ciphertext &b)
{
    F1_CHECK(a.polys.size() == 2 && b.polys.size() == 2,
             "mul expects relinearized inputs");
    F1_CHECK(a.level() == b.level(), "level mismatch in mul");

    // Tensor: (l0, l1, l2) = (a0*b0, a0*b1 + a1*b0, a1*b1) (§2.2.1).
    RnsPoly l0 = a.polys[0].mul(b.polys[0]);
    RnsPoly l1 = a.polys[0].mul(b.polys[1]);
    l1 += a.polys[1].mul(b.polys[0]);
    RnsPoly l2 = a.polys[1].mul(b.polys[1]);

    // Pin the hint so a capped cache evicting it mid-apply is safe.
    auto hint = relinHintShared(a.level());
    auto [u0, u1] = switcher_.apply(l2, *hint, errorScale_);

    Ciphertext out;
    out.polys.push_back(l0 + u0);
    out.polys.push_back(l1 + u1);
    return out;
}

std::vector<uint32_t>
RlweScheme::hoistDecomposition(const Ciphertext &a) const
{
    F1_REQUIRE(variant_ == KeySwitchVariant::kDigitLxL,
               "only digit key switching hoists its decomposition");
    F1_CHECK(a.polys.size() == 2, "hoisting expects a relinearized input");
    std::vector<uint32_t> digits(
        digitDecompositionWords(a.level(), ctx_->n()));
    switcher_.decompose(a.polys[1], digits);
    return digits;
}

Ciphertext
RlweScheme::galoisSwitch(const Ciphertext &a, uint64_t g,
                         std::span<const uint32_t> digits)
{
    F1_CHECK(a.polys.size() == 2, "galois expects relinearized input");
    auto hint = galoisHintShared(g, a.level());
    auto [u0, u1] =
        digits.empty()
            ? switcher_.apply(a.polys[1].automorphism(g), *hint,
                              errorScale_)
            : switcher_.innerProduct(digits, *hint, errorScale_, g);

    Ciphertext out;
    out.polys.push_back(a.polys[0].automorphism(g) + u0);
    out.polys.push_back(std::move(u1));
    return out;
}

} // namespace f1
