#include "fhe/ckks.h"

#include <cmath>

#include "common/error.h"

namespace f1 {

CkksScheme::CkksScheme(const FheContext *ctx, KeySwitchVariant variant,
                       uint64_t seed)
    : RlweScheme(ctx, 1, variant, seed, "ckks_hints"), encoder_(ctx)
{
}

Ciphertext
CkksScheme::freshCiphertext(const RnsPoly &m, double scale,
                            Rng &rng) const
{
    Ciphertext ct = encryptPolys(m, rng);
    ct.scale = scale;
    ct.noiseBits = 0.5 * std::log2((double)context()->n()) + 4.0;
    return ct;
}

Ciphertext
CkksScheme::encrypt(std::span<const std::complex<double>> slots,
                    size_t level)
{
    return encrypt(slots, level, rng());
}

Ciphertext
CkksScheme::encrypt(std::span<const std::complex<double>> slots,
                    size_t level, Rng &rng)
{
    return freshCiphertext(encoder_.encode(slots, defaultScale(), level),
                           defaultScale(), rng);
}

Ciphertext
CkksScheme::encryptReal(std::span<const double> slots, size_t level)
{
    std::vector<std::complex<double>> c(slots.size());
    for (size_t i = 0; i < slots.size(); ++i)
        c[i] = {slots[i], 0.0};
    return encrypt(c, level);
}

Ciphertext
CkksScheme::encryptPoly(const RnsPoly &m, double scale)
{
    return freshCiphertext(m, scale, rng());
}

std::vector<std::complex<double>>
CkksScheme::decrypt(const Ciphertext &ct) const
{
    return encoder_.decode(decryptPhase(ct), ct.scale);
}

Ciphertext
CkksScheme::mul(const Ciphertext &a, const Ciphertext &b)
{
    Ciphertext out = relinTensor(a, b);
    out.scale = a.scale * b.scale;
    out.noiseBits = a.noiseBits + b.noiseBits +
                    0.5 * std::log2((double)context()->n()) + 2.0;
    return out;
}

Ciphertext
CkksScheme::mulEncoded(const Ciphertext &a, const RnsPoly &pt,
                       double ptScale) const
{
    Ciphertext out = a;
    for (auto &p : out.polys)
        p.mulEq(pt);
    out.scale = a.scale * ptScale;
    out.noiseBits = a.noiseBits + std::log2(ptScale) + 1.0;
    return out;
}

Ciphertext
CkksScheme::mulPlain(const Ciphertext &a,
                     std::span<const std::complex<double>> slots) const
{
    return mulEncoded(a, encoder_.encode(slots, defaultScale(), a.level()),
                      defaultScale());
}

Ciphertext
CkksScheme::mulPlainEncoded(const Ciphertext &a,
                            const RnsPoly &pt) const
{
    return mulEncoded(a, pt, defaultScale());
}

Ciphertext
CkksScheme::mulConst(const Ciphertext &a, double c) const
{
    return mulEncoded(
        a, encoder_.encodeConstant(c, defaultScale(), a.level()),
        defaultScale());
}

Ciphertext
CkksScheme::mulConstAtScale(const Ciphertext &a, double c,
                            double encodeScale) const
{
    F1_CHECK(encodeScale > 1.0, "encode scale too small to quantize");
    return mulEncoded(a, encoder_.encodeConstant(c, encodeScale, a.level()),
                      encodeScale);
}

Ciphertext
CkksScheme::addPlain(const Ciphertext &a,
                     std::span<const std::complex<double>> slots) const
{
    return addPlainEncoded(a, encoder_.encode(slots, a.scale, a.level()));
}

Ciphertext
CkksScheme::addPlainEncoded(const Ciphertext &a,
                            const RnsPoly &pt) const
{
    Ciphertext out = a;
    out.polys[0] += pt;
    out.noiseBits = a.noiseBits + 0.5;
    return out;
}

Ciphertext
CkksScheme::addConst(const Ciphertext &a, double c) const
{
    return addPlainEncoded(a,
                           encoder_.encodeConstant(c, a.scale, a.level()));
}

Ciphertext
CkksScheme::rescale(const Ciphertext &a) const
{
    F1_CHECK(a.level() >= 2, "cannot rescale below level 1");
    Ciphertext out = a;
    const uint32_t dropped = context()->ciphertextPrime(a.level() - 1);
    for (auto &p : out.polys)
        dropLastModulusRounded(p, 1);
    out.scale = a.scale / static_cast<double>(dropped);
    out.noiseBits =
        std::max(a.noiseBits - std::log2((double)dropped), 4.0) + 1.0;
    return out;
}

Ciphertext
CkksScheme::negate(const Ciphertext &a) const
{
    Ciphertext out = a;
    for (auto &p : out.polys)
        p.negate();
    return out;
}

Ciphertext
CkksScheme::modDownTo(const Ciphertext &a, size_t level) const
{
    F1_CHECK(level >= 1 && level <= a.level(),
             "modDownTo target out of range");
    Ciphertext out = a;
    for (auto &p : out.polys)
        while (p.levels() > level)
            p.dropLastResidue();
    return out;
}

Ciphertext
CkksScheme::applyGalois(const Ciphertext &a, uint64_t g,
                         std::span<const uint32_t> digits)
{
    Ciphertext out = galoisSwitch(a, g, digits);
    out.scale = a.scale;
    out.noiseBits = a.noiseBits + 1.0;
    return out;
}

Ciphertext
CkksScheme::rotate(const Ciphertext &a, int64_t r,
                    std::span<const uint32_t> digits)
{
    return applyGalois(a, encoder_.slotOrder().rotationGalois(r),
                       digits);
}

Ciphertext
CkksScheme::conjugate(const Ciphertext &a,
                       std::span<const uint32_t> digits)
{
    return applyGalois(a, encoder_.slotOrder().conjugationGalois(),
                       digits);
}

} // namespace f1
