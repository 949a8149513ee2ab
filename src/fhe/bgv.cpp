#include "fhe/bgv.h"

#include <cmath>

#include "common/error.h"
#include "modular/modarith.h"

namespace f1 {

namespace {

/** Additive noise (bits) contributed by one key switch at `level`. */
double
keySwitchNoiseBits(const FheContext *ctx, uint64_t t, size_t level)
{
    // Hybrid digit variant: the raw digit term t*sum_i x~_i*e_i
    // (~ t * sqrt(level*N) * q/2 * sigma) is divided by the special
    // prime, leaving ~ t * sigma * sqrt(level*N) plus the rounding
    // term t * sqrt(N)/2. GHS lands in the same range.
    return std::log2(static_cast<double>(t)) +
           0.5 * std::log2(static_cast<double>(level) * ctx->n()) + 6.0;
}

} // namespace

BgvScheme::BgvScheme(const FheContext *ctx, uint64_t t,
                     KeySwitchVariant variant, uint64_t seed)
    : RlweScheme(ctx, t == 0 ? ctx->plainModulus() : t, variant, seed,
                 "bgv_hints"),
      encoder_(ctx, plainModulus())
{
}

Ciphertext
BgvScheme::freshCiphertext(const RnsPoly &m, Rng &rng) const
{
    Ciphertext ct = encryptPolys(m, rng);
    ct.noiseBits =
        std::log2(static_cast<double>(plainModulus())) +
        0.5 * std::log2(static_cast<double>(context()->n())) + 4.0;
    return ct;
}

Ciphertext
BgvScheme::encryptSlots(std::span<const uint64_t> slots, size_t level)
{
    return encryptSlots(slots, level, rng());
}

Ciphertext
BgvScheme::encryptSlots(std::span<const uint64_t> slots, size_t level,
                        Rng &rng)
{
    auto coeffs = encoder_.encodeSlots(slots);
    return freshCiphertext(encoder_.toPoly(coeffs, level), rng);
}

Ciphertext
BgvScheme::encryptCoeffs(std::span<const uint64_t> values, size_t level)
{
    auto coeffs = encoder_.encodeCoeffs(values);
    return freshCiphertext(encoder_.toPoly(coeffs, level), rng());
}

Ciphertext
BgvScheme::encryptPoly(const RnsPoly &m)
{
    return freshCiphertext(m, rng());
}

namespace {

/** Centered phase coefficient -> plaintext value mod t. */
uint64_t
phaseToPlain(const std::pair<BigInt, bool> &centered, uint64_t t)
{
    uint64_t mag = centered.first.modSmall(t);
    if (centered.second && mag != 0)
        return t - mag;
    return mag;
}

} // namespace

std::vector<uint64_t>
BgvScheme::decryptCoeffs(const Ciphertext &ct) const
{
    RnsPoly phase = decryptPhase(ct);
    phase.toCoeff();
    const uint64_t t = plainModulus();
    const uint32_t n = context()->n();
    std::vector<uint64_t> out(n);
    for (uint32_t i = 0; i < n; ++i) {
        uint64_t m = phaseToPlain(phase.coeffCentered(i), t);
        out[i] = m * (ct.ptCorrection % t) % t;
    }
    return out;
}

std::vector<uint64_t>
BgvScheme::decryptSlots(const Ciphertext &ct) const
{
    return encoder_.decodeSlots(decryptCoeffs(ct));
}

double
BgvScheme::measuredNoiseBits(const Ciphertext &ct) const
{
    RnsPoly phase = decryptPhase(ct);
    phase.toCoeff();
    size_t max_bits = 0;
    for (uint32_t i = 0; i < context()->n(); ++i) {
        auto [mag, neg] = phase.coeffCentered(i);
        max_bits = std::max(max_bits, mag.bitLength());
    }
    return static_cast<double>(max_bits);
}

double
BgvScheme::noiseBudgetBits(const Ciphertext &ct) const
{
    return context()->logQ(ct.level()) - ct.noiseBits - 1.0;
}

Ciphertext
BgvScheme::addPlain(const Ciphertext &a,
                    std::span<const int64_t> coeffs) const
{
    return addPlainEncoded(a, encoder_.toPoly(coeffs, a.level()));
}

Ciphertext
BgvScheme::addPlainEncoded(const Ciphertext &a, const RnsPoly &pt) const
{
    const uint64_t t = plainModulus();
    Ciphertext out = a;
    // The phase holds m * corr^-1 (decryption multiplies by corr), so
    // add c * corr^-1: the sum then decrypts to m + c. Scale a copy;
    // pt may be a shared cache entry.
    if (a.ptCorrection == 1) {
        out.polys[0] += pt;
    } else {
        uint64_t inv = 1, corr = a.ptCorrection % t;
        if (t % 2 == 1) {
            // Prime t: corr^(t-2) mod t.
            uint64_t base = corr;
            for (uint64_t e = t - 2; e; e >>= 1) {
                if (e & 1)
                    inv = inv * base % t;
                base = base * base % t;
            }
        } else {
            // t power of two: correction is a product of odd primes,
            // invertible mod 2^k by Newton iteration.
            uint64_t x = corr;
            for (int i = 0; i < 6; ++i)
                x = x * (2 - corr * x) % t;
            inv = x % t;
        }
        RnsPoly scaled = pt;
        scaled.mulScalar(inv);
        out.polys[0] += scaled;
    }
    out.noiseBits = a.noiseBits + 0.5;
    return out;
}

Ciphertext
BgvScheme::mulPlain(const Ciphertext &a,
                    std::span<const int64_t> coeffs) const
{
    return mulPlainEncoded(a, encoder_.toPoly(coeffs, a.level()));
}

Ciphertext
BgvScheme::mulPlainEncoded(const Ciphertext &a, const RnsPoly &pt) const
{
    Ciphertext out = a;
    for (auto &p : out.polys)
        p.mulEq(pt);
    out.noiseBits =
        a.noiseBits + std::log2(static_cast<double>(plainModulus())) +
        0.5 * std::log2(static_cast<double>(context()->n())) + 1.0;
    return out;
}

Ciphertext
BgvScheme::mul(const Ciphertext &a, const Ciphertext &b)
{
    const uint64_t t = plainModulus();
    Ciphertext out = relinTensor(a, b);
    double tensor = a.noiseBits + b.noiseBits +
                    0.5 * std::log2(static_cast<double>(context()->n())) +
                    2.0;
    out.noiseBits =
        std::max(tensor, keySwitchNoiseBits(context(), t, a.level())) +
        1.0;
    out.ptCorrection = a.ptCorrection * b.ptCorrection % t;
    return out;
}

Ciphertext
BgvScheme::applyGalois(const Ciphertext &a, uint64_t g,
                        std::span<const uint32_t> digits)
{
    Ciphertext out = galoisSwitch(a, g, digits);
    out.noiseBits = std::max(a.noiseBits,
                             keySwitchNoiseBits(context(), plainModulus(),
                                                a.level())) +
                    1.0;
    out.ptCorrection = a.ptCorrection;
    return out;
}

Ciphertext
BgvScheme::rotate(const Ciphertext &a, int64_t r,
                   std::span<const uint32_t> digits)
{
    return applyGalois(a, encoder_.slotOrder().rotationGalois(r),
                       digits);
}

Ciphertext
BgvScheme::conjugate(const Ciphertext &a,
                      std::span<const uint32_t> digits)
{
    return applyGalois(a, encoder_.slotOrder().conjugationGalois(),
                       digits);
}

Ciphertext
BgvScheme::modSwitch(const Ciphertext &a) const
{
    F1_CHECK(a.level() >= 2, "cannot modulus-switch below level 1");
    const uint64_t t = plainModulus();
    Ciphertext out = a;
    const uint32_t dropped = context()->ciphertextPrime(a.level() - 1);
    for (auto &p : out.polys)
        dropLastModulusRounded(p, t);
    const double floor_bits =
        std::log2(static_cast<double>(t)) +
        0.5 * std::log2(static_cast<double>(context()->n())) + 3.0;
    out.noiseBits =
        std::max(a.noiseBits - std::log2((double)dropped), floor_bits) +
        1.0;
    out.ptCorrection = a.ptCorrection * (dropped % t) % t;
    return out;
}

Ciphertext
BgvScheme::mulScalarInt(const Ciphertext &a, uint64_t scalar) const
{
    Ciphertext out = a;
    for (auto &p : out.polys)
        p.mulScalar(scalar);
    out.noiseBits =
        a.noiseBits + std::log2(static_cast<double>(scalar) + 1.0);
    return out;
}

} // namespace f1
