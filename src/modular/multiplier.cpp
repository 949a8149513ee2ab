#include "modular/multiplier.h"

#include "common/error.h"
#include "modular/modarith.h"

namespace f1 {

namespace {

/** q^-1 mod 2^32 by Newton iteration; q must be odd. */
uint32_t
invModPow2(uint32_t q)
{
    uint32_t x = q; // correct mod 2^3
    for (int i = 0; i < 5; ++i)
        x *= 2u - q * x; // doubles the number of correct bits
    return x;
}

uint32_t
pow2_64Mod(uint32_t q)
{
    return static_cast<uint32_t>(
        ((unsigned __int128)1 << 64) % q);
}

} // namespace

//
// Barrett
//

BarrettMultiplier::BarrettMultiplier(uint32_t q) : ModMultiplier(q)
{
    F1_REQUIRE(q > 1 && q < (1u << kMaxModulusBits),
               "Barrett modulus must be in (1, 2^" << kMaxModulusBits
               << "), got " << q);
    mu_ = barrettPrecompute(q);
}

uint32_t
BarrettMultiplier::mul(uint32_t a, uint32_t b) const
{
    return mulModBarrett(a, b, q_, mu_);
}

//
// Montgomery
//

MontgomeryMultiplier::MontgomeryMultiplier(uint32_t q) : ModMultiplier(q)
{
    F1_REQUIRE(q & 1, "Montgomery modulus must be odd");
    qInvNeg_ = ~invModPow2(q) + 1; // -q^-1 mod 2^32
    r2_ = pow2_64Mod(q);
}

uint32_t
MontgomeryMultiplier::redc(uint64_t t) const
{
    uint32_t m = static_cast<uint32_t>(t) * qInvNeg_;
    uint64_t u = (t + (uint64_t)m * q_) >> 32;
    return static_cast<uint32_t>(u >= q_ ? u - q_ : u);
}

uint32_t
MontgomeryMultiplier::mul(uint32_t a, uint32_t b) const
{
    // REDC(a*b) = a*b*R^-1; a second REDC against R^2 restores the
    // standard domain.
    uint32_t ab = redc((uint64_t)a * b);
    return redc((uint64_t)ab * r2_);
}

//
// NTT-friendly (digit-serial Montgomery, 16-bit digits)
//

NttFriendlyMultiplier::NttFriendlyMultiplier(uint32_t q) : ModMultiplier(q)
{
    F1_REQUIRE(q & 1, "NTT-friendly modulus must be odd");
    // -q^-1 mod 2^16, computed generically (the hardware carries a
    // 16x16 multiplier for the m-digit).
    uint32_t x = q & 0xffff; // Newton mod 2^16
    for (int i = 0; i < 4; ++i)
        x = (x * (2u - q * x)) & 0xffff;
    qInvNegLo_ = (0x10000u - x) & 0xffff;
    r2_ = pow2_64Mod(q);
}

uint32_t
NttFriendlyMultiplier::redcDigits(uint64_t t) const
{
    for (int round = 0; round < 2; ++round) {
        uint32_t m = (static_cast<uint32_t>(t & 0xffff) * qInvNegLo_)
            & 0xffff;
        t = (t + (uint64_t)m * q_) >> 16;
    }
    return static_cast<uint32_t>(t >= q_ ? t - q_ : t);
}

uint32_t
NttFriendlyMultiplier::mul(uint32_t a, uint32_t b) const
{
    uint32_t ab = redcDigits((uint64_t)a * b);
    return redcDigits((uint64_t)ab * r2_);
}

//
// FHE-friendly (paper §5.3): trivial per-digit constant
//

FheFriendlyMultiplier::FheFriendlyMultiplier(uint32_t q) : ModMultiplier(q)
{
    F1_REQUIRE((q & 0xffff) == 1,
               "FHE-friendly multiplier requires q ≡ 1 (mod 2^16), got "
               << q);
    r2_ = pow2_64Mod(q);
}

uint32_t
FheFriendlyMultiplier::redcTrivial(uint64_t t) const
{
    // With q ≡ 1 (mod 2^16), -q^-1 ≡ -1 (mod 2^16): the m-digit is just
    // the two's-complement negation of the low digit — no multiplier.
    for (int round = 0; round < 2; ++round) {
        uint32_t m = (0x10000u - static_cast<uint32_t>(t & 0xffff))
            & 0xffff;
        t = (t + (uint64_t)m * q_) >> 16;
    }
    return static_cast<uint32_t>(t >= q_ ? t - q_ : t);
}

uint32_t
FheFriendlyMultiplier::mul(uint32_t a, uint32_t b) const
{
    uint32_t ab = redcTrivial((uint64_t)a * b);
    return redcTrivial((uint64_t)ab * r2_);
}

std::vector<std::unique_ptr<ModMultiplier>>
makeAllMultipliers(uint32_t q)
{
    std::vector<std::unique_ptr<ModMultiplier>> v;
    v.push_back(std::make_unique<BarrettMultiplier>(q));
    v.push_back(std::make_unique<MontgomeryMultiplier>(q));
    v.push_back(std::make_unique<NttFriendlyMultiplier>(q));
    v.push_back(std::make_unique<FheFriendlyMultiplier>(q));
    return v;
}

} // namespace f1
