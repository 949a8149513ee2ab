/**
 * @file
 * Scalar modular arithmetic over word-sized prime moduli.
 *
 * F1 operates on 32-bit residue words (paper §2.3: RNS representation
 * with W = 32-bit words). All library moduli are primes q < 2^31 so that
 * lazy sums of two residues still fit a 32-bit word and 64-bit
 * intermediates never overflow. NTT moduli are further restricted to
 * q < 2^30 (kLazyModulusBits) so the Harvey lazy-butterfly pipeline can
 * carry values in [0, 4q) without overflow; see mulModShoupLazy and the
 * value-range table in README.md.
 *
 * Cost per word: a Shoup multiply (fixed operand) and a WideModulus
 * reduction of a 64-bit value (two lazy Shoup multiplies) use 32-bit
 * multiply-highs, which an AVX2 loop runs eight to a vector; a Barrett
 * multiply needs a 128-bit multiply-high, which stays scalar. The
 * modulus-switch loops therefore use the former
 * (modular/limb_kernels.h); Barrett serves products of two variable
 * residues.
 */
#ifndef F1_MODULAR_MODARITH_H
#define F1_MODULAR_MODARITH_H

#include <algorithm>
#include <cstdint>

#include "common/error.h"

namespace f1 {

/** Maximum supported modulus width in bits. */
constexpr int kMaxModulusBits = 31;

/**
 * Maximum modulus width for the lazy (Harvey) NTT pipeline. Lazy
 * butterflies keep values in [0, 4q) between stages, so the modulus
 * must satisfy 4q < 2^32, i.e. q < 2^30. NttTables enforces this at
 * construction.
 */
constexpr int kLazyModulusBits = 30;

/** a + b mod q, inputs already reduced. */
inline uint32_t
addMod(uint32_t a, uint32_t b, uint32_t q)
{
    uint32_t s = a + b;
    return s >= q ? s - q : s;
}

/** a - b mod q, inputs already reduced. */
inline uint32_t
subMod(uint32_t a, uint32_t b, uint32_t q)
{
    return a >= b ? a - b : a + q - b;
}

/** a * b mod q via 64-bit widening; reference implementation. */
inline uint32_t
mulMod(uint32_t a, uint32_t b, uint32_t q)
{
    return static_cast<uint32_t>((uint64_t)a * b % q);
}

/**
 * Barrett constant mu = floor(2^64 / q) for a modulus 2 <= q < 2^31.
 * One 128-bit division; callers compute it once per limb loop.
 */
inline uint64_t
barrettPrecompute(uint32_t q)
{
    return static_cast<uint64_t>(((unsigned __int128)1 << 64) / q);
}

/**
 * x mod q by Barrett reduction, for any 64-bit x, with mu =
 * barrettPrecompute(q). The quotient estimate floor(x * mu / 2^64)
 * falls short of floor(x / q) by at most 1 (x * (2^64/q - mu) < 2^64
 * loses under 1, the floor under 1 more), so the remainder lies in
 * [0, 2q), below 2^32 since q < 2^31: it is computed in 32 bits and
 * one conditional subtraction finishes the reduction.
 */
inline uint32_t
barrettReduce(uint64_t x, uint32_t q, uint64_t mu)
{
    const uint64_t qhat =
        static_cast<uint64_t>(((unsigned __int128)x * mu) >> 64);
    const uint32_t r = static_cast<uint32_t>(x) -
                       static_cast<uint32_t>(qhat) * q;
    return r >= q ? r - q : r;
}

/**
 * a * b mod q without a division: the element-wise product of two
 * variable residues (RnsPoly::mulEq, GHS, basis extension, the GSW
 * product). Valid for any 32-bit a and b (a * b < 2^64), so an
 * operand reduced modulo a different prime needs no pre-reduction.
 * Equals mulMod(a, b, q). One 128-bit multiply-high per product; the
 * digit key switch, which sums L products per word, reduces once per
 * word instead (LazyMacBlock).
 */
inline uint32_t
mulModBarrett(uint32_t a, uint32_t b, uint32_t q, uint64_t mu)
{
    return barrettReduce((uint64_t)a * b, q, mu);
}

/** -a mod q. */
inline uint32_t
negMod(uint32_t a, uint32_t q)
{
    return a == 0 ? 0 : q - a;
}

/** a^e mod q by square-and-multiply. */
inline uint32_t
powMod(uint32_t a, uint64_t e, uint32_t q)
{
    uint64_t base = a % q;
    uint64_t result = 1;
    while (e) {
        if (e & 1)
            result = result * base % q;
        base = base * base % q;
        e >>= 1;
    }
    return static_cast<uint32_t>(result);
}

/** a^-1 mod prime q (Fermat); requires gcd(a, q) == 1. */
inline uint32_t
invMod(uint32_t a, uint32_t q)
{
    F1_REQUIRE(a % q != 0, "inverse of zero mod " << q);
    return powMod(a, q - 2, q);
}

/**
 * Shoup precomputation for multiplication by a fixed operand w < q:
 * precon = floor(w * 2^32 / q). Used on NTT twiddle factors, where the
 * hardware stores w alongside its precomputed constant.
 */
inline uint32_t
shoupPrecompute(uint32_t w, uint32_t q)
{
    return static_cast<uint32_t>(((uint64_t)w << 32) / q);
}

/**
 * Shoup modular multiplication a * w mod q with precomputed
 * precon = floor(w << 32 / q). Single multiply-high plus a correction;
 * this is the fast scalar path used by the software NTT.
 */
inline uint32_t
mulModShoup(uint32_t a, uint32_t w, uint32_t precon, uint32_t q)
{
    uint32_t hi = static_cast<uint32_t>(((uint64_t)a * precon) >> 32);
    uint32_t r = static_cast<uint32_t>(
        (uint64_t)a * w - (uint64_t)hi * q);
    return r >= q ? r - q : r;
}

/**
 * Lazy Shoup multiplication: like mulModShoup but without the final
 * conditional subtraction. Returns a * w mod q in [0, 2q). Valid for
 * ANY 32-bit a (including lazy values up to 4q) and w < q — the Shoup
 * error bound r < a*w/2^32 + q < 2q holds for the full 32-bit range
 * of a. This is the butterfly multiply of the Harvey NTT.
 */
inline uint32_t
mulModShoupLazy(uint32_t a, uint32_t w, uint32_t precon, uint32_t q)
{
    uint32_t hi = static_cast<uint32_t>(((uint64_t)a * precon) >> 32);
    return static_cast<uint32_t>((uint64_t)a * w - (uint64_t)hi * q);
}

/**
 * Lazy addition: a + b with no reduction. For a, b < 2q the result is
 * in [0, 4q), which fits a 32-bit word when q < 2^30.
 */
inline uint32_t
addLazy(uint32_t a, uint32_t b)
{
    return a + b;
}

/**
 * Lazy subtraction: a - b + 2q with twoQ = 2q precomputed by the
 * caller. For a, b < 2q the result is in (0, 4q); no reduction.
 */
inline uint32_t
subLazy(uint32_t a, uint32_t b, uint32_t twoQ)
{
    return a + twoQ - b;
}

/**
 * Final correction pass of the lazy pipeline: reduces x in [0, 4q)
 * to the canonical representative in [0, q). twoQ = 2q. Branch-free:
 * x - c wraps above x when x < c, so each min subtracts only if
 * x >= c.
 */
inline uint32_t
lazyCorrect(uint32_t x, uint32_t q, uint32_t twoQ)
{
    x = std::min(x, x - twoQ);
    return std::min(x, x - q);
}

/**
 * Reduction of 64-bit values modulo an NTT prime m < 2^30 without a
 * 128-bit multiply or a division: x = hi * 2^32 + lo is congruent to
 * hi * (2^32 mod m) + lo, each term is one lazy Shoup multiply
 * (mulModShoupLazy takes any 32-bit operand) into [0, 2m), and their
 * sum, below 4m < 2^32, takes one lazyCorrect. Every step is a 32-bit
 * lane operation, so a loop of them vectorizes like the NTT's
 * butterflies. The limb kernels (modular/limb_kernels.h) run it once
 * per word.
 */
struct WideModulus
{
    uint32_t m = 0;
    uint32_t r32 = 0;    //!< 2^32 mod m
    uint32_t r32Pre = 0; //!< shoupPrecompute(r32, m)
    uint32_t onePre = 0; //!< shoupPrecompute(1, m) = floor(2^32 / m)

    explicit WideModulus(uint32_t modulus) : m(modulus)
    {
        F1_CHECK(modulus >= 2 && modulus < (1u << kLazyModulusBits),
                 "wide reduction needs 2 <= m < 2^" << kLazyModulusBits
                 << ", got " << modulus);
        r32 = static_cast<uint32_t>((uint64_t(1) << 32) % modulus);
        r32Pre = shoupPrecompute(r32, modulus);
        onePre = shoupPrecompute(1, modulus);
    }

    /** (hi * 2^32 + lo) mod m in [0, m). */
    uint32_t
    reduce(uint32_t hi, uint32_t lo) const
    {
        return lazyCorrect(mulModShoupLazy(hi, r32, r32Pre, m) +
                               mulModShoupLazy(lo, 1, onePre, m),
                           m, 2 * m);
    }

    /** x mod m in [0, m), for any 64-bit x. */
    uint32_t
    reduce(uint64_t x) const
    {
        return reduce(static_cast<uint32_t>(x >> 32),
                      static_cast<uint32_t>(x));
    }
};

} // namespace f1

#endif // F1_MODULAR_MODARITH_H
