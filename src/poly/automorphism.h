/**
 * @file
 * Automorphisms σ_g of R_q = Z_q[x]/(x^N + 1) (paper §2.2.1) and the
 * vectorized chunk-local decomposition behind F1's automorphism unit
 * (§5.1, Fig. 5-6).
 *
 * Coefficient domain: σ_g maps coefficient a_i to position i*g mod N
 * with a sign flip when i*g mod 2N wraps past N.
 *
 * NTT domain (evaluations at ψ^(2k+1), see ntt.h): σ_g permutes slots
 * without sign flips: out[k] = in[(g*(2k+1) - 1)/2 mod N].
 *
 * Both maps are gathers of the affine form out[j] = in[(m*j + t) mod N]
 * (m odd), which is what the decomposed hardware path implements:
 * a chunk-local column permutation, a transpose, chunk-local row
 * permutations (multiply-by-m plus a per-chunk cyclic shift), and the
 * reverse transpose — each stage touching only E contiguous elements.
 */
#ifndef F1_POLY_AUTOMORPHISM_H
#define F1_POLY_AUTOMORPHISM_H

#include <cstdint>
#include <span>
#include <vector>

namespace f1 {

/** i*g^-1 mod 2N helper: multiplicative inverse of odd g mod 2^k. */
uint64_t invOddMod2k(uint64_t g, uint64_t modulus);

/**
 * Direct coefficient-domain automorphism: out gets σ_g(in).
 * g must be odd, 0 < g < 2N. out must not alias in.
 */
void automorphismCoeff(std::span<const uint32_t> in,
                       std::span<uint32_t> out,
                       uint64_t g, uint32_t q);

/**
 * Source slot of NTT-domain output slot k under σ_g over n slots:
 * automorphismNtt writes out[k] = in[automorphismNttSource(g, k, n)].
 */
inline uint64_t
automorphismNttSource(uint64_t g, uint64_t k, uint64_t n)
{
    return ((g * (2 * k + 1)) & (2 * n - 1)) >> 1;
}

/**
 * Direct NTT-domain automorphism (pure permutation, no signs).
 * out must not alias in.
 */
void automorphismNtt(std::span<const uint32_t> in,
                     std::span<uint32_t> out, uint64_t g);

/**
 * Decomposed gather out[j] = in[(m*j + t) mod N] computed exactly as
 * the hardware does: per-chunk column permutation, transpose, per-chunk
 * row permutation, transpose. Exposed so tests can check it against
 * the direct maps; m must be odd. lanes = E (chunk width), must divide
 * N with N/lanes <= lanes.
 */
void affineGatherDecomposed(std::span<const uint32_t> in,
                            std::span<uint32_t> out,
                            uint64_t m, uint64_t t, uint32_t lanes);

/**
 * Coefficient-domain automorphism through the decomposed datapath
 * (gather + sign-flip pass), bit-identical to automorphismCoeff.
 */
void automorphismCoeffDecomposed(std::span<const uint32_t> in,
                                 std::span<uint32_t> out,
                                 uint64_t g, uint32_t q, uint32_t lanes);

/** NTT-domain automorphism through the decomposed datapath. */
void automorphismNttDecomposed(std::span<const uint32_t> in,
                               std::span<uint32_t> out,
                               uint64_t g, uint32_t lanes);

} // namespace f1

#endif // F1_POLY_AUTOMORPHISM_H
