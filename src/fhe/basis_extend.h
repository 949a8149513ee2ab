/**
 * @file
 * Approximate RNS basis extension (Halevi-Polyakov-Shoup style): given
 * the residues of x modulo q_0..q_{l-1}, computes x's residues modulo a
 * disjoint set of target primes without leaving RNS form. Used by the
 * GHS-style key-switching variant and by modulus-raising in
 * bootstrapping.
 *
 * The reconstruction x = sum_i w_i * qHat_i - alpha * Q uses a
 * floating-point estimate of alpha = round(sum_i w_i / q_i); with
 * <= 32 residues and 53-bit doubles the estimate is exact except on
 * pathological ties, the standard trade accepted by RNS FHE libraries.
 */
#ifndef F1_FHE_BASIS_EXTEND_H
#define F1_FHE_BASIS_EXTEND_H

#include <cstdint>
#include <span>
#include <vector>

#include "poly/poly_context.h"

namespace f1 {

class BasisExtender
{
  public:
    /**
     * @param ctx      polynomial context holding all primes
     * @param source   indices (into ctx moduli) of the source basis
     * @param target   indices of the target basis (disjoint)
     */
    BasisExtender(const PolyContext *ctx, std::vector<size_t> source,
                  std::vector<size_t> target);

    /**
     * Extends one coefficient vector: in[i][j] = residue of coeff j
     * mod source prime i; out[k][j] = residue mod target prime k.
     * Inputs and outputs are coefficient-domain residue polynomials.
     */
    void extend(std::span<const uint32_t> in, size_t n,
                std::span<uint32_t> out) const;

  private:
    const PolyContext *ctx_;
    std::vector<size_t> source_, target_;
    // qHatInv_[i] = (Q/q_i)^-1 mod q_i
    std::vector<uint32_t> qHatInv_;
    // qHatModTarget_[k][i] = (Q/q_i) mod p_k
    std::vector<std::vector<uint32_t>> qHatModTarget_;
    // qModTarget_[k] = Q mod p_k
    std::vector<uint32_t> qModTarget_;
    std::vector<double> qInvReal_; //!< 1.0 / q_i
    // Barrett constants (barrettPrecompute) of q_i and of p_k.
    std::vector<uint64_t> sourceMu_, targetMu_;
};

} // namespace f1

#endif // F1_FHE_BASIS_EXTEND_H
