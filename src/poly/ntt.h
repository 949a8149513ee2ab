/**
 * @file
 * Negacyclic Number-Theoretic Transform (paper §2.3, §5.2).
 *
 * Convention: the NTT domain is the vector of evaluations at odd powers
 * of the primitive 2N-th root of unity ψ, in natural order:
 *
 *     NTT(a)[k] = a(ψ^(2k+1)),   k = 0..N-1.
 *
 * With this convention polynomial multiplication mod x^N + 1 is exact
 * element-wise multiplication, and automorphisms act on the NTT domain
 * as index permutations without sign flips (see automorphism.h).
 *
 * The forward transform is implemented as a ψ-powers pre-multiplication
 * followed by a cyclic FFT with ω = ψ²; the inverse is the inverse
 * cyclic FFT followed by a ψ^-i/N post-multiplication. The hardware
 * four-step unit (fourstep.h) folds these multiplications into its
 * twiddle SRAM, as described in §5.2.
 */
#ifndef F1_POLY_NTT_H
#define F1_POLY_NTT_H

#include <cstdint>
#include <span>
#include <vector>

namespace f1 {

/**
 * Precomputed constants for NTTs of length n modulo q. q must satisfy
 * q ≡ 1 (mod 2n) and q < 2^30 (lazy-reduction headroom). All twiddles
 * carry Shoup precomputations so butterfly multiplications take a
 * single mulhi (+ correction on the strict path).
 *
 * The production transforms use Harvey lazy butterflies: intermediate
 * values stay in [0, 4q) through the forward stages and [0, 2q)
 * through the inverse stages, with a single correction pass at the
 * end (folded into the ψ^-i/N scaling for the negacyclic inverse).
 * They permute through a bit-reversal table built at construction,
 * and their loops are compiled for AVX2 and for baseline x86-64, the
 * loader picking one per CPU (F1_LIMB_KERNEL in
 * modular/limb_kernels.h); both give the same bits.
 * Inputs must be reduced ([0, q)); outputs are reduced. The *Strict
 * variants run the original fully-reduced butterflies and exist as
 * the golden reference for equivalence tests and the bench_ntt_lazy
 * baseline — both paths are bit-identical by construction (exact
 * modular arithmetic, same transform).
 */
class NttTables
{
  public:
    NttTables(uint32_t n, uint32_t q);

    uint32_t n() const { return n_; }
    uint32_t q() const { return q_; }
    uint32_t psi() const { return psi_; }

    /** Negacyclic forward NTT, in place, natural order in and out. */
    void forward(std::span<uint32_t> a) const;

    /** Negacyclic inverse NTT, in place, natural order in and out. */
    void inverse(std::span<uint32_t> a) const;

    /**
     * Cyclic DFT with root of unity of order `len` = a.size() (a power
     * of two dividing n), natural order. Exposed for the four-step
     * unit, whose inner transforms are cyclic DFTs of length E and G.
     */
    void cyclicForward(std::span<uint32_t> a) const;
    void cyclicInverse(std::span<uint32_t> a) const; // includes 1/len

    /**
     * Strict-reduction reference path (the pre-lazy implementation):
     * every butterfly fully reduces into [0, q). Outputs are
     * bit-identical to the lazy path; kept for equivalence tests and
     * as the bench_ntt_lazy baseline.
     */
    void forwardStrict(std::span<uint32_t> a) const;
    void inverseStrict(std::span<uint32_t> a) const;
    void cyclicForwardStrict(std::span<uint32_t> a) const;
    void cyclicInverseStrict(std::span<uint32_t> a) const;

    /** ω^e where ω = ψ² is the primitive n-th root used by the FFT. */
    uint32_t omegaPow(uint64_t e) const;

  private:
    void buildTwiddles();
    void permute(std::span<uint32_t> a) const;
    void forwardStagesLazy(std::span<uint32_t> a) const;
    void inverseStagesLazy(std::span<uint32_t> a) const;

    uint32_t n_;
    uint32_t logN_;
    uint32_t q_;
    uint32_t psi_;    //!< primitive 2n-th root of unity
    uint32_t psiInv_;
    uint32_t omega_;  //!< psi^2, primitive n-th root
    uint32_t omegaInv_;
    uint32_t nInv_;

    // Stage twiddles for the cyclic FFT, layout tw_[half + j] for
    // half in {1, 2, 4, ...}, j < half.
    std::vector<uint32_t> tw_, twPre_;
    std::vector<uint32_t> twInv_, twInvPre_;
    // psi^i and psi^-i * nInv with Shoup precomputations.
    std::vector<uint32_t> psiPow_, psiPowPre_;
    std::vector<uint32_t> psiInvN_, psiInvNPre_;
    // Per-length inverse scalings for cyclicInverse.
    std::vector<uint32_t> lenInv_, lenInvPre_; // indexed by log2(len)
    // bitRev_[i] = i with its logN_ low bits reversed; a length
    // n >> s transform uses bitRev_[i] >> s.
    std::vector<uint32_t> bitRev_;
};

/** O(n^2) reference negacyclic transform; for tests only. */
std::vector<uint32_t> slowNegacyclicNtt(
    std::span<const uint32_t> a, uint32_t q, uint32_t psi);

/** O(n^2) schoolbook multiplication mod x^n + 1; for tests only. */
std::vector<uint32_t> slowNegacyclicMul(
    std::span<const uint32_t> a, std::span<const uint32_t> b, uint32_t q);

} // namespace f1

#endif // F1_POLY_NTT_H
