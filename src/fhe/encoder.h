/**
 * @file
 * Plaintext encoders.
 *
 * Slot structure: x^N + 1 splits into linear factors modulo a prime
 * t ≡ 1 (mod 2N), giving N evaluation slots at ζ^(2k+1). The Galois
 * group of the slots is generated by σ_5 and σ_{-1}; the odd exponents
 * mod 2N form two ⟨5⟩-orbits, {5^j} and {-5^j}, each of size N/2. We
 * order slots so that σ_(5^r) is a cyclic rotation by r within each
 * row and σ_{-1} swaps the rows — the standard packing both BGV and
 * CKKS use for homomorphic rotations (paper §2.1-2.2).
 *
 * BgvEncoder packs 2×(N/2) integers mod t via an NTT modulo t.
 * CkksEncoder packs N/2 complex numbers at a fixed-point scale Δ via
 * the canonical embedding (a ψ-twisted complex FFT, mirroring ntt.h).
 */
#ifndef F1_FHE_ENCODER_H
#define F1_FHE_ENCODER_H

#include <complex>
#include <cstdint>
#include <vector>

#include "fhe/fhe_context.h"
#include "poly/ntt.h"
#include "poly/rns_poly.h"

namespace f1 {

/** Slot-order bookkeeping shared by both encoders. */
class SlotOrder
{
  public:
    explicit SlotOrder(uint32_t n);

    uint32_t n() const { return n_; }
    uint32_t rowSize() const { return n_ / 2; }

    /** Galois element implementing rotation by r (= 5^r mod 2N). */
    uint64_t rotationGalois(int64_t r) const;

    /** Galois element implementing row swap / conjugation (2N - 1). */
    uint64_t conjugationGalois() const { return 2 * (uint64_t)n_ - 1; }

    /** Evaluation-slot index (k with exponent 2k+1) of logical slot
     *  (row, col); row ∈ {0, 1}, col < N/2. */
    uint32_t evalIndex(uint32_t row, uint32_t col) const;

  private:
    uint32_t n_;
    std::vector<uint32_t> evalIndex_; //!< [row * N/2 + col] -> k
};

/** BGV integer-slot encoder (plaintext space Z_t^N). */
class BgvEncoder
{
  public:
    /**
     * @param ctx library context
     * @param t   plaintext modulus; slot packing requires a prime
     *            t ≡ 1 (mod 2N). Non-slot-friendly t (e.g. t = 2)
     *            still supports coefficient encoding.
     */
    BgvEncoder(const FheContext *ctx, uint64_t t);

    uint64_t plainModulus() const { return t_; }
    bool supportsSlots() const { return tables_ != nullptr; }
    uint32_t slotCount() const { return ctx_->n(); }

    /**
     * Encodes N slot values (row-major 2×(N/2) rotation order) into a
     * centered coefficient vector mod t.
     */
    std::vector<int64_t> encodeSlots(
        std::span<const uint64_t> slots) const;

    /** Inverse of encodeSlots; input coefficients mod t. */
    std::vector<uint64_t> decodeSlots(
        std::span<const uint64_t> coeffs) const;

    /** Coefficient encoding: values mod t placed directly. */
    std::vector<int64_t> encodeCoeffs(
        std::span<const uint64_t> values) const;

    /** Lift centered coefficients into an RnsPoly at `levels`. */
    RnsPoly toPoly(std::span<const int64_t> coeffs, size_t levels,
                   Domain domain = Domain::kNtt) const;

    const SlotOrder &slotOrder() const { return order_; }

  private:
    const FheContext *ctx_;
    uint64_t t_;
    SlotOrder order_;
    std::unique_ptr<NttTables> tables_; //!< NTT mod t (if slot-friendly)
};

/** CKKS approximate-number encoder (N/2 complex slots). */
class CkksEncoder
{
  public:
    explicit CkksEncoder(const FheContext *ctx);

    uint32_t slotCount() const { return ctx_->n() / 2; }

    /** Encodes N/2 complex slots at scale into an RnsPoly. */
    RnsPoly encode(std::span<const std::complex<double>> slots,
                   double scale, size_t levels) const;

    /** Encodes a single constant replicated across slots. */
    RnsPoly encodeConstant(double value, double scale,
                           size_t levels) const;

    /** Decodes a coefficient-domain polynomial at the given scale. */
    std::vector<std::complex<double>> decode(const RnsPoly &poly,
                                             double scale) const;

    const SlotOrder &slotOrder() const { return order_; }

  private:
    void fft(std::vector<std::complex<double>> &a, bool inverse) const;

    const FheContext *ctx_;
    SlotOrder order_;
    std::vector<std::complex<double>> psi_; //!< ζ^i, ζ = e^(iπ/N)
    std::vector<uint32_t> bitRev_; //!< fft's bit-reversal permutation
    /** fft's stage twiddles, [0] forward and [1] inverse: the stage
     *  with half-width h reads w_j at index h + j (j < h). */
    std::vector<std::complex<double>> twiddles_[2];
};

} // namespace f1

#endif // F1_FHE_ENCODER_H
