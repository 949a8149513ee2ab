/**
 * @file
 * The CKKS approximate FHE scheme (paper §2.5): fixed-point arithmetic
 * on N/2 complex slots with explicit rescaling. Keys, hints,
 * encryption's (c0, c1), add/sub and the key-switched products come
 * from the RLWE core shared with BGV (fhe/rlwe.h, which also states
 * the thread safety); errors enter unscaled (errorScale = 1) and
 * accuracy is managed through the scale Δ, which this class tracks.
 */
#ifndef F1_FHE_CKKS_H
#define F1_FHE_CKKS_H

#include <complex>
#include <cstdint>
#include <vector>

#include "fhe/encoder.h"
#include "fhe/rlwe.h"

namespace f1 {

class CkksScheme : public RlweScheme
{
  public:
    CkksScheme(const FheContext *ctx,
               KeySwitchVariant variant = KeySwitchVariant::kDigitLxL,
               uint64_t seed = 9);

    const CkksEncoder &encoder() const { return encoder_; }
    double defaultScale() const { return context()->ckksScale(); }

    /** Encrypts N/2 complex slots at the default scale. */
    Ciphertext encrypt(std::span<const std::complex<double>> slots,
                       size_t level);

    /** As encrypt, drawing encryption randomness from `rng` (the
     *  thread-safe path; one Rng per concurrent job). */
    Ciphertext encrypt(std::span<const std::complex<double>> slots,
                       size_t level, Rng &rng);

    /** Encrypts real slot values (convenience). */
    Ciphertext encryptReal(std::span<const double> slots, size_t level);

    /** Encrypts an already-encoded polynomial with explicit scale. */
    Ciphertext encryptPoly(const RnsPoly &m, double scale);

    std::vector<std::complex<double>> decrypt(const Ciphertext &ct) const;

    //
    // Homomorphic operations (add and sub are the core's)
    //

    /** Tensor + relinearize; output scale = scale_a * scale_b. */
    Ciphertext mul(const Ciphertext &a, const Ciphertext &b);

    /** Multiply by encoded plaintext slots (scale multiplies). */
    Ciphertext mulPlain(const Ciphertext &a,
                        std::span<const std::complex<double>> slots) const;

    /**
     * As mulPlain, but taking an ALREADY-ENCODED plaintext polynomial
     * at (defaultScale(), a.level()) — the executor's encoding-cache
     * path, where one encoded constant serves many jobs. Bit-identical
     * to mulPlain over the slots `pt` was encoded from.
     */
    Ciphertext mulPlainEncoded(const Ciphertext &a,
                               const RnsPoly &pt) const;

    /** Multiply every slot by a real constant (scale multiplies). */
    Ciphertext mulConst(const Ciphertext &a, double c) const;

    /**
     * Multiply by a constant encoded at an explicit scale. Deep
     * circuits use this for exact scale alignment before additions:
     * choosing encodeScale = target * q_dropped / a.scale makes the
     * post-rescale result land exactly on `target`.
     */
    Ciphertext mulConstAtScale(const Ciphertext &a, double c,
                               double encodeScale) const;

    /** Add a real constant to every slot (encoded at a's scale). */
    Ciphertext addConst(const Ciphertext &a, double c) const;

    /** Add plaintext slots (encoded at a's scale). */
    Ciphertext addPlain(const Ciphertext &a,
                        std::span<const std::complex<double>> slots)
        const;

    /**
     * As addPlain, but taking an ALREADY-ENCODED plaintext polynomial
     * at (a.scale, a.level()) — the executor's encoding-cache path.
     * Bit-identical to addPlain over the slots `pt` was encoded from.
     */
    Ciphertext addPlainEncoded(const Ciphertext &a,
                               const RnsPoly &pt) const;

    /** Drop one prime, dividing the scale by it (paper §2.2.2). */
    Ciphertext rescale(const Ciphertext &a) const;

    /** Negate all slots. */
    Ciphertext negate(const Ciphertext &a) const;

    /**
     * Drops residues without scaling (plain modulus reduction) so two
     * operands reach a common level before add/mul. Scale unchanged.
     */
    Ciphertext modDownTo(const Ciphertext &a, size_t level) const;

    //
    // Galois ops. `digits`, if not empty, is hoistDecomposition(a):
    // the rotations of one ciphertext then share its decomposition
    // and return the same words as without it.
    //

    /** Slot rotation by r. */
    Ciphertext rotate(const Ciphertext &a, int64_t r,
                      std::span<const uint32_t> digits = {});

    /** Complex conjugation of every slot. */
    Ciphertext conjugate(const Ciphertext &a,
                         std::span<const uint32_t> digits = {});

    /** Applies σ_g for a raw Galois element (trace computations). */
    Ciphertext applyGalois(const Ciphertext &a, uint64_t g,
                           std::span<const uint32_t> digits = {});

  private:
    Ciphertext freshCiphertext(const RnsPoly &m, double scale,
                               Rng &rng) const;

    /** Shared body of the plaintext and constant multiplies: pt is
     *  encoded at ptScale and a's level. */
    Ciphertext mulEncoded(const Ciphertext &a, const RnsPoly &pt,
                          double ptScale) const;

    CkksEncoder encoder_;
};

} // namespace f1

#endif // F1_FHE_CKKS_H
