/**
 * @file
 * The BGV leveled FHE scheme (paper §2.2) over the RNS substrate:
 * symmetric encryption, homomorphic add/multiply/rotate, modulus
 * switching, and conservative noise tracking. Keys, hints, encryption's
 * (c0, c1), add/sub and the key-switched products come from the RLWE
 * core shared with CKKS (fhe/rlwe.h, which also states the thread
 * safety); this class adds the slot encoder, the plaintext modulus t
 * (the core's error scale) and the noise and correction rules.
 *
 * Decryption invariant: c0 + c1*s = m + t*e (mod Q_level), with m the
 * centered encoded plaintext and |m + t*e| < Q/2 required for correct
 * decryption. noiseBits tracks log2|m + t*e| conservatively.
 */
#ifndef F1_FHE_BGV_H
#define F1_FHE_BGV_H

#include <cstdint>
#include <vector>

#include "fhe/encoder.h"
#include "fhe/rlwe.h"

namespace f1 {

class BgvScheme : public RlweScheme
{
  public:
    /**
     * @param ctx       parameter context (moduli, degree)
     * @param t         plaintext modulus (defaults to ctx param)
     * @param variant   key-switching implementation
     * @param seed      encryption-randomness seed
     */
    BgvScheme(const FheContext *ctx, uint64_t t = 0,
              KeySwitchVariant variant = KeySwitchVariant::kDigitLxL,
              uint64_t seed = 7);

    const BgvEncoder &encoder() const { return encoder_; }
    uint64_t plainModulus() const { return errorScale(); }

    //
    // Encryption / decryption
    //

    /** Encrypts slot values (rotation order; requires slot support). */
    Ciphertext encryptSlots(std::span<const uint64_t> slots,
                            size_t level);

    /**
     * As encryptSlots, but drawing encryption randomness from `rng`
     * instead of the scheme's internal stream. Safe to call
     * concurrently with distinct Rngs; the serving runtime uses one
     * per job so ciphertext bits are a function of the job alone.
     */
    Ciphertext encryptSlots(std::span<const uint64_t> slots,
                            size_t level, Rng &rng);

    /** Encrypts values placed directly in coefficients. */
    Ciphertext encryptCoeffs(std::span<const uint64_t> values,
                             size_t level);

    /** Encrypts an already-encoded plaintext polynomial (NTT domain). */
    Ciphertext encryptPoly(const RnsPoly &m);

    std::vector<uint64_t> decryptSlots(const Ciphertext &ct) const;
    std::vector<uint64_t> decryptCoeffs(const Ciphertext &ct) const;

    /** log2 of the largest centered phase coefficient (true noise). */
    double measuredNoiseBits(const Ciphertext &ct) const;

    /** Remaining noise budget in bits (logQ - noiseBits - 1). */
    double noiseBudgetBits(const Ciphertext &ct) const;

    //
    // Homomorphic operations (add and sub are the core's)
    //

    Ciphertext addPlain(const Ciphertext &a,
                        std::span<const int64_t> coeffs) const;
    Ciphertext mulPlain(const Ciphertext &a,
                        std::span<const int64_t> coeffs) const;

    /**
     * As addPlain and mulPlain, but taking an ALREADY-ENCODED plaintext
     * polynomial at a.level() (encoder().toPoly of the coefficients) —
     * the executor's encoding-cache path, where one encoded constant
     * serves many jobs. `pt` is never modified.
     */
    Ciphertext addPlainEncoded(const Ciphertext &a,
                               const RnsPoly &pt) const;
    Ciphertext mulPlainEncoded(const Ciphertext &a,
                               const RnsPoly &pt) const;

    /** Full homomorphic multiply: tensor + relinearization. */
    Ciphertext mul(const Ciphertext &a, const Ciphertext &b);

    //
    // Galois ops. `digits`, if not empty, is hoistDecomposition(a):
    // the rotations of one ciphertext then share its decomposition
    // and return the same words as without it.
    //

    /** Homomorphic slot rotation by r (σ_(5^r) + key switch). */
    Ciphertext rotate(const Ciphertext &a, int64_t r,
                      std::span<const uint32_t> digits = {});

    /** Row swap (σ_(2N-1) + key switch). */
    Ciphertext conjugate(const Ciphertext &a,
                         std::span<const uint32_t> digits = {});

    /** Applies σ_g for a raw Galois element (advanced callers). */
    Ciphertext applyGalois(const Ciphertext &a, uint64_t g,
                           std::span<const uint32_t> digits = {});

    /** Modulus switch: drop one prime, reducing noise (paper §2.2.2). */
    Ciphertext modSwitch(const Ciphertext &a) const;

    /** Multiplies the ciphertext by an exact integer scalar mod Q
     *  (used by bootstrapping's inverse-power-of-two trick). */
    Ciphertext mulScalarInt(const Ciphertext &a, uint64_t scalar) const;

  private:
    Ciphertext freshCiphertext(const RnsPoly &m, Rng &rng) const;

    BgvEncoder encoder_;
};

} // namespace f1

#endif // F1_FHE_BGV_H
