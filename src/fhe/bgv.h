/**
 * @file
 * The BGV leveled FHE scheme (paper §2.2) over the RNS substrate:
 * symmetric encryption, homomorphic add/multiply/rotate, modulus
 * switching, and conservative noise tracking.
 *
 * Decryption invariant: c0 + c1*s = m + t*e (mod Q_level), with m the
 * centered encoded plaintext and |m + t*e| < Q/2 required for correct
 * decryption. noiseBits tracks log2|m + t*e| conservatively.
 *
 * Thread safety: after construction, homomorphic operations
 * (add/sub/mul/rotate/...) on distinct ciphertexts may run
 * concurrently — the hint cache is internally synchronized and hint
 * randomness is derived per identity (see hintSeed), so results do
 * not depend on which thread generates a hint first. The encryption
 * paths that draw from the scheme's internal PRNG are NOT thread-safe;
 * concurrent encryptors must use the overloads taking an explicit Rng.
 */
#ifndef F1_FHE_BGV_H
#define F1_FHE_BGV_H

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "fhe/ciphertext.h"
#include "fhe/encoder.h"
#include "fhe/fhe_context.h"
#include "fhe/keyswitch.h"

namespace f1 {

class BgvScheme
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

    /** Shares an existing secret key (bootstrapping helper schemes). */
    void adoptKey(const SecretKey &sk);

    const FheContext *context() const { return ctx_; }
    const BgvEncoder &encoder() const { return encoder_; }
    uint64_t plainModulus() const { return t_; }
    const SecretKey &secretKey() const { return sk_; }
    KeySwitchVariant variant() const { return variant_; }

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

    /** Raw decryption phase c0 + c1*s (NTT domain). */
    RnsPoly decryptPhase(const Ciphertext &ct) const;

    /** log2 of the largest centered phase coefficient (true noise). */
    double measuredNoiseBits(const Ciphertext &ct) const;

    /** Remaining noise budget in bits (logQ - noiseBits - 1). */
    double noiseBudgetBits(const Ciphertext &ct) const;

    //
    // Homomorphic operations
    //

    Ciphertext add(const Ciphertext &a, const Ciphertext &b) const;
    Ciphertext sub(const Ciphertext &a, const Ciphertext &b) const;
    Ciphertext addPlain(const Ciphertext &a,
                        std::span<const int64_t> coeffs) const;
    Ciphertext mulPlain(const Ciphertext &a,
                        std::span<const int64_t> coeffs) const;

    /** Full homomorphic multiply: tensor + relinearization. */
    Ciphertext mul(const Ciphertext &a, const Ciphertext &b);

    /** Homomorphic slot rotation by r (σ_(5^r) + key switch). */
    Ciphertext rotate(const Ciphertext &a, int64_t r);

    /** Row swap (σ_(2N-1) + key switch). */
    Ciphertext conjugate(const Ciphertext &a);

    /** Applies σ_g for a raw Galois element (advanced callers). */
    Ciphertext applyGalois(const Ciphertext &a, uint64_t g);

    /** Modulus switch: drop one prime, reducing noise (paper §2.2.2). */
    Ciphertext modSwitch(const Ciphertext &a) const;

    /** Multiplies the ciphertext by an exact integer scalar mod Q
     *  (used by bootstrapping's inverse-power-of-two trick). */
    Ciphertext mulScalarInt(const Ciphertext &a, uint64_t scalar) const;

    //
    // Key-switch hint access (shared with the compiler layer, which
    // accounts for hint loads).
    //

    /**
     * Reference accessors. The reference is owned by the hint cache
     * and stays valid only while the entry is cached — with the
     * default unbounded capacity, forever. Callers that cap the cache
     * must use the shared accessors instead.
     */
    const KeySwitchHint &relinHint(size_t level);
    const KeySwitchHint &galoisHint(uint64_t g, size_t level);

    /** Pinning accessors: safe under concurrent eviction. */
    std::shared_ptr<const KeySwitchHint> relinHintShared(size_t level);
    std::shared_ptr<const KeySwitchHint> galoisHintShared(uint64_t g,
                                                          size_t level);

    /** Caps the hint cache (0 = unbounded, the default). Its counts
     *  are the registry's cache.bgv_hints.* metrics. */
    void setHintCacheCapacity(size_t cap) { hints_.setCapacity(cap); }

  private:
    Ciphertext freshCiphertext(const RnsPoly &m, size_t level);
    Ciphertext freshCiphertext(const RnsPoly &m, size_t level,
                               Rng &rng);

    const FheContext *ctx_;
    uint64_t t_;
    KeySwitchVariant variant_;
    uint64_t seed_; //!< root of the per-hint randomness derivation
    BgvEncoder encoder_;
    KeySwitcher switcher_;
    mutable Rng rng_;
    SecretKey sk_;
    RnsPoly sSquared_; //!< s^2 over the full chain (relin source key)
    HintCache hints_;
};

} // namespace f1

#endif // F1_FHE_BGV_H
