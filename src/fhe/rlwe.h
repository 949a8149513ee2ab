/**
 * @file
 * The RLWE core that BGV and CKKS share (paper §2.2, §2.5): both are
 * RLWE schemes over the same RNS ciphertexts (c0, c1) with
 * Dec(ct) = c0 + c1*s, and the same key switching. They differ only in
 * how noise enters (multiplied by the error scale: t for BGV, 1 for
 * CKKS), in their encoders, and in the metadata they keep per
 * ciphertext (BGV's plaintext correction, CKKS's scale). RlweScheme
 * owns the secret key, the key-switch hints and the polynomial side of
 * encryption, addition, relinearization and Galois key switching;
 * BgvScheme and CkksScheme derive from it and add their encoders and
 * metadata rules.
 *
 * Thread safety: after construction, homomorphic operations
 * (add/sub/mul/rotate/...) on distinct ciphertexts may run
 * concurrently — the hint cache is internally synchronized and hint
 * randomness is derived per identity (see hintSeed), so results do
 * not depend on which thread generates a hint first. The encryption
 * paths that draw from the scheme's internal PRNG are NOT thread-safe;
 * concurrent encryptors must use the overloads taking an explicit Rng.
 */
#ifndef F1_FHE_RLWE_H
#define F1_FHE_RLWE_H

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "fhe/ciphertext.h"
#include "fhe/fhe_context.h"
#include "fhe/keyswitch.h"

namespace f1 {

class RlweScheme
{
  public:
    /** Shares an existing secret key (bootstrapping helper schemes);
     *  drops every cached hint. */
    void adoptKey(const SecretKey &sk);

    const FheContext *context() const { return ctx_; }
    const SecretKey &secretKey() const { return sk_; }
    KeySwitchVariant variant() const { return variant_; }

    /** Raw decryption phase c0 + c1*s (NTT domain). */
    RnsPoly decryptPhase(const Ciphertext &ct) const;

    /**
     * Homomorphic addition. Operands must share a level and a BGV
     * plaintext correction (modulus-switch them in lockstep), and CKKS
     * scales must agree within 15%. Each rule is vacuous for the other
     * scheme: BGV scales are 0 and CKKS corrections are 1.
     */
    Ciphertext add(const Ciphertext &a, const Ciphertext &b) const;

    /** Homomorphic subtraction (same level and correction). */
    Ciphertext sub(const Ciphertext &a, const Ciphertext &b) const;

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
     *  are the registry's cache.<hintCacheName>.* metrics. */
    void setHintCacheCapacity(size_t cap) { hints_.setCapacity(cap); }

    /**
     * Hoisting: the digit decomposition of a's c1
     * (KeySwitcher::decompose), for the digit variant only. Passed to
     * the schemes' rotate, conjugate or applyGalois of `a`, it replaces
     * the decomposition each of them would otherwise compute, with
     * the same output words, so the Galois ops of one ciphertext
     * decompose it once.
     */
    std::vector<uint32_t> hoistDecomposition(const Ciphertext &a) const;

  protected:
    /**
     * @param errorScale     t for BGV, 1 for CKKS
     * @param seed           root of the key and per-hint randomness
     * @param hintCacheName  registry name of the hint cache
     */
    RlweScheme(const FheContext *ctx, uint64_t errorScale,
               KeySwitchVariant variant, uint64_t seed,
               const char *hintCacheName);

    uint64_t errorScale() const { return errorScale_; }

    /** The scheme's internal encryption stream (not thread-safe). */
    Rng &rng() { return rng_; }

    /** (c0, c1) encrypting m at m's level; metadata left at its
     *  defaults for the scheme to set. */
    Ciphertext encryptPolys(const RnsPoly &m, Rng &rng) const;

    /** Tensor of a and b, relinearized back to s; metadata left at
     *  its defaults. */
    Ciphertext relinTensor(const Ciphertext &a, const Ciphertext &b);

    /** σ_g applied to a and key-switched back to s; metadata left at
     *  its defaults. `digits`, if not empty, is hoistDecomposition(a). */
    Ciphertext galoisSwitch(const Ciphertext &a, uint64_t g,
                            std::span<const uint32_t> digits);

  private:
    const FheContext *ctx_;
    uint64_t errorScale_;
    KeySwitchVariant variant_;
    uint64_t seed_; //!< root of the per-hint randomness derivation
    KeySwitcher switcher_;
    Rng rng_;
    SecretKey sk_;
    RnsPoly sSquared_; //!< s^2 over the full chain (relin source key)
    HintCache hints_;
};

} // namespace f1

#endif // F1_FHE_RLWE_H
