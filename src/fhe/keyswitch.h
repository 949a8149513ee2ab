/**
 * @file
 * Key-switching (paper §2.2.1, §2.4, Listing 1), the dominant cost of
 * homomorphic multiplication and permutation. Two implementations with
 * different compute/data tradeoffs, matching the algorithmic choice the
 * F1 compiler exploits (§4.2):
 *
 *  - kDigitLxL ("Listing 1"): RNS-digit decomposition. The hint is an
 *    L×L matrix pair (2*L*L residue vectors, ~32 MB at L=16, N=16K);
 *    applying it takes L INTTs and L*(L-1) NTTs plus 2L^2 multiply-adds.
 *
 *  - kGhsExtension: GHS-style with an auxiliary prime basis P. The hint
 *    is a single pair over the extended basis (2*(L+K) residue vectors,
 *    O(L)); applying it costs basis extensions (heavy element-wise
 *    compute) but only ~3(L+K) NTT-class operations.
 *
 * Hints are generated per (source key, level); the scheme layer caches
 * them (they are exactly the values whose reuse the F1 scheduler
 * maximizes).
 */
#ifndef F1_FHE_KEYSWITCH_H
#define F1_FHE_KEYSWITCH_H

#include <cstdint>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/lru_cache.h"
#include "fhe/fhe_context.h"
#include "poly/rns_poly.h"

namespace f1 {

enum class KeySwitchVariant { kDigitLxL, kGhsExtension };

struct SecretKey
{
    RnsPoly s; //!< ternary key over the full chain, NTT domain
};

struct KeySwitchHint
{
    KeySwitchVariant variant;
    size_t level; //!< ciphertext level this hint serves

    /**
     * Variant A: a[i], b[i] for each digit i < level; apply() touches
     * residues {0..level-1} plus the special prime of each.
     * Variant B: a[0], b[0] over the extended basis.
     * Polys are stored over the full chain for layout uniformity.
     */
    std::vector<RnsPoly> a, b;

    /** Residue vectors actually read by apply(): the hint's working
     *  set for traffic accounting. A: 2*L*(L+1); B: 2*(L+K). */
    size_t usedRVecs = 0;
    size_t sizeRVecs() const { return usedRVecs; }
};

/**
 * Identity of a cached key-switch hint: the Galois element (0 for the
 * relinearization hint — Galois elements are odd, so 0 is free) and
 * the ciphertext level it serves.
 */
struct HintKey
{
    uint64_t galois = 0;
    uint64_t level = 0;
    bool operator==(const HintKey &) const = default;
};

struct HintKeyHash
{
    size_t
    operator()(const HintKey &k) const
    {
        return static_cast<size_t>(
            hashCombine(hashMix(k.galois), k.level));
    }
};

/**
 * Thread-safe cache of generated hints, shared by every consumer of a
 * scheme instance (op-graph executor, serving engine, benches).
 * Unbounded by default; the serving layer may cap it, in which case
 * entries are pinned by the shared_ptr accessors while in use.
 */
using HintCache = LruCache<HintKey, KeySwitchHint, HintKeyHash>;

/**
 * Deterministic seed for the randomness of the hint identified by
 * (galois, level) under a scheme seeded with `schemeSeed`. Deriving
 * the stream from the identity — instead of drawing from the scheme's
 * sequential PRNG — makes hint bits independent of the order in which
 * concurrent jobs first request them, which the runtime's run-to-run
 * determinism contract relies on.
 */
inline uint64_t
hintSeed(uint64_t schemeSeed, uint64_t galois, uint64_t level)
{
    return hashCombine(
        hashCombine(hashCombine(schemeSeed, 0x6b73776869ULL), galois),
        level);
}

/**
 * One RLWE sample under secret s: (a, b) with a uniform at s's level
 * and b = -a*s + errorScale*e, e a fresh error. Draws a, then e, from
 * `rng`. Encryption, key-switch hints and RLWE' rows all start here.
 */
std::pair<RnsPoly, RnsPoly> rlweSample(const FheContext *ctx,
                                       const RnsPoly &s,
                                       uint64_t errorScale, Rng &rng);

class KeySwitcher
{
  public:
    explicit KeySwitcher(const FheContext *ctx) : ctx_(ctx) {}

    /** Generates a fresh secret key over the full chain. */
    SecretKey keyGen(Rng &rng) const;

    /**
     * Builds a hint for re-keying x*w-shaped terms to key s:
     * apply() then returns (u0, u1) with u0 + u1*s ≈ x*w.
     *
     * @param w          source key component (e.g. s^2 or σ_g(s)),
     *                   NTT domain, >= level residues
     * @param errorScale t for BGV (noise enters multiplied by t), 1 for
     *                   CKKS
     */
    KeySwitchHint makeHint(const RnsPoly &w, const SecretKey &sk,
                           size_t level, uint64_t errorScale,
                           KeySwitchVariant variant, Rng &rng) const;

    /**
     * Applies the hint to x (NTT domain, hint->level residues).
     * Returns (u0, u1), both NTT domain at the same level.
     * For variant B, errorScale must match the hint's generation.
     */
    std::pair<RnsPoly, RnsPoly> apply(const RnsPoly &x,
                                      const KeySwitchHint &hint,
                                      uint64_t errorScale) const;

  private:
    std::pair<RnsPoly, RnsPoly> applyDigitScaled(
        const RnsPoly &x, const KeySwitchHint &hint,
        uint64_t errorScale) const;
    std::pair<RnsPoly, RnsPoly> applyGhs(
        const RnsPoly &x, const KeySwitchHint &hint,
        uint64_t errorScale) const;

    const FheContext *ctx_;
};

/**
 * Drops the last residue of a ciphertext polynomial, dividing it by
 * q_last with rounding (modulus switching / CKKS rescaling):
 * p' = (p - δ)/q_last where δ ≡ p (mod q_last) and δ ≡ 0 (mod tAdjust).
 * Use tAdjust = t for BGV, 1 for CKKS. Input and output in NTT domain.
 */
void dropLastModulusRounded(RnsPoly &p, uint64_t tAdjust);

/**
 * RNS digit decomposition with centered lift (Listing 1 lines 3+8):
 * returns, for each residue i of x, the polynomial x̃_i that is
 * congruent to the centered lift of [x]_{q_i} modulo every prime of
 * x's level, in the NTT domain. Shared by the digit key-switch variant
 * and the GSW external product.
 */
std::vector<RnsPoly> digitDecomposeLift(const RnsPoly &x);

} // namespace f1

#endif // F1_FHE_KEYSWITCH_H
