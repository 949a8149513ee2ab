/**
 * @file
 * Key-switching (paper §2.2.1, §2.4, Listing 1), the dominant cost of
 * homomorphic multiplication and permutation. Two implementations with
 * different compute/data tradeoffs, matching the algorithmic choice the
 * F1 compiler exploits (§4.2):
 *
 *  - kDigitLxL ("Listing 1"): RNS-digit decomposition. The hint is an
 *    L×L matrix pair (2*L*L residue vectors, ~32 MB at L=16, N=16K);
 *    applying it is a decomposition of x (L inverse and L^2 forward
 *    NTTs, over the L primes and the special prime, with a centered
 *    lift of one Shoup multiply per word before each forward NTT)
 *    plus an inner product with the hint (2L(L+1) multiply-adds per
 *    coefficient, summed in 64-bit lanes and reduced once per word
 *    and sum; then the special-prime scale-down: 2 inverse NTTs and
 *    2L lifts and forward NTTs). The element-wise steps are the limb
 *    kernels of modular/limb_kernels.h; at N = 8192, L = 4 the NTTs
 *    are most of the rest.
 *    The decomposition depends only on x, so the rotations of one
 *    ciphertext can share it (hoisting: decompose, then innerProduct).
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
#include <span>
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

/**
 * Words of one digit decomposition of a level-L polynomial over N
 * coefficients (KeySwitcher::decompose): L digits × (L + 1) tracks.
 */
constexpr size_t
digitDecompositionWords(size_t level, uint32_t n)
{
    return level * (level + 1) * size_t(n);
}

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
     * errorScale must match the hint's generation. The digit variant
     * is decompose() into scratch, then innerProduct() with g = 1.
     */
    std::pair<RnsPoly, RnsPoly> apply(const RnsPoly &x,
                                      const KeySwitchHint &hint,
                                      uint64_t errorScale) const;

    /**
     * RNS digit decomposition with centered lift (Listing 1 lines 3
     * and 8) of x (NTT domain, L = x.levels() residues): digit i is
     * the centered lift of [x]_{q_i}, reduced into L + 1 tracks (the
     * primes q_0..q_{L-1}, then the special prime), each in NTT form.
     * Digit i's track j fills out[(i*(L+1) + j)*N, +N); out.size()
     * must be digitDecompositionWords(L, N). Track i of digit i is x's
     * own residue i, so this costs L inverse and L^2 forward NTTs.
     */
    void decompose(const RnsPoly &x, std::span<uint32_t> out) const;

    /**
     * The digit key switch over a decomposition of x: returns
     * apply(σ_g(x), hint, errorScale) word for word, where `digits`
     * is decompose(x) and `hint` serves σ_g at x's level (g = 1:
     * apply(x, hint, errorScale)). Each track is read through σ_g's
     * NTT-domain permutation: a digit is a centered lift and q is odd,
     * so decompose(σ_g(x)) = σ_g(decompose(x)), and the rotations of
     * one ciphertext share one decomposition. Digit hints only.
     */
    std::pair<RnsPoly, RnsPoly> innerProduct(
        std::span<const uint32_t> digits, const KeySwitchHint &hint,
        uint64_t errorScale, uint64_t g = 1) const;

  private:
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
 * Costs one inverse NTT, then per remaining residue a centered lift
 * of δ (liftCentered), a forward NTT and one subtract-and-multiply
 * pass.
 */
void dropLastModulusRounded(RnsPoly &p, uint64_t tAdjust);

} // namespace f1

#endif // F1_FHE_KEYSWITCH_H
