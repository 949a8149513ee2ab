#include "poly/ntt.h"

#include <algorithm>

#include "common/bits.h"
#include "common/error.h"
#include "modular/limb_kernels.h"
#include "modular/modarith.h"
#include "modular/primes.h"
#include "obs/profile.h"

namespace f1 {

NttTables::NttTables(uint32_t n, uint32_t q) : n_(n), q_(q)
{
    F1_REQUIRE(isPowerOfTwo(n) && n >= 2, "NTT length must be a power "
               "of two >= 2, got " << n);
    // Harvey lazy butterflies carry values in [0, 4q); 4q must fit a
    // 32-bit word.
    F1_REQUIRE(q < (1u << kLazyModulusBits),
               "modulus " << q << " leaves no lazy-reduction headroom "
               "(need q < 2^" << kLazyModulusBits << ")");
    F1_REQUIRE((q - 1) % (2 * n) == 0,
               "modulus " << q << " is not NTT-friendly for n=" << n);
    logN_ = log2Exact(n);
    psi_ = primitiveRootOfUnity(2 * n, q);
    psiInv_ = invMod(psi_, q);
    omega_ = mulMod(psi_, psi_, q);
    omegaInv_ = invMod(omega_, q);
    nInv_ = invMod(n, q);
    buildTwiddles();
    bitRev_.resize(n_);
    for (uint32_t i = 0; i < n_; ++i)
        bitRev_[i] = bitReverse(i, logN_);
}

void
NttTables::buildTwiddles()
{
    tw_.resize(n_);
    twPre_.resize(n_);
    twInv_.resize(n_);
    twInvPre_.resize(n_);
    // Stage `half` (half = len/2) uses tw_[half + j] = omega^((n/2half)j).
    for (uint32_t half = 1; half < n_; half <<= 1) {
        uint32_t wlen = powMod(omega_, n_ / (2 * half), q_);
        uint32_t wlenInv = powMod(omegaInv_, n_ / (2 * half), q_);
        uint32_t w = 1, wi = 1;
        for (uint32_t j = 0; j < half; ++j) {
            tw_[half + j] = w;
            twPre_[half + j] = shoupPrecompute(w, q_);
            twInv_[half + j] = wi;
            twInvPre_[half + j] = shoupPrecompute(wi, q_);
            w = mulMod(w, wlen, q_);
            wi = mulMod(wi, wlenInv, q_);
        }
    }

    psiPow_.resize(n_);
    psiPowPre_.resize(n_);
    psiInvN_.resize(n_);
    psiInvNPre_.resize(n_);
    uint32_t p = 1;
    uint32_t pin = nInv_;
    for (uint32_t i = 0; i < n_; ++i) {
        psiPow_[i] = p;
        psiPowPre_[i] = shoupPrecompute(p, q_);
        psiInvN_[i] = pin;
        psiInvNPre_[i] = shoupPrecompute(pin, q_);
        p = mulMod(p, psi_, q_);
        pin = mulMod(pin, psiInv_, q_);
    }

    lenInv_.resize(logN_ + 1);
    lenInvPre_.resize(logN_ + 1);
    for (uint32_t lg = 0; lg <= logN_; ++lg) {
        lenInv_[lg] = invMod(1u << lg, q_);
        lenInvPre_[lg] = shoupPrecompute(lenInv_[lg], q_);
    }
}

uint32_t
NttTables::omegaPow(uint64_t e) const
{
    return powMod(omega_, e % n_, q_);
}

namespace {

/**
 * In-place bit-reversal permutation of a power-of-two-length span,
 * one bitReverse per index: the strict reference path's permutation.
 */
void
bitReversePermute(std::span<uint32_t> a)
{
    const uint32_t len = static_cast<uint32_t>(a.size());
    const uint32_t bits = log2Exact(len);
    for (uint32_t i = 0; i < len; ++i) {
        uint32_t j = bitReverse(i, bits);
        if (i < j)
            std::swap(a[i], a[j]);
    }
}

// The lazy kernels below carry F1_LIMB_KERNEL: one AVX2 and one
// baseline clone, bit-identical (modular/limb_kernels.h).

/**
 * Forward Harvey butterfly on one (lo, hi) pair with twiddle w: lo is
 * reduced into [0, 2q) by a branch-free conditional subtraction
 * (x - 2q wraps above x when x < 2q, so the min keeps x), hi is
 * multiplied lazily into [0, 2q), and the outputs x+t / x-t+2q land
 * back in [0, 4q).
 */
inline void
forwardButterfly(uint32_t &lo, uint32_t &hi, uint32_t w, uint32_t wPre,
                 uint32_t q)
{
    const uint32_t twoQ = 2 * q;
    const uint32_t x = std::min(lo, lo - twoQ);
    const uint32_t t = mulModShoupLazy(hi, w, wPre, q);
    lo = addLazy(x, t);
    hi = subLazy(x, t, twoQ);
}

/** Gentleman-Sande butterfly: [0, 2q) in, [0, 2q) out. */
inline void
inverseButterfly(uint32_t &lo, uint32_t &hi, uint32_t w, uint32_t wPre,
                 uint32_t q)
{
    const uint32_t twoQ = 2 * q;
    const uint32_t s = addLazy(lo, hi); // [0, 4q)
    const uint32_t d = subLazy(lo, hi, twoQ);
    lo = std::min(s, s - twoQ);
    hi = mulModShoupLazy(d, w, wPre, q);
}

/**
 * One block of a stage at least a vector wide: lo[j] pairs with hi[j]
 * under twiddle tw[j], and the loop vectorizes within the block. The
 * halves never overlap, hence __restrict.
 */
template <auto Butterfly>
inline void
wideBlock(uint32_t *__restrict lo, uint32_t *__restrict hi,
          const uint32_t *__restrict tw, const uint32_t *__restrict twPre,
          uint32_t half, uint32_t q)
{
    for (uint32_t j = 0; j < half; ++j)
        Butterfly(lo[j], hi[j], tw[j], twPre[j], q);
}

/**
 * A whole stage whose blocks (2 kHalf words) are narrower than a
 * vector. kHalf is a compile-time constant, so the inner loop unrolls
 * and the block loop vectorizes across blocks; looping block by block
 * instead cost 7x more per butterfly at kHalf = 1.
 */
template <uint32_t kHalf, auto Butterfly>
inline void
narrowStage(uint32_t *__restrict a, uint32_t len,
            const uint32_t *__restrict tw,
            const uint32_t *__restrict twPre, uint32_t q)
{
    for (uint32_t k = 0; k < len / (2 * kHalf); ++k)
        for (uint32_t j = 0; j < kHalf; ++j)
            Butterfly(a[2 * kHalf * k + j], a[2 * kHalf * k + kHalf + j],
                      tw[kHalf + j], twPre[kHalf + j], q);
}

/**
 * Lazy Cooley-Tukey stages over a bit-reversed span of length len,
 * then the correction pass: [0, 4q) in, [0, q) out.
 */
F1_LIMB_KERNEL void
forwardStages(uint32_t *a, uint32_t len, const uint32_t *tw,
              const uint32_t *twPre, uint32_t q)
{
    if (len >= 2)
        narrowStage<1, forwardButterfly>(a, len, tw, twPre, q);
    if (len >= 4)
        narrowStage<2, forwardButterfly>(a, len, tw, twPre, q);
    if (len >= 8)
        narrowStage<4, forwardButterfly>(a, len, tw, twPre, q);
    for (uint32_t half = 8; half < len; half <<= 1)
        for (uint32_t base = 0; base < len; base += 2 * half)
            wideBlock<forwardButterfly>(a + base, a + base + half,
                                        tw + half, twPre + half, half, q);
    for (uint32_t i = 0; i < len; ++i)
        a[i] = lazyCorrect(a[i], q, 2 * q);
}

/** Lazy Gentleman-Sande stages; output in bit-reversed order. */
F1_LIMB_KERNEL void
inverseStages(uint32_t *a, uint32_t len, const uint32_t *tw,
              const uint32_t *twPre, uint32_t q)
{
    for (uint32_t half = len >> 1; half >= 8; half >>= 1)
        for (uint32_t base = 0; base < len; base += 2 * half)
            wideBlock<inverseButterfly>(a + base, a + base + half,
                                        tw + half, twPre + half, half, q);
    if (len >= 8)
        narrowStage<4, inverseButterfly>(a, len, tw, twPre, q);
    if (len >= 4)
        narrowStage<2, inverseButterfly>(a, len, tw, twPre, q);
    if (len >= 2)
        narrowStage<1, inverseButterfly>(a, len, tw, twPre, q);
}

/** a[i] * w[i] mod q lazily into [0, 2q): the ψ-power pass. */
F1_LIMB_KERNEL void
mulPointwiseLazy(uint32_t *__restrict a, const uint32_t *__restrict w,
                 const uint32_t *__restrict wPre, uint32_t len, uint32_t q)
{
    for (uint32_t i = 0; i < len; ++i)
        a[i] = mulModShoupLazy(a[i], w[i], wPre[i], q);
}

/** a[i] * w[i] mod q into [0, q): the ψ^-i/n pass. */
F1_LIMB_KERNEL void
mulPointwise(uint32_t *__restrict a, const uint32_t *__restrict w,
             const uint32_t *__restrict wPre, uint32_t len, uint32_t q)
{
    for (uint32_t i = 0; i < len; ++i)
        a[i] = mulModShoup(a[i], w[i], wPre[i], q);
}

} // namespace

/**
 * Bit-reversal permutation of a span of length n >> shift through the
 * precomputed table: bitRev_[i] >> shift reverses the low log2(len)
 * bits of i < len, because the high `shift` bits of i are zero.
 */
void
NttTables::permute(std::span<uint32_t> a) const
{
    const uint32_t len = static_cast<uint32_t>(a.size());
    const uint32_t shift = logN_ - log2Exact(len);
    const uint32_t *rev = bitRev_.data();
    for (uint32_t i = 0; i < len; ++i) {
        const uint32_t j = rev[i] >> shift;
        if (i < j)
            std::swap(a[i], a[j]);
    }
}

/**
 * Lazy Cooley-Tukey (decimation-in-time) forward stages: bit-reversal
 * followed by Harvey butterflies and the correction pass. Accepts
 * values in [0, 4q); leaves values in [0, q).
 */
void
NttTables::forwardStagesLazy(std::span<uint32_t> a) const
{
    permute(a);
    forwardStages(a.data(), static_cast<uint32_t>(a.size()), tw_.data(),
                  twPre_.data(), q_);
}

/**
 * Lazy Gentleman-Sande (decimation-in-frequency) inverse stages with a
 * trailing bit-reversal — the exact same unscaled inverse DFT the
 * strict DIT loop computes, but with the invariant that every value
 * stays in [0, 2q): the sum butterfly output is conditionally reduced,
 * the difference goes through the lazy multiply. Callers apply the
 * 1/len (or fused ψ^-i/n) scaling with a fully-reducing mulModShoup,
 * which accepts the [0, 2q) inputs and restores [0, q).
 */
void
NttTables::inverseStagesLazy(std::span<uint32_t> a) const
{
    inverseStages(a.data(), static_cast<uint32_t>(a.size()),
                  twInv_.data(), twInvPre_.data(), q_);
    permute(a);
}

void
NttTables::cyclicForward(std::span<uint32_t> a) const
{
    const uint32_t len = static_cast<uint32_t>(a.size());
    F1_CHECK(isPowerOfTwo(len) && len <= n_, "bad cyclic NTT length");
    forwardStagesLazy(a);
}

void
NttTables::cyclicInverse(std::span<uint32_t> a) const
{
    const uint32_t len = static_cast<uint32_t>(a.size());
    F1_CHECK(isPowerOfTwo(len) && len <= n_, "bad cyclic NTT length");
    inverseStagesLazy(a);
    const uint32_t lg = log2Exact(len);
    // Fully-reducing scale: accepts [0, 2q), restores [0, q).
    for (auto &x : a)
        x = mulModShoup(x, lenInv_[lg], lenInvPre_[lg], q_);
}

void
NttTables::forward(std::span<uint32_t> a) const
{
    F1_CHECK(a.size() == n_, "forward NTT length mismatch");
    // Per-job telemetry: one TLS null check when profiling is off.
    obs::profileAdd(obs::ProfileCounter::kNttForward);
    // ψ-powers pre-multiplication, lazily into [0, 2q).
    mulPointwiseLazy(a.data(), psiPow_.data(), psiPowPre_.data(), n_, q_);
    forwardStagesLazy(a);
}

void
NttTables::inverse(std::span<uint32_t> a) const
{
    F1_CHECK(a.size() == n_, "inverse NTT length mismatch");
    obs::profileAdd(obs::ProfileCounter::kNttInverse);
    // Unscaled lazy inverse FFT, then ψ^-i/n in one fully-reducing
    // pass (the fused table folds the 1/n in; it also serves as the
    // lazy pipeline's correction pass).
    inverseStagesLazy(a);
    mulPointwise(a.data(), psiInvN_.data(), psiInvNPre_.data(), n_, q_);
}

void
NttTables::cyclicForwardStrict(std::span<uint32_t> a) const
{
    const uint32_t len = static_cast<uint32_t>(a.size());
    F1_CHECK(isPowerOfTwo(len) && len <= n_, "bad cyclic NTT length");
    bitReversePermute(a);
    for (uint32_t half = 1; half < len; half <<= 1) {
        for (uint32_t base = 0; base < len; base += 2 * half) {
            for (uint32_t j = 0; j < half; ++j) {
                uint32_t u = a[base + j];
                uint32_t v = mulModShoup(a[base + half + j],
                                         tw_[half + j],
                                         twPre_[half + j], q_);
                a[base + j] = addMod(u, v, q_);
                a[base + half + j] = subMod(u, v, q_);
            }
        }
    }
}

void
NttTables::cyclicInverseStrict(std::span<uint32_t> a) const
{
    const uint32_t len = static_cast<uint32_t>(a.size());
    F1_CHECK(isPowerOfTwo(len) && len <= n_, "bad cyclic NTT length");
    bitReversePermute(a);
    for (uint32_t half = 1; half < len; half <<= 1) {
        for (uint32_t base = 0; base < len; base += 2 * half) {
            for (uint32_t j = 0; j < half; ++j) {
                uint32_t u = a[base + j];
                uint32_t v = mulModShoup(a[base + half + j],
                                         twInv_[half + j],
                                         twInvPre_[half + j], q_);
                a[base + j] = addMod(u, v, q_);
                a[base + half + j] = subMod(u, v, q_);
            }
        }
    }
    const uint32_t lg = log2Exact(len);
    for (auto &x : a)
        x = mulModShoup(x, lenInv_[lg], lenInvPre_[lg], q_);
}

void
NttTables::forwardStrict(std::span<uint32_t> a) const
{
    F1_CHECK(a.size() == n_, "forward NTT length mismatch");
    for (uint32_t i = 0; i < n_; ++i)
        a[i] = mulModShoup(a[i], psiPow_[i], psiPowPre_[i], q_);
    cyclicForwardStrict(a);
}

void
NttTables::inverseStrict(std::span<uint32_t> a) const
{
    F1_CHECK(a.size() == n_, "inverse NTT length mismatch");
    bitReversePermute(a);
    for (uint32_t half = 1; half < n_; half <<= 1) {
        for (uint32_t base = 0; base < n_; base += 2 * half) {
            for (uint32_t j = 0; j < half; ++j) {
                uint32_t u = a[base + j];
                uint32_t v = mulModShoup(a[base + half + j],
                                         twInv_[half + j],
                                         twInvPre_[half + j], q_);
                a[base + j] = addMod(u, v, q_);
                a[base + half + j] = subMod(u, v, q_);
            }
        }
    }
    for (uint32_t i = 0; i < n_; ++i)
        a[i] = mulModShoup(a[i], psiInvN_[i], psiInvNPre_[i], q_);
}

std::vector<uint32_t>
slowNegacyclicNtt(std::span<const uint32_t> a, uint32_t q, uint32_t psi)
{
    const size_t n = a.size();
    std::vector<uint32_t> out(n);
    for (size_t k = 0; k < n; ++k) {
        uint64_t acc = 0;
        uint32_t base = powMod(psi, 2 * k + 1, q);
        uint32_t x = 1;
        for (size_t i = 0; i < n; ++i) {
            acc = (acc + (uint64_t)a[i] * x) % q;
            x = mulMod(x, base, q);
        }
        out[k] = static_cast<uint32_t>(acc);
    }
    return out;
}

std::vector<uint32_t>
slowNegacyclicMul(std::span<const uint32_t> a, std::span<const uint32_t> b,
                  uint32_t q)
{
    const size_t n = a.size();
    F1_CHECK(b.size() == n, "length mismatch");
    std::vector<uint32_t> out(n, 0);
    for (size_t i = 0; i < n; ++i) {
        for (size_t j = 0; j < n; ++j) {
            uint32_t p = mulMod(a[i], b[j], q);
            size_t k = i + j;
            if (k < n)
                out[k] = addMod(out[k], p, q);
            else
                out[k - n] = subMod(out[k - n], p, q); // x^n = -1
        }
    }
    return out;
}

} // namespace f1
