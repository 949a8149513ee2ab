#include "modular/limb_kernels.h"

#include <algorithm>

#include "common/error.h"

namespace f1 {

namespace {

/** Words per pass of the split reductions below (stack arrays). */
constexpr size_t kSplit = LazyMacBlock::kBlock;

// The two helpers below are forced inline into each clone of their
// callers, so they vectorize for that clone's ISA: gcc left one
// out-of-line, and every clone then ran its baseline code.

/**
 * dst[i] = (hi[i] * 2^32 + lo[i]) mod m for i < len <= kSplit. The
 * callers split their 64-bit words into 32-bit halves first, so this
 * loop runs on 32-bit lanes, eight to an AVX2 vector; reducing
 * straight from 64-bit lanes took 1.6x as long.
 */
[[gnu::always_inline]] inline void
reduceHalves(const uint32_t *__restrict hi, const uint32_t *__restrict lo,
             uint32_t *__restrict dst, size_t len, const WideModulus &mod)
{
    for (size_t i = 0; i < len; ++i)
        dst[i] = mod.reduce(hi[i], lo[i]);
}

/** dst[i] = acc[i] mod m for i < len <= kSplit. */
[[gnu::always_inline]] inline void
reduceWide(const uint64_t *__restrict acc, uint32_t *__restrict dst,
           size_t len, const WideModulus &mod)
{
    uint32_t hi[kSplit], lo[kSplit];
    for (size_t i = 0; i < len; ++i) {
        hi[i] = static_cast<uint32_t>(acc[i] >> 32);
        lo[i] = static_cast<uint32_t>(acc[i]);
    }
    reduceHalves(hi, lo, dst, len, mod);
}

/**
 * acc0[i] += v_i * h0[i] and acc1[i] += v_i * h1[i], unreduced, where
 * v_i = x[idx[i]] (a gather) when idx is given and x[i] otherwise.
 * Gathering inside the clone took a fifth less time than gathering
 * into a buffer first.
 */
F1_LIMB_KERNEL void
mulAccumulateWide(uint64_t *__restrict acc0, uint64_t *__restrict acc1,
                  const uint32_t *__restrict x,
                  const uint32_t *__restrict idx,
                  const uint32_t *__restrict h0,
                  const uint32_t *__restrict h1, size_t len)
{
    if (idx != nullptr) {
        for (size_t i = 0; i < len; ++i) {
            const uint64_t v = x[idx[i]];
            acc0[i] += v * h0[i];
            acc1[i] += v * h1[i];
        }
        return;
    }
    for (size_t i = 0; i < len; ++i) {
        acc0[i] += uint64_t(x[i]) * h0[i];
        acc1[i] += uint64_t(x[i]) * h1[i];
    }
}

/** acc[i] = acc[i] mod m, in place: the fold between products. */
F1_LIMB_KERNEL void
foldWide(uint64_t *acc, size_t len, WideModulus mod)
{
    uint32_t r[kSplit];
    reduceWide(acc, r, len, mod);
    std::copy(r, r + len, acc);
}

/** dst[i] = acc[i] mod m: the final reduction to residue words. */
F1_LIMB_KERNEL void
narrowWide(const uint64_t *acc, uint32_t *dst, size_t len,
           WideModulus mod)
{
    reduceWide(acc, dst, len, mod);
}

F1_LIMB_KERNEL void
liftCenteredWords(const uint32_t *__restrict src, uint32_t half,
                  uint32_t negP, uint32_t *__restrict dst, size_t len,
                  uint32_t m, uint32_t w, uint32_t wPre)
{
    for (size_t i = 0; i < len; ++i) {
        const uint32_t a = src[i] + (src[i] > half ? negP : 0);
        dst[i] = mulModShoup(a, w, wPre, m);
    }
}

/**
 * |x| = hi * 2^32 + lo, reduced by reduceHalves, then negated by the
 * sign mask (m - 0 = m folds back to 0 by the min).
 */
F1_LIMB_KERNEL void
reduceSignedWords(const int64_t *src, uint32_t *dst, size_t len,
                  WideModulus mod)
{
    uint32_t hi[kSplit], lo[kSplit], neg[kSplit];
    for (size_t base = 0; base < len; base += kSplit) {
        const size_t n = std::min(kSplit, len - base);
        uint32_t *out = dst + base;
        for (size_t i = 0; i < n; ++i) {
            const int64_t x = src[base + i];
            const uint64_t sign = static_cast<uint64_t>(x >> 63);
            const uint64_t mag = (static_cast<uint64_t>(x) ^ sign) - sign;
            hi[i] = static_cast<uint32_t>(mag >> 32);
            lo[i] = static_cast<uint32_t>(mag);
            neg[i] = static_cast<uint32_t>(sign);
        }
        reduceHalves(hi, lo, out, n, mod);
        for (size_t i = 0; i < n; ++i) {
            const uint32_t r = out[i];
            const uint32_t s = ((mod.m - r) & neg[i]) | (r & ~neg[i]);
            out[i] = std::min(s, s - mod.m);
        }
    }
}

} // namespace

void
liftCentered(std::span<const uint32_t> src, uint32_t p,
             std::span<uint32_t> dst, uint32_t m, uint32_t w)
{
    F1_CHECK(dst.size() == src.size(), "lift of " << src.size()
             << " words into " << dst.size());
    F1_CHECK(w < m, "lift multiplier " << w << " not reduced mod " << m);
    // src > p/2 lifts to src - p, congruent to src + (-p mod m).
    liftCenteredWords(src.data(), p / 2, negMod(p % m, m), dst.data(),
                      src.size(), m, w, shoupPrecompute(w, m));
}

void
reduceSigned(std::span<const int64_t> src, std::span<uint32_t> dst,
             uint32_t m)
{
    F1_CHECK(dst.size() == src.size(), "reduction of " << src.size()
             << " words into " << dst.size());
    reduceSignedWords(src.data(), dst.data(), src.size(), WideModulus(m));
}

LazyMacBlock::LazyMacBlock(uint32_t m, size_t len) : mod_(m), len_(len)
{
    F1_CHECK(len <= kBlock, "lazy multiply-accumulate over " << len
             << " words, at most " << kBlock);
    std::fill(acc0_, acc0_ + len_, 0);
    std::fill(acc1_, acc1_ + len_, 0);
}

void
LazyMacBlock::add(const uint32_t *x, const uint32_t *h0, const uint32_t *h1,
                  const uint32_t *idx)
{
    mulAccumulateWide(acc0_, acc1_, x, idx, h0, h1, len_);
    if (++terms_ == kFoldEvery) {
        foldWide(acc0_, len_, mod_);
        foldWide(acc1_, len_, mod_);
        terms_ = 0;
    }
}

void
LazyMacBlock::finish(uint32_t *out0, uint32_t *out1) const
{
    narrowWide(acc0_, out0, len_, mod_);
    narrowWide(acc1_, out1, len_, mod_);
}

} // namespace f1
