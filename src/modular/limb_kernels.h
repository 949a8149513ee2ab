/**
 * @file
 * Element-wise limb kernels of the modulus switches: the centered
 * lift that moves a residue polynomial from one prime to another, the
 * lazily reduced multiply-accumulate of the key switch, and the
 * reduction of signed coefficients. F1 runs these steps on vector
 * units as wide as its NTT units (paper §5); here they are loops over
 * one limb that the compiler vectorizes, compiled like the NTT stages
 * (see F1_LIMB_KERNEL). Every kernel writes the canonical residue in
 * [0, m) of the same integer as the scalar reference, so the clone
 * the loader picks never changes a bit.
 */
#ifndef F1_MODULAR_LIMB_KERNELS_H
#define F1_MODULAR_LIMB_KERNELS_H

#include <cstddef>
#include <cstdint>
#include <span>

#include "modular/modarith.h"

// The limb kernels (these and the NTT stages in poly/ntt.cpp) are
// compiled from one source twice, for AVX2 and for baseline x86-64,
// and the dynamic loader binds each call to the clone the CPU
// supports (an ifunc, hence the glibc guard). Both clones run the
// same exact integer arithmetic, so their outputs are bit-identical;
// only the vector width differs. ThreadSanitizer instruments the
// ifunc resolver itself, which the loader runs before the sanitizer
// runtime is up (every gcc 12 TSan binary crashed at load), so TSan
// builds compile the baseline only.
#if defined(__SANITIZE_THREAD__)
#define F1_TSAN_BUILD
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define F1_TSAN_BUILD
#endif
#endif
#if defined(__x86_64__) && defined(__GLIBC__) && !defined(F1_TSAN_BUILD) \
    && defined(__has_attribute)
#if __has_attribute(target_clones)
#define F1_LIMB_KERNEL __attribute__((target_clones("avx2", "default")))
#endif
#endif
#ifndef F1_LIMB_KERNEL
#define F1_LIMB_KERNEL
#endif

namespace f1 {

/**
 * dst[i] = (centered lift of src[i]) * w mod m: src holds residues in
 * [0, p), each read as the integer in (-p/2, p/2] it represents, and
 * dst receives that integer times w as a residue mod m. One Shoup
 * multiply per word: a = src + (src > p/2 ? -p mod m : 0) is below
 * 2^32 and congruent to the lift mod m, and mulModShoup takes any
 * 32-bit a. Requires p, m < 2^31, w < m and dst.size() == src.size();
 * dst may not overlap src.
 */
void liftCentered(std::span<const uint32_t> src, uint32_t p,
                  std::span<uint32_t> dst, uint32_t m, uint32_t w);

/**
 * dst[i] = src[i] mod m in [0, m) for any int64_t src[i], the
 * ((x % m) + m) % m of the reference, branch-free: |x| is split into
 * 32-bit halves and reduced by WideModulus, then negated by the sign
 * mask. Requires m < 2^30 and dst.size() == src.size().
 */
void reduceSigned(std::span<const int64_t> src, std::span<uint32_t> dst,
                  uint32_t m);

/**
 * The key-switch multiply-accumulate over one block of at most kBlock
 * words: two sums, sum_t x_t[i] * h0_t[i] and sum_t x_t[i] * h1_t[i]
 * mod m, that share each digit word x_t[i]. Products accumulate in
 * 64-bit lanes (u32 x u32 -> u64) and each lane is reduced once by
 * WideModulus, instead of once per product by Barrett. The modulus is
 * an NTT prime below 2^30 (the constructor checks), so a folded
 * residue plus kFoldEvery products stays below 2^64
 * (16 (2^30 - 1)^2 + 2^30 < 2^64), and add() folds both sums back to
 * residues after every kFoldEvery-th product. The lanes live in the
 * object, so a caller that keeps it on the stack adds 4 KB per thread
 * and no heap memory.
 */
class LazyMacBlock
{
  public:
    static constexpr size_t kBlock = 256;
    static constexpr unsigned kFoldEvery = 16;

    /** Zeroed sums over len <= kBlock words modulo m < 2^30. */
    LazyMacBlock(uint32_t m, size_t len);

    /**
     * Sums += v_i * h0[i] and v_i * h1[i] for i < len, where v_i is
     * x[i], or x[idx[i]] when idx is given (a gather, such as σ_g's
     * NTT-domain permutation).
     */
    void add(const uint32_t *x, const uint32_t *h0, const uint32_t *h1,
             const uint32_t *idx = nullptr);

    /** Writes both sums, reduced into [0, m), to out0 and out1. */
    void finish(uint32_t *out0, uint32_t *out1) const;

  private:
    WideModulus mod_;
    size_t len_;
    unsigned terms_ = 0; //!< products since the last fold
    uint64_t acc0_[kBlock];
    uint64_t acc1_[kBlock];
};

} // namespace f1

#endif // F1_MODULAR_LIMB_KERNELS_H
