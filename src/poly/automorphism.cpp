#include "poly/automorphism.h"

#include "common/bits.h"
#include "common/error.h"
#include "modular/modarith.h"
#include "poly/transpose.h"

namespace f1 {

uint64_t
invOddMod2k(uint64_t g, uint64_t modulus)
{
    F1_CHECK(isPowerOfTwo(modulus), "modulus must be a power of two");
    F1_CHECK(g & 1, "only odd values are invertible mod 2^k");
    // Newton iteration; 6 rounds cover 64 bits.
    uint64_t x = g;
    for (int i = 0; i < 6; ++i)
        x *= 2 - g * x;
    return x & (modulus - 1);
}

void
automorphismCoeff(std::span<const uint32_t> in, std::span<uint32_t> out,
                  uint64_t g, uint32_t q)
{
    const uint64_t n = in.size();
    F1_CHECK(out.size() == n && isPowerOfTwo(n), "bad automorphism size");
    F1_CHECK((g & 1) && g < 2 * n, "automorphism index must be odd < 2N");
    const uint64_t h = invOddMod2k(g, 2 * n) & (n - 1); // g^-1 mod N
    for (uint64_t j = 0; j < n; ++j) {
        uint64_t i = (j * h) & (n - 1);
        uint64_t full = (i * g) & (2 * n - 1); // i*g mod 2N ∈ {j, j+N}
        uint32_t v = in[i];
        out[j] = (full == j) ? v : negMod(v, q);
    }
}

void
automorphismNtt(std::span<const uint32_t> in, std::span<uint32_t> out,
                uint64_t g)
{
    const uint64_t n = in.size();
    F1_CHECK(out.size() == n && isPowerOfTwo(n), "bad automorphism size");
    F1_CHECK((g & 1) && g < 2 * n, "automorphism index must be odd < 2N");
    // out[k] = in[k''] with 2k''+1 = g(2k+1) mod 2N; no sign flips
    // because ψ^(2N) = 1.
    for (uint64_t k = 0; k < n; ++k)
        out[k] = in[automorphismNttSource(g, k, n)];
}

void
affineGatherDecomposed(std::span<const uint32_t> in,
                       std::span<uint32_t> out,
                       uint64_t m, uint64_t t, uint32_t lanes)
{
    const uint64_t n = in.size();
    F1_CHECK(out.size() == n, "size mismatch");
    F1_CHECK((m & 1) != 0, "gather multiplier must be odd");
    F1_CHECK(isPowerOfTwo(lanes) && n % lanes == 0,
             "lanes must be a power of two dividing N");
    const uint64_t e = lanes;
    const uint64_t g_chunks = n / e;

    // Stage 1: identical column permutation applied to every chunk.
    //   B[r][c] = in[r*E + ((m*c + t) mod E)]
    std::vector<uint32_t> b(n);
    for (uint64_t r = 0; r < g_chunks; ++r)
        for (uint64_t c = 0; c < e; ++c)
            b[r * e + c] = in[r * e + ((m * c + t) % e)];

    // Transpose G×E -> E×G (the hardware quadrant-swap unit).
    std::vector<uint32_t> ct(n);
    transposeDirect<uint32_t>(b, ct, g_chunks, e);

    // Stage 2: per-chunk row permutation: multiply-by-m plus a cyclic
    // shift of floor((m*c + t)/E), both mod G.
    std::vector<uint32_t> d(n);
    for (uint64_t c = 0; c < e; ++c) {
        const uint64_t shift = ((m * c + t) / e) % g_chunks;
        for (uint64_t r = 0; r < g_chunks; ++r) {
            uint64_t src = (m * r + shift) % g_chunks;
            d[c * g_chunks + r] = ct[c * g_chunks + src];
        }
    }

    // Reverse transpose E×G -> G×E.
    transposeDirect<uint32_t>(d, out, e, g_chunks);
}

void
automorphismCoeffDecomposed(std::span<const uint32_t> in,
                            std::span<uint32_t> out,
                            uint64_t g, uint32_t q, uint32_t lanes)
{
    const uint64_t n = in.size();
    const uint64_t h = invOddMod2k(g, 2 * n) & (n - 1);
    affineGatherDecomposed(in, out, h, 0, lanes);
    // Sign-flip pass (the "sign flip" block of Fig. 6), chunk-local.
    for (uint64_t j = 0; j < n; ++j) {
        uint64_t i = (j * h) & (n - 1);
        uint64_t full = (i * g) & (2 * n - 1);
        if (full != j)
            out[j] = negMod(out[j], q);
    }
}

void
automorphismNttDecomposed(std::span<const uint32_t> in,
                          std::span<uint32_t> out,
                          uint64_t g, uint32_t lanes)
{
    const uint64_t n = in.size();
    // out[k] = in[(g*(2k+1)-1)/2 mod N] = in[(g*k + (g-1)/2) mod N].
    affineGatherDecomposed(in, out, g & (2 * n - 1), (g - 1) / 2, lanes);
}

} // namespace f1
