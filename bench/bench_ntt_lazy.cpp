/**
 * @file
 * Lazy-vs-strict NTT microbench plus key-switch arena stats, emitting
 * one JSON document on stdout for the per-PR perf trajectory
 * (uploaded by CI as BENCH_ntt.json).
 *
 * Part 1 times a forward+inverse negacyclic NTT pair per modulus at
 * several N, single-threaded, on both the Harvey lazy path
 * (NttTables::forward/inverse) and the strict-reduction reference
 * (forwardStrict/inverseStrict), and cross-checks that the outputs
 * are bit-identical. Part 2 times the element-wise product over 8,192
 * residues at N = 4096 (two limbs) and N = 8192 (one limb): the
 * division-based mulMod reference against mulModBarrett, in ns per
 * product, and cross-checks every product. Part 2b ("lift") times the
 * modulus-switch limb kernels at N = 8192: the centered lift of one
 * residue into another prime (liftCentered, w = 65537 as in a BGV
 * scale-down) in ns per word, and the key-switch multiply-accumulate
 * of kMacTerms digit products per word (LazyMacBlock) in ns per
 * product next to the per-product Barrett form it replaced; both are
 * checked word for word against a % reference. Part 3 runs GHS and digit
 * key-switching in steady state and reports the scratch arena's
 * checkout statistics: heap allocations per apply() must be zero once
 * warm. Part 4 ("hoisted") rotates one level-4 ciphertext's c1 R
 * times through digit key switching, single-threaded: one apply() of
 * σ_g(x) per rotation against one decomposition of x plus R inner
 * products (N = 8192, R = 31 as in LoLa-MNIST's first mat-vec; --smoke:
 * N = 4096, R = 8), in ms per rotation, and cross-checks every output
 * word. The top-level "isa" key names the lazy stage kernel the loader
 * picked on this CPU ("avx2" or "baseline").
 *
 * Usage: bench_ntt_lazy [--smoke]
 *   --smoke  fewer reps and smaller sizes, for the CI canary.
 *
 * Exits nonzero on any correctness failure (lazy/strict or
 * Barrett/mulMod divergence, a lift or multiply-accumulate that
 * differs from its % reference, a warm apply() that hits the heap, or
 * a hoisted rotation that differs from its apply()); the speedup
 * numbers themselves are data points, not gates.
 */
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "common/scratch.h"
#include "fhe/encoder.h"
#include "fhe/fhe_context.h"
#include "fhe/keyswitch.h"
#include "modular/limb_kernels.h"
#include "modular/modarith.h"
#include "modular/primes.h"
#include "obs/metrics.h"
#include "poly/ntt.h"
#include "poly/rns_poly.h"

namespace f1::bench {
namespace {

double
nowMs()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double, std::milli>(
               clock::now().time_since_epoch())
        .count();
}

struct NttRow
{
    uint32_t n;
    uint32_t q;
    size_t reps;
    double lazyMs;   //!< per forward+inverse pair
    double strictMs;
    double speedup;
    bool identical;
};

NttRow
runNttPair(uint32_t n, size_t reps)
{
    const uint32_t q = generateNttPrimes(1, 28, n)[0];
    NttTables t(n, q);
    Rng rng(n);
    std::vector<uint32_t> a(n);
    for (auto &x : a)
        x = static_cast<uint32_t>(rng.uniform(q));

    // Cross-check first (also warms caches and twiddle tables).
    std::vector<uint32_t> lazy = a, strict = a;
    t.forward(lazy);
    t.forwardStrict(strict);
    bool identical = lazy == strict;
    t.inverse(lazy);
    t.inverseStrict(strict);
    identical = identical && lazy == strict && lazy == a;

    std::vector<uint32_t> work = a;
    const double t0 = nowMs();
    for (size_t r = 0; r < reps; ++r) {
        t.forward(work);
        t.inverse(work);
    }
    const double lazyMs = (nowMs() - t0) / reps;

    work = a;
    const double t1 = nowMs();
    for (size_t r = 0; r < reps; ++r) {
        t.forwardStrict(work);
        t.inverseStrict(work);
    }
    const double strictMs = (nowMs() - t1) / reps;

    return {n, q, reps, lazyMs, strictMs, strictMs / lazyMs, identical};
}

/** Element-wise products per pass: one N = 8192 limb. */
constexpr uint32_t kProducts = 8192;

struct MulRow
{
    uint32_t n;
    size_t limbs;
    size_t reps;
    double mulModNs;  //!< per product
    double barrettNs;
    bool identical;
};

/**
 * kProducts element-wise products split over kProducts / n limbs, each
 * limb under its own NTT-friendly prime with its Barrett constant
 * computed once per limb loop, as in RnsPoly::mulEq.
 */
MulRow
runElementwise(uint32_t n, size_t reps)
{
    const size_t limbs = kProducts / n;
    const std::vector<uint32_t> qs = generateNttPrimes(limbs, 28, n);
    Rng rng(n + 1);
    std::vector<uint32_t> a(kProducts), b(kProducts);
    for (size_t i = 0; i < kProducts; ++i) {
        const uint32_t q = qs[i / n];
        a[i] = static_cast<uint32_t>(rng.uniform(q));
        b[i] = static_cast<uint32_t>(rng.uniform(q));
    }

    std::vector<uint32_t> ref(kProducts), bar(kProducts);
    auto refPass = [&] {
        for (size_t l = 0; l < limbs; ++l) {
            const uint32_t q = qs[l];
            for (size_t j = l * n; j < (l + 1) * n; ++j)
                ref[j] = mulMod(a[j], b[j], q);
        }
    };
    auto barrettPass = [&] {
        for (size_t l = 0; l < limbs; ++l) {
            const uint32_t q = qs[l];
            const uint64_t mu = barrettPrecompute(q);
            for (size_t j = l * n; j < (l + 1) * n; ++j)
                bar[j] = mulModBarrett(a[j], b[j], q, mu);
        }
    };
    // Each pass reads a and b and writes its own output, so the timed
    // loops cannot be folded away; the final outputs are compared.
    const double t0 = nowMs();
    for (size_t r = 0; r < reps; ++r)
        refPass();
    const double refMs = (nowMs() - t0) / reps;
    const double t1 = nowMs();
    for (size_t r = 0; r < reps; ++r)
        barrettPass();
    const double barMs = (nowMs() - t1) / reps;
    return {n, limbs, reps, refMs * 1e6 / kProducts,
            barMs * 1e6 / kProducts, ref == bar};
}

/** Digit products per word in the multiply-accumulate row: lola's L. */
constexpr size_t kMacTerms = 4;

struct LiftRow
{
    uint32_t n;
    size_t reps;
    double liftNs;       //!< per word
    double macNs;        //!< per product, LazyMacBlock
    double barrettMacNs; //!< per product, one Barrett per product
    bool identical;
};

/**
 * The modulus-switch kernels over one N = 8192 limb, single-threaded
 * (mean of `reps` passes each): a centered lift from a 28-bit prime
 * into another, and kMacTerms digit products per word summed into two
 * accumulators, as in KeySwitcher::innerProduct.
 */
LiftRow
runLift(size_t reps)
{
    const uint32_t n = 8192;
    const std::vector<uint32_t> qs = generateNttPrimes(2, 28, n);
    const uint32_t p = qs[0], m = qs[1];
    const uint32_t w = 65537 % m;
    Rng rng(n + 2);
    std::vector<uint32_t> src(n);
    for (auto &v : src)
        v = static_cast<uint32_t>(rng.uniform(p));

    std::vector<uint32_t> lifted(n);
    const double t0 = nowMs();
    for (size_t r = 0; r < reps; ++r)
        liftCentered(src, p, lifted, m, w);
    const double liftMs = (nowMs() - t0) / reps;
    bool identical = true;
    for (uint32_t i = 0; i < n; ++i) {
        const int64_t c = src[i] > p / 2 ? int64_t(src[i]) - p : src[i];
        identical = identical &&
                    lifted[i] == uint32_t(((c * w) % m + m) % m);
    }

    std::vector<std::vector<uint32_t>> x(kMacTerms), h0(kMacTerms),
        h1(kMacTerms);
    for (size_t t = 0; t < kMacTerms; ++t)
        for (auto *v : {&x[t], &h0[t], &h1[t]}) {
            v->resize(n);
            for (auto &e : *v)
                e = static_cast<uint32_t>(rng.uniform(m));
        }
    std::vector<uint32_t> lazy0(n), lazy1(n), bar0(n), bar1(n);
    const double t1 = nowMs();
    for (size_t r = 0; r < reps; ++r)
        for (uint32_t base = 0; base < n; base += LazyMacBlock::kBlock) {
            LazyMacBlock mac(m, LazyMacBlock::kBlock);
            for (size_t t = 0; t < kMacTerms; ++t)
                mac.add(x[t].data() + base, h0[t].data() + base,
                        h1[t].data() + base);
            mac.finish(lazy0.data() + base, lazy1.data() + base);
        }
    const double macMs = (nowMs() - t1) / reps;
    const uint64_t mu = barrettPrecompute(m);
    const double t2 = nowMs();
    for (size_t r = 0; r < reps; ++r) {
        std::fill(bar0.begin(), bar0.end(), 0);
        std::fill(bar1.begin(), bar1.end(), 0);
        for (size_t t = 0; t < kMacTerms; ++t)
            for (uint32_t i = 0; i < n; ++i) {
                bar0[i] = addMod(
                    bar0[i], mulModBarrett(x[t][i], h0[t][i], m, mu), m);
                bar1[i] = addMod(
                    bar1[i], mulModBarrett(x[t][i], h1[t][i], m, mu), m);
            }
    }
    const double barrettMs = (nowMs() - t2) / reps;
    for (uint32_t i = 0; i < n; ++i) {
        uint64_t ref0 = 0, ref1 = 0;
        for (size_t t = 0; t < kMacTerms; ++t) {
            ref0 += uint64_t(x[t][i]) * h0[t][i] % m;
            ref1 += uint64_t(x[t][i]) * h1[t][i] % m;
        }
        identical = identical && lazy0[i] == ref0 % m &&
                    lazy1[i] == ref1 % m && bar0[i] == lazy0[i] &&
                    bar1[i] == lazy1[i];
    }
    const double products = 2.0 * kMacTerms * n;
    return {n, reps, liftMs * 1e6 / n, macMs * 1e6 / products,
            barrettMs * 1e6 / products, identical};
}

/** The lazy stage kernel the loader binds on this CPU. */
const char *
kernelIsa()
{
#if defined(__x86_64__)
    return __builtin_cpu_supports("avx2") ? "avx2" : "baseline";
#else
    return "baseline";
#endif
}

struct ArenaRow
{
    const char *variant;
    size_t applies;
    double checkoutsPerApply;
    uint64_t warmHeapAllocs; //!< must be 0
    double msPerApply;
};

ArenaRow
runKeySwitchArena(KeySwitchVariant variant, const char *name,
                  size_t applies)
{
    FheParams p;
    p.n = 1024;
    p.maxLevel = 4;
    p.auxCount = 4;
    p.primeBits = 28;
    p.plainModulus = 65537;
    FheContext ctx(p);
    KeySwitcher sw(&ctx);
    Rng rng(11);
    SecretKey sk = sw.keyGen(rng);
    auto w = sk.s.mul(sk.s);
    auto hint = sw.makeHint(w, sk, 4, p.plainModulus, variant, rng);
    auto x = RnsPoly::uniform(ctx.polyContext(), 4, rng);

    // Two warm applies populate every thread cache size class.
    auto u = sw.apply(x, hint, p.plainModulus);
    u = sw.apply(x, hint, p.plainModulus);

    auto &reg = obs::MetricsRegistry::global();
    const obs::Counter &checkouts = reg.counter("scratch.checkouts");
    const obs::Counter &heapAllocs = reg.counter("scratch.heap_allocs");
    const uint64_t checkouts0 = checkouts.value();
    const uint64_t heapAllocs0 = heapAllocs.value();
    const double t0 = nowMs();
    for (size_t r = 0; r < applies; ++r)
        u = sw.apply(x, hint, p.plainModulus);
    const double elapsed = nowMs() - t0;
    return {name, applies,
            static_cast<double>(checkouts.value() - checkouts0) /
                applies,
            heapAllocs.value() - heapAllocs0, elapsed / applies};
}

struct HoistRow
{
    uint32_t n;
    size_t level;
    size_t rotations;
    double applyMs;     //!< per rotation: apply(σ_g(x))
    double decomposeMs; //!< once per ciphertext
    double innerMs;     //!< per rotation
    bool identical;
};

/**
 * R rotations of one ciphertext's c1 (best of `reps` passes per side):
 * each key-switched by its own apply(), against one decompose() shared
 * by R innerProduct() calls. The automorphisms of x are taken before
 * the clock starts, so the apply side times the key switch alone.
 */
HoistRow
runHoisted(uint32_t n, size_t rotations, size_t reps)
{
    FheParams p;
    p.n = n;
    p.maxLevel = 4;
    p.primeBits = 28;
    p.plainModulus = 65537;
    FheContext ctx(p);
    const size_t level = p.maxLevel;
    const uint64_t t = p.plainModulus;
    KeySwitcher sw(&ctx);
    Rng rng(13);
    SecretKey sk = sw.keyGen(rng);
    const SlotOrder order(n);
    const auto x = RnsPoly::uniform(ctx.polyContext(), level, rng);
    std::vector<uint64_t> gs;
    std::vector<KeySwitchHint> hints;
    std::vector<RnsPoly> rotated;
    for (size_t r = 0; r < rotations; ++r) {
        gs.push_back(order.rotationGalois(int64_t(r) + 1));
        hints.push_back(sw.makeHint(sk.s.automorphism(gs[r]), sk, level, t,
                                    KeySwitchVariant::kDigitLxL, rng));
        rotated.push_back(x.automorphism(gs[r]));
    }
    std::vector<uint32_t> digits(digitDecompositionWords(level, n));

    std::vector<std::pair<RnsPoly, RnsPoly>> want, got;
    double applyMs = 1e300, decomposeMs = 1e300, innerMs = 1e300;
    for (size_t rep = 0; rep < reps; ++rep) {
        want.clear();
        got.clear();
        const double t0 = nowMs();
        for (size_t r = 0; r < rotations; ++r)
            want.push_back(sw.apply(rotated[r], hints[r], t));
        const double t1 = nowMs();
        sw.decompose(x, digits);
        const double t2 = nowMs();
        for (size_t r = 0; r < rotations; ++r)
            got.push_back(sw.innerProduct(digits, hints[r], t, gs[r]));
        const double t3 = nowMs();
        applyMs = std::min(applyMs, (t1 - t0) / rotations);
        decomposeMs = std::min(decomposeMs, t2 - t1);
        innerMs = std::min(innerMs, (t3 - t2) / rotations);
    }
    bool identical = true;
    for (size_t r = 0; r < rotations; ++r)
        identical = identical &&
                    got[r].first.raw() == want[r].first.raw() &&
                    got[r].second.raw() == want[r].second.raw();
    return {n, level, rotations, applyMs, decomposeMs, innerMs, identical};
}

int
run(bool smoke)
{
    // Single-threaded by design: this measures the butterfly kernel,
    // not the limb dispatch (bench_parallel_scaling covers that).
    setGlobalThreadCount(1);

    const std::vector<uint32_t> sizes =
        smoke ? std::vector<uint32_t>{4096}
              : std::vector<uint32_t>{1024, 4096, 16384};
    std::vector<NttRow> rows;
    for (uint32_t n : sizes) {
        const size_t reps =
            smoke ? 64 : std::max<size_t>(64, (1u << 22) / n);
        rows.push_back(runNttPair(n, reps));
    }

    std::vector<MulRow> mulRows;
    for (uint32_t n : {4096u, 8192u})
        mulRows.push_back(runElementwise(n, smoke ? 16 : 512));

    const LiftRow lift = runLift(smoke ? 16 : 512);

    const size_t applies = smoke ? 4 : 16;
    const ArenaRow arena[] = {
        runKeySwitchArena(KeySwitchVariant::kGhsExtension,
                          "keyswitch_ghs", applies),
        runKeySwitchArena(KeySwitchVariant::kDigitLxL,
                          "keyswitch_digit", applies),
    };
    const HoistRow hoisted = smoke ? runHoisted(4096, 8, 1)
                                   : runHoisted(8192, 31, 3);
    setGlobalThreadCount(0);

    printf("{\n  \"bench\": \"ntt_lazy\",\n");
    printf("  \"mode\": \"%s\",\n", smoke ? "smoke" : "full");
    printf("  \"threads\": 1,\n");
    printf("  \"isa\": \"%s\",\n", kernelIsa());
    printf("  \"ntt\": [\n");
    bool ok = true;
    for (size_t i = 0; i < rows.size(); ++i) {
        const NttRow &r = rows[i];
        ok = ok && r.identical;
        printf("    {\"n\": %u, \"q\": %u, \"reps\": %zu, "
               "\"lazy_ms_per_pair\": %.5f, "
               "\"strict_ms_per_pair\": %.5f, "
               "\"speedup_lazy_vs_strict\": %.3f, "
               "\"bit_identical\": %s}%s\n",
               r.n, r.q, r.reps, r.lazyMs, r.strictMs, r.speedup,
               r.identical ? "true" : "false",
               i + 1 < rows.size() ? "," : "");
    }
    printf("  ],\n");
    printf("  \"elementwise\": [\n");
    for (size_t i = 0; i < mulRows.size(); ++i) {
        const MulRow &r = mulRows[i];
        ok = ok && r.identical;
        printf("    {\"n\": %u, \"limbs\": %zu, \"products\": %u, "
               "\"reps\": %zu, \"mulmod_ns\": %.3f, "
               "\"barrett_ns\": %.3f, "
               "\"speedup_barrett_vs_mulmod\": %.3f, "
               "\"bit_identical\": %s}%s\n",
               r.n, r.limbs, kProducts, r.reps, r.mulModNs, r.barrettNs,
               r.mulModNs / r.barrettNs, r.identical ? "true" : "false",
               i + 1 < mulRows.size() ? "," : "");
    }
    printf("  ],\n");
    ok = ok && lift.identical;
    printf("  \"lift\": {\"n\": %u, \"reps\": %zu, "
           "\"lift_ns_per_word\": %.3f, \"mac_terms\": %zu, "
           "\"mac_ns_per_product\": %.3f, "
           "\"barrett_mac_ns_per_product\": %.3f, "
           "\"bit_identical\": %s},\n",
           lift.n, lift.reps, lift.liftNs, kMacTerms, lift.macNs,
           lift.barrettMacNs, lift.identical ? "true" : "false");
    printf("  \"keyswitch_arena\": [\n");
    for (size_t i = 0; i < 2; ++i) {
        const ArenaRow &r = arena[i];
        ok = ok && r.warmHeapAllocs == 0;
        printf("    {\"variant\": \"%s\", \"applies\": %zu, "
               "\"arena_checkouts_per_apply\": %.1f, "
               "\"warm_heap_allocs\": %llu, "
               "\"ms_per_apply\": %.4f}%s\n",
               r.variant, r.applies, r.checkoutsPerApply,
               static_cast<unsigned long long>(r.warmHeapAllocs),
               r.msPerApply, i + 1 < 2 ? "," : "");
    }
    printf("  ],\n");
    ok = ok && hoisted.identical;
    const double hoistedMs =
        hoisted.decomposeMs / hoisted.rotations + hoisted.innerMs;
    printf("  \"hoisted\": {\"n\": %u, \"level\": %zu, "
           "\"rotations\": %zu, \"apply_ms_per_rotation\": %.4f, "
           "\"decompose_ms\": %.4f, \"inner_product_ms\": %.4f, "
           "\"hoisted_ms_per_rotation\": %.4f, "
           "\"speedup_hoisted_vs_apply\": %.3f, "
           "\"bit_identical\": %s}\n}\n",
           hoisted.n, hoisted.level, hoisted.rotations, hoisted.applyMs,
           hoisted.decomposeMs, hoisted.innerMs, hoistedMs,
           hoisted.applyMs / hoistedMs,
           hoisted.identical ? "true" : "false");
    return ok ? 0 : 1;
}

} // namespace
} // namespace f1::bench

int
main(int argc, char **argv)
{
    bool smoke = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0) {
            smoke = true;
        } else {
            fprintf(stderr, "usage: %s [--smoke]\n", argv[0]);
            return 2;
        }
    }
    return f1::bench::run(smoke);
}
