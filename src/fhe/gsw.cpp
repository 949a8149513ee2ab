#include "fhe/gsw.h"

#include <cmath>

#include "common/error.h"
#include "common/parallel.h"
#include "common/scratch.h"
#include "modular/modarith.h"

namespace f1 {

GswScheme::GswScheme(BgvScheme *bgv)
    : bgv_(bgv), ctx_(bgv->context()), switcher_(ctx_), rng_(0x65370000)
{
}

RlwePrime
GswScheme::encryptRlwePrime(const RnsPoly &w, size_t level)
{
    // Identical structure to the digit key-switch hint: digit i's phase
    // carries P_i * w, with P_i ≡ δ_ij (mod q_j).
    const uint64_t t = bgv_->plainModulus();
    const RnsPoly s = bgv_->secretKey().s.restricted(level);

    RlwePrime out;
    for (size_t i = 0; i < level; ++i) {
        auto [ai, bi] = rlweSample(ctx_, s, t, rng_);
        auto bres = bi.residue(i);
        auto wres = w.residue(i);
        const uint32_t qi = ctx_->polyContext()->modulus(i);
        for (size_t j = 0; j < bres.size(); ++j)
            bres[j] = addMod(bres[j], wres[j], qi);
        out.a.push_back(std::move(ai));
        out.b.push_back(std::move(bi));
    }
    return out;
}

RgswCiphertext
GswScheme::encryptScalar(uint64_t m, size_t level)
{
    const PolyContext *pc = ctx_->polyContext();
    // Constant polynomial m.
    auto coeffs = ScratchArena::i64(ctx_->n(), /*zeroed=*/true);
    coeffs[0] = static_cast<int64_t>(m);
    RnsPoly mp = RnsPoly::fromSigned(pc, level, coeffs.span());
    RnsPoly sm = bgv_->secretKey().s.restricted(level).mul(mp);

    RgswCiphertext out;
    out.level = level;
    out.cm = encryptRlwePrime(mp, level);
    out.csm = encryptRlwePrime(sm, level);
    return out;
}

Ciphertext
GswScheme::externalProduct(const Ciphertext &rlwe,
                           const RgswCiphertext &rgsw) const
{
    F1_CHECK(rlwe.level() == rgsw.level,
             "level mismatch in external product");
    const PolyContext *pc = ctx_->polyContext();
    const size_t level = rlwe.level();

    // Decompose both RLWE components; accumulate
    //   out = Σ_i d_i(c0) * RLWE'(m)[i] + Σ_i d_i(c1) * RLWE'(sm)[i]
    // over the level's primes (the special-prime track goes unused).
    const size_t tracks = level + 1;
    const uint32_t n = ctx_->n();
    auto d0 = ScratchArena::u32(digitDecompositionWords(level, n));
    auto d1 = ScratchArena::u32(digitDecompositionWords(level, n));
    switcher_.decompose(rlwe.polys[0], d0.span());
    switcher_.decompose(rlwe.polys[1], d1.span());

    RnsPoly r0(pc, level, Domain::kNtt);
    RnsPoly r1(pc, level, Domain::kNtt);
    // One work unit per limb: each residue runs the full digit MAC
    // chain locally instead of materializing 4*level temporary
    // polynomial products (same exact arithmetic, one pool hand-off).
    parallelForLimbs(level, [&](size_t r) {
        const uint32_t q = pc->modulus(r);
        const uint64_t mu = barrettPrecompute(q);
        auto o0 = r0.residue(r);
        auto o1 = r1.residue(r);
        for (size_t i = 0; i < level; ++i) {
            const uint32_t *x0 = d0.data() + (i * tracks + r) * n;
            const uint32_t *x1 = d1.data() + (i * tracks + r) * n;
            auto cmb = rgsw.cm.b[i].residue(r);
            auto cma = rgsw.cm.a[i].residue(r);
            auto csb = rgsw.csm.b[i].residue(r);
            auto csa = rgsw.csm.a[i].residue(r);
            for (size_t j = 0; j < o0.size(); ++j) {
                o0[j] = addMod(o0[j], mulModBarrett(x0[j], cmb[j], q, mu),
                               q);
                o1[j] = addMod(o1[j], mulModBarrett(x0[j], cma[j], q, mu),
                               q);
                o0[j] = addMod(o0[j], mulModBarrett(x1[j], csb[j], q, mu),
                               q);
                o1[j] = addMod(o1[j], mulModBarrett(x1[j], csa[j], q, mu),
                               q);
            }
        }
    });

    Ciphertext out;
    out.polys.push_back(std::move(r0));
    out.polys.push_back(std::move(r1));
    // GSW asymmetry: the RLWE noise passes through scaled by m (a small
    // scalar), plus an additive digit term independent of the RLWE
    // noise.
    out.noiseBits =
        std::max(rlwe.noiseBits,
                 std::log2((double)bgv_->plainModulus()) +
                     ctx_->params().primeBits +
                     0.5 * std::log2((double)level * ctx_->n()) + 4.0) +
        1.0;
    out.ptCorrection = rlwe.ptCorrection;
    return out;
}

Ciphertext
GswScheme::cmux(const RgswCiphertext &bit, const Ciphertext &ct0,
                const Ciphertext &ct1) const
{
    Ciphertext diff = bgv_->sub(ct1, ct0);
    Ciphertext sel = externalProduct(diff, bit);
    return bgv_->add(ct0, sel);
}

} // namespace f1
