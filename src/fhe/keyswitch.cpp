#include "fhe/keyswitch.h"

#include "common/error.h"
#include "common/parallel.h"
#include "common/scratch.h"
#include "fhe/basis_extend.h"
#include "modular/limb_kernels.h"
#include "modular/modarith.h"
#include "obs/profile.h"
#include "poly/automorphism.h"

namespace f1 {

SecretKey
KeySwitcher::keyGen(Rng &rng) const
{
    return SecretKey{
        ctx_->sampleTernary(ctx_->polyContext()->chainLength(), rng)};
}

std::pair<RnsPoly, RnsPoly>
rlweSample(const FheContext *ctx, const RnsPoly &s, uint64_t errorScale,
           Rng &rng)
{
    RnsPoly a = RnsPoly::uniform(ctx->polyContext(), s.levels(), rng);
    RnsPoly b = a.mul(s);
    b.negate();
    RnsPoly e = ctx->sampleError(s.levels(), rng);
    if (errorScale != 1)
        e.mulScalar(errorScale);
    b += e;
    return {std::move(a), std::move(b)};
}

KeySwitchHint
KeySwitcher::makeHint(const RnsPoly &w, const SecretKey &sk, size_t level,
                      uint64_t errorScale, KeySwitchVariant variant,
                      Rng &rng) const
{
    const PolyContext *pc = ctx_->polyContext();
    KeySwitchHint hint;
    hint.variant = variant;
    hint.level = level;

    if (variant == KeySwitchVariant::kDigitLxL) {
        // Hybrid digit hints: digit i encrypts p_sp * P_i * w, where
        // P_i is the CRT selector (P_i ≡ δ_ij mod q_j) and p_sp is the
        // special prime divided out after accumulation. Hints span the
        // full chain; apply() touches residues {0..level-1, special}.
        const uint32_t p_sp = ctx_->specialPrime();
        const size_t chain_len = pc->chainLength();
        for (size_t i = 0; i < level; ++i) {
            auto [ai, bi] = rlweSample(ctx_, sk.s, errorScale, rng);
            // += p_sp * P_i * w on every residue. With
            // w_i = [(Q/q_i)^-1 mod q_i] as an integer,
            // P_i mod m = (Q/q_i mod m) * (w_i mod m).
            const uint32_t qi = pc->modulus(i);
            uint64_t qhat_mod_qi = 1;
            for (size_t j = 0; j < level; ++j)
                if (j != i)
                    qhat_mod_qi =
                        qhat_mod_qi * (pc->modulus(j) % qi) % qi;
            const uint32_t wi =
                invMod(static_cast<uint32_t>(qhat_mod_qi), qi);
            parallelForLimbs(chain_len, [&](size_t r) {
                const uint32_t m = pc->modulus(r);
                uint64_t qhat = 1;
                for (size_t j = 0; j < level; ++j)
                    if (j != i)
                        qhat = qhat * (pc->modulus(j) % m) % m;
                uint64_t scalar =
                    qhat * (wi % m) % m * (p_sp % m) % m;
                const uint32_t sc = static_cast<uint32_t>(scalar);
                const uint32_t pre = shoupPrecompute(sc, m);
                auto bres = bi.residue(r);
                auto wres = w.residue(r);
                for (size_t idx = 0; idx < bres.size(); ++idx)
                    bres[idx] = addMod(
                        bres[idx],
                        mulModShoup(wres[idx], sc, pre, m), m);
            });
            hint.a.push_back(std::move(ai));
            hint.b.push_back(std::move(bi));
        }
        hint.usedRVecs = 2 * level * (level + 1);
        return hint;
    }

    // Variant B: single pair over the extended basis Q*P encrypting
    // P * w (P = product of aux primes, so P ≡ 0 mod every aux prime).
    const size_t aux = ctx_->auxCount();
    F1_REQUIRE(aux >= level,
               "GHS key-switching needs P >= Q: auxCount ("
               << aux << ") must cover the hint level (" << level
               << ")");
    F1_CHECK(level <= ctx_->maxLevel(), "level beyond chain");

    // To keep the data layout simple, the hint spans the full chain
    // (the key's level); apply() reads residues {0..level-1} and the
    // aux block.
    auto [a, b] = rlweSample(ctx_, sk.s, errorScale, rng);
    // += P * w on ciphertext residues (P ≡ 0 on aux residues).
    parallelForLimbs(ctx_->maxLevel(), [&](size_t j) {
        const uint32_t qj = pc->modulus(j);
        uint64_t pmod = 1;
        for (size_t k = 0; k < aux; ++k)
            pmod = pmod * (ctx_->auxPrime(k) % qj) % qj;
        auto bres = b.residue(j);
        auto wres = w.residue(j);
        const uint32_t scalar = static_cast<uint32_t>(pmod);
        const uint32_t pre = shoupPrecompute(scalar, qj);
        for (size_t idx = 0; idx < bres.size(); ++idx)
            bres[idx] = addMod(bres[idx],
                               mulModShoup(wres[idx], scalar, pre, qj),
                               qj);
    });
    hint.a.push_back(std::move(a));
    hint.b.push_back(std::move(b));
    hint.usedRVecs = 2 * (level + aux);
    return hint;
}

std::pair<RnsPoly, RnsPoly>
KeySwitcher::apply(const RnsPoly &x, const KeySwitchHint &hint,
                   uint64_t errorScale) const
{
    F1_CHECK(x.domain() == Domain::kNtt, "key-switch input must be NTT");
    F1_CHECK(x.levels() == hint.level, "hint level mismatch: x has "
             << x.levels() << ", hint serves " << hint.level);
    if (hint.variant == KeySwitchVariant::kGhsExtension) {
        obs::profileAdd(obs::ProfileCounter::kKeySwitchApply);
        return applyGhs(x, hint, errorScale);
    }
    auto digits =
        ScratchArena::u32(digitDecompositionWords(hint.level, x.n()));
    decompose(x, digits.span());
    return innerProduct(digits.span(), hint, errorScale);
}

void
KeySwitcher::decompose(const RnsPoly &x, std::span<uint32_t> out) const
{
    F1_CHECK(x.domain() == Domain::kNtt, "decomposition expects NTT");
    const PolyContext *pc = ctx_->polyContext();
    const size_t level = x.levels();
    const size_t tracks = level + 1;
    const size_t sp = ctx_->specialIndex();
    const uint32_t n = pc->n();
    F1_CHECK(out.size() == digitDecompositionWords(level, n),
             "decomposition buffer holds " << out.size()
             << " words, level " << level << " needs "
             << digitDecompositionWords(level, n));

    auto coeff = ScratchArena::u32(n);
    for (size_t i = 0; i < level; ++i) {
        // Digit i: residue i of x, taken to coefficient form; each
        // track center-lifts it (Listing 1 lines 3 and 8).
        std::copy(x.residue(i).begin(), x.residue(i).end(), coeff.data());
        pc->tables(i).inverse(coeff.span());
        const uint32_t qi = pc->modulus(i);

        // One track per work unit: each lifts the shared digit into
        // its own modulus and transforms it into its NTT domain.
        parallelFor(0, tracks, [&](size_t track) {
            std::span<uint32_t> dst =
                out.subspan((i * tracks + track) * n, n);
            if (track == i) {
                // Already have this residue in NTT form.
                std::copy(x.residue(i).begin(), x.residue(i).end(),
                          dst.begin());
                return;
            }
            const size_t ridx = track < level ? track : sp;
            liftCentered(coeff.span(), qi, dst, pc->modulus(ridx), 1);
            pc->tables(ridx).forward(dst);
        });
    }
}

std::pair<RnsPoly, RnsPoly>
KeySwitcher::innerProduct(std::span<const uint32_t> digits,
                          const KeySwitchHint &hint, uint64_t errorScale,
                          uint64_t g) const
{
    const PolyContext *pc = ctx_->polyContext();
    const size_t level = hint.level;
    const size_t tracks = level + 1;
    const size_t sp = ctx_->specialIndex();
    const uint32_t p_sp = ctx_->specialPrime();
    const uint32_t n = pc->n();
    F1_CHECK(hint.variant == KeySwitchVariant::kDigitLxL,
             "the key-switch inner product takes a digit hint");
    F1_CHECK(digits.size() == digitDecompositionWords(level, n),
             "decomposition of " << digits.size()
             << " words does not match the hint's level " << level);
    obs::profileAdd(obs::ProfileCounter::kKeySwitchApply);

    // σ_g's NTT-domain permutation; g = 1 reads the tracks in place.
    ScratchArena::Handle<uint32_t> perm;
    if (g != 1) {
        perm = ScratchArena::u32(n);
        for (uint32_t k = 0; k < n; ++k)
            perm[k] = static_cast<uint32_t>(automorphismNttSource(g, k, n));
    }
    const uint32_t *const permp = g != 1 ? perm.data() : nullptr;

    // Accumulators over level cipher residues + the special residue.
    auto acc0 = ScratchArena::u32(tracks * n);
    auto acc1 = ScratchArena::u32(tracks * n);

    // Multiply-accumulate every digit against its hint digit, one
    // track per work unit: tracks write disjoint accumulator slices
    // and only read the digits. Within a track, block by block, the
    // level products of a word are summed in 64-bit lanes and reduced
    // once.
    parallelFor(0, tracks, [&](size_t track) {
        const size_t ridx = track < level ? track : sp;
        const uint32_t m = pc->modulus(ridx);
        for (uint32_t base = 0; base < n; base += LazyMacBlock::kBlock) {
            const uint32_t len =
                std::min<uint32_t>(LazyMacBlock::kBlock, n - base);
            LazyMacBlock mac(m, len);
            for (size_t i = 0; i < level; ++i) {
                const uint32_t *xt =
                    digits.data() + (i * tracks + track) * n;
                const uint32_t *hb = hint.b[i].residue(ridx).data() + base;
                const uint32_t *ha = hint.a[i].residue(ridx).data() + base;
                if (permp != nullptr)
                    mac.add(xt, hb, ha, permp + base);
                else
                    mac.add(xt + base, hb, ha);
            }
            mac.finish(acc0.data() + track * n + base,
                       acc1.data() + track * n + base);
        }
    });

    // Divide both accumulators by p_sp with errorScale-adjusted
    // rounding (δ ≡ acc mod p_sp, δ ≡ 0 mod errorScale), the hybrid
    // step that shrinks key-switch noise by ~log2(p_sp) bits.
    auto scaleDown = [&](std::span<uint32_t> acc) {
        std::span<uint32_t> spTrack(acc.data() + level * n, n);
        pc->tables(sp).inverse(spTrack);
        if (errorScale != 1) {
            const uint32_t tinv = invMod(
                static_cast<uint32_t>(errorScale % p_sp), p_sp);
            const uint32_t pre = shoupPrecompute(tinv, p_sp);
            for (auto &v : spTrack)
                v = mulModShoup(v, tinv, pre, p_sp);
        }
        RnsPoly result(pc, level, Domain::kNtt);
        parallelForLimbs(level, [&](size_t j) {
            const uint32_t q = pc->modulus(j);
            auto out = result.residue(j);
            // δ = errorScale * (centered spTrack), in NTT form.
            liftCentered(spTrack, p_sp, out, q,
                         static_cast<uint32_t>(errorScale % q));
            pc->tables(j).forward(out);
            const uint32_t pinv = invMod(p_sp % q, q);
            const uint32_t pre = shoupPrecompute(pinv, q);
            const uint32_t *in = acc.data() + j * n;
            for (size_t idx = 0; idx < n; ++idx)
                out[idx] =
                    mulModShoup(subMod(in[idx], out[idx], q), pinv, pre, q);
        });
        return result;
    };

    RnsPoly u0 = scaleDown(acc0.span());
    RnsPoly u1 = scaleDown(acc1.span());
    return {std::move(u0), std::move(u1)};
}

std::pair<RnsPoly, RnsPoly>
KeySwitcher::applyGhs(const RnsPoly &x, const KeySwitchHint &hint,
                      uint64_t errorScale) const
{
    const PolyContext *pc = ctx_->polyContext();
    const size_t level = hint.level;
    const size_t aux = ctx_->auxCount();
    const size_t aux_base = ctx_->maxLevel();
    const uint32_t n = pc->n();

    // 1. Extend x from {q_0..q_{level-1}} to the aux basis.
    std::vector<size_t> src(level), dst(aux);
    for (size_t i = 0; i < level; ++i)
        src[i] = i;
    for (size_t k = 0; k < aux; ++k)
        dst[k] = aux_base + k;
    BasisExtender up(pc, src, dst);

    auto coeff = ScratchArena::u32(level * n);
    parallelForLimbs(level, [&](size_t i) {
        std::copy(x.residue(i).begin(), x.residue(i).end(),
                  coeff.data() + i * n);
        std::span<uint32_t> row(coeff.data() + i * n, n);
        pc->tables(i).inverse(row);
    });
    auto ext = ScratchArena::u32(aux * n);
    up.extend(coeff.span(), n, ext.span());
    coeff.reset();

    // 2. Pointwise multiply by the hint over level + aux residues.
    //    Work on two tracks: ciphertext residues (from x, NTT) and aux
    //    residues (extended, NTT after transform). All level + aux
    //    limbs are independent work units.
    auto mulTrack = [&](const RnsPoly &h) {
        // Returns {cipherResidues(level), auxResidues(aux)} both NTT,
        // as movable arena checkouts consumed by scaleDown below.
        auto cres = ScratchArena::u32(level * n);
        auto ares = ScratchArena::u32(aux * n);
        uint32_t *const cresp = cres.data();
        uint32_t *const aresp = ares.data();
        parallelForLimbs(level + aux, [&](size_t u) {
            if (u < level) {
                const size_t i = u;
                const uint32_t q = pc->modulus(i);
                const uint64_t mu = barrettPrecompute(q);
                auto hx = h.residue(i);
                auto xr = x.residue(i);
                for (size_t idx = 0; idx < n; ++idx)
                    cresp[i * n + idx] =
                        mulModBarrett(xr[idx], hx[idx], q, mu);
            } else {
                const size_t k = u - level;
                const uint32_t p = pc->modulus(aux_base + k);
                const uint64_t mu = barrettPrecompute(p);
                auto t = ScratchArena::u32(n);
                std::copy(ext.data() + k * n, ext.data() + (k + 1) * n,
                          t.data());
                pc->tables(aux_base + k).forward(t.span());
                auto hx = h.residue(aux_base + k);
                for (size_t idx = 0; idx < n; ++idx)
                    aresp[k * n + idx] =
                        mulModBarrett(t[idx], hx[idx], p, mu);
            }
        });
        return std::make_pair(std::move(cres), std::move(ares));
    };

    auto [c1, a1] = mulTrack(hint.a[0]);
    auto [c0, a0] = mulTrack(hint.b[0]);

    // 3. Divide by P with rounding: c' = (c - δ)/P where δ ≡ c (mod P)
    //    and δ ≡ 0 (mod errorScale).
    BasisExtender down(pc, dst, src);
    const uint64_t t_adj = errorScale;

    auto scaleDown = [&](ScratchArena::Handle<uint32_t> &cres,
                         ScratchArena::Handle<uint32_t> &ares) {
        // Aux residues to coefficient form.
        parallelForLimbs(aux, [&](size_t k) {
            std::span<uint32_t> row(ares.data() + k * n, n);
            pc->tables(aux_base + k).inverse(row);
            if (t_adj != 1) {
                // u = δ0 * t^-1 (mod P), residue-wise.
                const uint32_t p = pc->modulus(aux_base + k);
                const uint32_t tinv =
                    invMod(static_cast<uint32_t>(t_adj % p), p);
                const uint32_t pre = shoupPrecompute(tinv, p);
                for (auto &v : row)
                    v = mulModShoup(v, tinv, pre, p);
            }
        });
        // Extend u to the ciphertext basis; δ = t * u.
        auto delta = ScratchArena::u32(level * n);
        down.extend(ares.span(), n, delta.span());
        ares.reset();

        RnsPoly result(pc, level, Domain::kNtt);
        parallelForLimbs(level, [&](size_t i) {
            const uint32_t q = pc->modulus(i);
            std::span<uint32_t> d(delta.data() + i * n, n);
            if (t_adj != 1) {
                const uint32_t ts = static_cast<uint32_t>(t_adj % q);
                const uint32_t pre = shoupPrecompute(ts, q);
                for (auto &v : d)
                    v = mulModShoup(v, ts, pre, q);
            }
            pc->tables(i).forward(d);
            // (c - δ) * P^-1 mod q.
            uint64_t pmod = 1;
            for (size_t k = 0; k < aux; ++k)
                pmod = pmod * (pc->modulus(aux_base + k) % q) % q;
            const uint32_t pinv =
                invMod(static_cast<uint32_t>(pmod), q);
            const uint32_t pre = shoupPrecompute(pinv, q);
            auto out = result.residue(i);
            for (size_t idx = 0; idx < n; ++idx) {
                uint32_t diff = subMod(cres[i * n + idx], d[idx], q);
                out[idx] = mulModShoup(diff, pinv, pre, q);
            }
        });
        return result;
    };

    RnsPoly u0 = scaleDown(c0, a0);
    RnsPoly u1 = scaleDown(c1, a1);
    return {std::move(u0), std::move(u1)};
}

void
dropLastModulusRounded(RnsPoly &p, uint64_t tAdjust)
{
    F1_CHECK(p.domain() == Domain::kNtt, "expected NTT domain");
    F1_CHECK(p.levels() >= 2, "cannot drop below one residue");
    const PolyContext *pc = p.context();
    const size_t last = p.levels() - 1;
    const uint32_t q_last = pc->modulus(last);
    const uint32_t n = pc->n();

    // Last residue to coefficient form.
    auto y = ScratchArena::u32(n);
    std::copy(p.residue(last).begin(), p.residue(last).end(), y.data());
    pc->tables(last).inverse(y.span());

    // d = y * t^-1 mod q_last (t-adjusted rounding), centered; δ = t*d.
    if (tAdjust != 1) {
        const uint32_t tinv = invMod(
            static_cast<uint32_t>(tAdjust % q_last), q_last);
        const uint32_t pre = shoupPrecompute(tinv, q_last);
        for (auto &v : y.span())
            v = mulModShoup(v, tinv, pre, q_last);
    }

    // p_i = (p_i - δ) * q_last^-1 mod q_i, with δ lifted into q_i and
    // taken to its NTT domain.
    parallelForLimbs(last, [&](size_t i) {
        const uint32_t q = pc->modulus(i);
        auto delta = ScratchArena::u32(n);
        liftCentered(y.span(), q_last, delta.span(), q,
                     static_cast<uint32_t>(tAdjust % q));
        pc->tables(i).forward(delta.span());
        const uint32_t qinv = invMod(q_last % q, q);
        const uint32_t pre = shoupPrecompute(qinv, q);
        auto r = p.residue(i);
        for (size_t j = 0; j < n; ++j)
            r[j] = mulModShoup(subMod(r[j], delta[j], q), qinv, pre, q);
    });
    p.dropLastResidue();
}

} // namespace f1
