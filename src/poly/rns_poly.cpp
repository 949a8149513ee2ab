#include "poly/rns_poly.h"

#include "common/error.h"
#include "common/parallel.h"
#include "modular/limb_kernels.h"
#include "modular/modarith.h"
#include "poly/automorphism.h"

namespace f1 {

RnsPoly::RnsPoly(const PolyContext *ctx, size_t levels, Domain domain)
    : ctx_(ctx), levels_(levels), domain_(domain),
      data_((size_t)ctx->n() * levels, 0)
{
    F1_REQUIRE(levels >= 1 && levels <= ctx->chainLength(),
               "level count " << levels << " out of range");
}

RnsPoly
RnsPoly::uniform(const PolyContext *ctx, size_t levels, Rng &rng,
                 Domain domain)
{
    // Serial on purpose: all residues draw from one PRNG stream, and
    // the draw order is part of the deterministic key/error schedule.
    RnsPoly p(ctx, levels, domain);
    for (size_t i = 0; i < levels; ++i) {
        const uint32_t q = ctx->modulus(i);
        for (auto &x : p.residue(i))
            x = static_cast<uint32_t>(rng.uniform(q));
    }
    return p;
}

RnsPoly
RnsPoly::fromSigned(const PolyContext *ctx, size_t levels,
                    std::span<const int64_t> coeffs, Domain target)
{
    F1_REQUIRE(coeffs.size() == ctx->n(), "coefficient count mismatch");
    RnsPoly p(ctx, levels, Domain::kCoeff);
    parallelForLimbs(levels, [&](size_t i) {
        auto res = p.residue(i);
        reduceSigned(coeffs, res, ctx->modulus(i));
        if (target == Domain::kNtt)
            ctx->tables(i).forward(res);
    });
    if (target == Domain::kNtt)
        p.domain_ = Domain::kNtt;
    return p;
}

std::span<uint32_t>
RnsPoly::residue(size_t i)
{
    F1_CHECK(i < levels_, "residue index " << i << " out of range");
    return {data_.data() + i * ctx_->n(), ctx_->n()};
}

std::span<const uint32_t>
RnsPoly::residue(size_t i) const
{
    F1_CHECK(i < levels_, "residue index " << i << " out of range");
    return {data_.data() + i * ctx_->n(), ctx_->n()};
}

void
RnsPoly::toNtt()
{
    if (domain_ == Domain::kNtt)
        return;
    parallelForLimbs(levels_,
                     [&](size_t i) { ctx_->tables(i).forward(residue(i)); });
    domain_ = Domain::kNtt;
}

void
RnsPoly::toCoeff()
{
    if (domain_ == Domain::kCoeff)
        return;
    parallelForLimbs(levels_,
                     [&](size_t i) { ctx_->tables(i).inverse(residue(i)); });
    domain_ = Domain::kCoeff;
}

RnsPoly &
RnsPoly::operator+=(const RnsPoly &o)
{
    F1_CHECK(levels_ == o.levels_ && domain_ == o.domain_,
             "operand mismatch in +=");
    parallelForLimbs(levels_, [&](size_t i) {
        const uint32_t q = ctx_->modulus(i);
        auto a = residue(i);
        auto b = o.residue(i);
        for (size_t j = 0; j < a.size(); ++j)
            a[j] = addMod(a[j], b[j], q);
    });
    return *this;
}

RnsPoly &
RnsPoly::operator-=(const RnsPoly &o)
{
    F1_CHECK(levels_ == o.levels_ && domain_ == o.domain_,
             "operand mismatch in -=");
    parallelForLimbs(levels_, [&](size_t i) {
        const uint32_t q = ctx_->modulus(i);
        auto a = residue(i);
        auto b = o.residue(i);
        for (size_t j = 0; j < a.size(); ++j)
            a[j] = subMod(a[j], b[j], q);
    });
    return *this;
}

RnsPoly
RnsPoly::operator+(const RnsPoly &o) const
{
    RnsPoly r = *this;
    r += o;
    return r;
}

RnsPoly
RnsPoly::operator-(const RnsPoly &o) const
{
    RnsPoly r = *this;
    r -= o;
    return r;
}

void
RnsPoly::negate()
{
    parallelForLimbs(levels_, [&](size_t i) {
        const uint32_t q = ctx_->modulus(i);
        for (auto &x : residue(i))
            x = negMod(x, q);
    });
}

RnsPoly &
RnsPoly::mulEq(const RnsPoly &o)
{
    F1_CHECK(domain_ == Domain::kNtt && o.domain_ == Domain::kNtt,
             "element-wise multiply requires NTT domain");
    F1_CHECK(levels_ == o.levels_, "level mismatch in mulEq");
    parallelForLimbs(levels_, [&](size_t i) {
        const uint32_t q = ctx_->modulus(i);
        const uint64_t mu = barrettPrecompute(q);
        auto a = residue(i);
        auto b = o.residue(i);
        for (size_t j = 0; j < a.size(); ++j)
            a[j] = mulModBarrett(a[j], b[j], q, mu);
    });
    return *this;
}

RnsPoly
RnsPoly::mul(const RnsPoly &o) const
{
    RnsPoly r = *this;
    r.mulEq(o);
    return r;
}

void
RnsPoly::mulScalarPerResidue(std::span<const uint32_t> scalar)
{
    F1_CHECK(scalar.size() >= levels_, "missing per-residue scalars");
    parallelForLimbs(levels_, [&](size_t i) {
        const uint32_t q = ctx_->modulus(i);
        const uint32_t s = scalar[i];
        const uint32_t pre = shoupPrecompute(s, q);
        for (auto &x : residue(i))
            x = mulModShoup(x, s, pre, q);
    });
}

void
RnsPoly::mulScalar(uint64_t c)
{
    parallelForLimbs(levels_, [&](size_t i) {
        const uint32_t q = ctx_->modulus(i);
        const uint32_t s = static_cast<uint32_t>(c % q);
        const uint32_t pre = shoupPrecompute(s, q);
        for (auto &x : residue(i))
            x = mulModShoup(x, s, pre, q);
    });
}

RnsPoly
RnsPoly::automorphism(uint64_t g) const
{
    RnsPoly out(ctx_, levels_, domain_);
    parallelForLimbs(levels_, [&](size_t i) {
        if (domain_ == Domain::kNtt)
            automorphismNtt(residue(i), out.residue(i), g);
        else
            automorphismCoeff(residue(i), out.residue(i), g,
                              ctx_->modulus(i));
    });
    return out;
}

RnsPoly
RnsPoly::restricted(size_t levels) const
{
    F1_CHECK(levels <= levels_, "restriction beyond current levels");
    RnsPoly out(ctx_, levels, domain_);
    std::copy(data_.begin(), data_.begin() + levels * ctx_->n(),
              out.data_.begin());
    return out;
}

void
RnsPoly::dropLastResidue()
{
    F1_CHECK(levels_ > 1, "cannot drop the last remaining residue");
    --levels_;
    data_.resize(levels_ * ctx_->n());
}

void
RnsPoly::appendZeroResidues(size_t count)
{
    F1_CHECK(levels_ + count <= ctx_->chainLength(),
             "not enough moduli in chain");
    levels_ += count;
    data_.resize(levels_ * ctx_->n(), 0);
}

std::pair<BigInt, bool>
RnsPoly::coeffCentered(size_t idx) const
{
    F1_CHECK(domain_ == Domain::kCoeff,
             "coeffCentered requires coefficient domain");
    std::vector<uint32_t> residues(levels_);
    for (size_t i = 0; i < levels_; ++i)
        residues[i] = residue(i)[idx];
    return ctx_->crtRecombineCentered(residues, levels_);
}

} // namespace f1
