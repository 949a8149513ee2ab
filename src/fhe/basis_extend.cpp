#include "fhe/basis_extend.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/parallel.h"
#include "common/scratch.h"
#include "modular/modarith.h"
#include "obs/profile.h"

namespace f1 {

BasisExtender::BasisExtender(const PolyContext *ctx,
                             std::vector<size_t> source,
                             std::vector<size_t> target)
    : ctx_(ctx), source_(std::move(source)), target_(std::move(target))
{
    F1_REQUIRE(!source_.empty() && !target_.empty(),
               "basis extension needs nonempty bases");
    const size_t l = source_.size();
    qHatInv_.resize(l);
    qInvReal_.resize(l);
    sourceMu_.resize(l);
    for (size_t i = 0; i < l; ++i) {
        const uint32_t qi = ctx_->modulus(source_[i]);
        sourceMu_[i] = barrettPrecompute(qi);
        uint64_t hat = 1;
        for (size_t j = 0; j < l; ++j) {
            if (j != i)
                hat = hat * (ctx_->modulus(source_[j]) % qi) % qi;
        }
        qHatInv_[i] = invMod(static_cast<uint32_t>(hat), qi);
        qInvReal_[i] = 1.0 / static_cast<double>(qi);
    }
    qHatModTarget_.resize(target_.size());
    qModTarget_.resize(target_.size());
    targetMu_.resize(target_.size());
    for (size_t k = 0; k < target_.size(); ++k) {
        const uint32_t pk = ctx_->modulus(target_[k]);
        targetMu_[k] = barrettPrecompute(pk);
        qHatModTarget_[k].resize(l);
        uint64_t qmod = 1;
        for (size_t i = 0; i < l; ++i)
            qmod = qmod * (ctx_->modulus(source_[i]) % pk) % pk;
        qModTarget_[k] = static_cast<uint32_t>(qmod);
        for (size_t i = 0; i < l; ++i) {
            uint64_t hat = 1;
            for (size_t j = 0; j < l; ++j) {
                if (j != i) {
                    hat = hat * (ctx_->modulus(source_[j]) % pk) % pk;
                }
            }
            qHatModTarget_[k][i] = static_cast<uint32_t>(hat);
        }
    }
}

void
BasisExtender::extend(std::span<const uint32_t> in, size_t n,
                      std::span<uint32_t> out) const
{
    const size_t l = source_.size();
    const size_t tcount = target_.size();
    F1_CHECK(in.size() == l * n, "bad input size");
    F1_CHECK(out.size() == tcount * n, "bad output size");
    obs::profileAdd(obs::ProfileCounter::kBasisExtend);

    // Every coefficient column is independent, so the conversion
    // parallelizes over contiguous coefficient blocks (the per-limb
    // grain is wrong here: the loop is over columns, not residues).
    // Block results are position-determined, so the output is
    // bit-identical to the serial path for any thread count.
    constexpr size_t kBlock = 512;
    const size_t nblocks = (n + kBlock - 1) / kBlock;
    parallelFor(0, nblocks, [&](size_t b) {
        auto w = ScratchArena::u32(l);
        const size_t jEnd = std::min(n, (b + 1) * kBlock);
        for (size_t j = b * kBlock; j < jEnd; ++j) {
            double frac = 0;
            for (size_t i = 0; i < l; ++i) {
                const uint32_t qi = ctx_->modulus(source_[i]);
                w[i] = mulModBarrett(in[i * n + j], qHatInv_[i], qi,
                                     sourceMu_[i]);
                frac += static_cast<double>(w[i]) * qInvReal_[i];
            }
            // alpha <= l: each w_i / q_i < 1.
            const uint32_t alpha = static_cast<uint32_t>(frac + 0.5);
            for (size_t k = 0; k < tcount; ++k) {
                const uint32_t pk = ctx_->modulus(target_[k]);
                const uint64_t mu = targetMu_[k];
                // w_i < q_i need not be below p_k: the Barrett multiply
                // takes any 32-bit operand. l terms < p_k cannot
                // overflow the 64-bit sum.
                uint64_t acc = 0;
                for (size_t i = 0; i < l; ++i)
                    acc += mulModBarrett(w[i], qHatModTarget_[k][i], pk, mu);
                const uint32_t corr =
                    mulModBarrett(alpha, qModTarget_[k], pk, mu);
                out[k * n + j] =
                    subMod(barrettReduce(acc, pk, mu), corr, pk);
            }
        }
    });
}

} // namespace f1
