#include "fhe/encoder.h"

#include <cmath>
#include <numbers>

#include "common/bits.h"
#include "common/error.h"
#include "modular/modarith.h"
#include "modular/primes.h"

namespace f1 {

SlotOrder::SlotOrder(uint32_t n) : n_(n)
{
    F1_REQUIRE(isPowerOfTwo(n) && n >= 4, "slot order needs N >= 4");
    evalIndex_.resize(n);
    const uint64_t two_n = 2 * (uint64_t)n;
    uint64_t e = 1; // 5^0
    for (uint32_t col = 0; col < n / 2; ++col) {
        evalIndex_[col] = static_cast<uint32_t>((e - 1) / 2);
        uint64_t e_conj = two_n - e; // exponent -5^col
        evalIndex_[n / 2 + col] = static_cast<uint32_t>((e_conj - 1) / 2);
        e = (e * 5) % two_n;
    }
}

uint64_t
SlotOrder::rotationGalois(int64_t r) const
{
    const uint64_t two_n = 2 * (uint64_t)n_;
    const uint64_t row = rowSize();
    uint64_t steps = static_cast<uint64_t>(((r % (int64_t)row) +
                                            (int64_t)row) % (int64_t)row);
    uint64_t g = 1;
    for (uint64_t i = 0; i < steps; ++i)
        g = (g * 5) % two_n;
    return g;
}

uint32_t
SlotOrder::evalIndex(uint32_t row, uint32_t col) const
{
    F1_CHECK(row < 2 && col < rowSize(), "slot index out of range");
    return evalIndex_[row * rowSize() + col];
}

//
// BgvEncoder
//

BgvEncoder::BgvEncoder(const FheContext *ctx, uint64_t t)
    : ctx_(ctx), t_(t), order_(ctx->n())
{
    const uint64_t two_n = 2 * (uint64_t)ctx->n();
    if (t > 2 && isPrime(t) && (t - 1) % two_n == 0 &&
        t <= (uint64_t)UINT32_MAX) {
        tables_ = std::make_unique<NttTables>(
            ctx->n(), static_cast<uint32_t>(t));
    }
}

std::vector<int64_t>
BgvEncoder::encodeSlots(std::span<const uint64_t> slots) const
{
    F1_REQUIRE(supportsSlots(),
               "t=" << t_ << " does not support slot packing for N="
               << ctx_->n());
    const uint32_t n = ctx_->n();
    F1_REQUIRE(slots.size() == n, "expected " << n << " slot values");
    // Scatter logical slots into evaluation order, then inverse-NTT.
    std::vector<uint32_t> evals(n);
    for (uint32_t row = 0; row < 2; ++row)
        for (uint32_t col = 0; col < n / 2; ++col)
            evals[order_.evalIndex(row, col)] = static_cast<uint32_t>(
                slots[row * (n / 2) + col] % t_);
    tables_->inverse(evals);
    std::vector<int64_t> coeffs(n);
    const uint64_t half = t_ / 2;
    for (uint32_t i = 0; i < n; ++i) {
        coeffs[i] = evals[i] > half ? (int64_t)evals[i] - (int64_t)t_
                                    : (int64_t)evals[i];
    }
    return coeffs;
}

std::vector<uint64_t>
BgvEncoder::decodeSlots(std::span<const uint64_t> coeffs) const
{
    F1_REQUIRE(supportsSlots(), "slot decode without slot support");
    const uint32_t n = ctx_->n();
    F1_REQUIRE(coeffs.size() == n, "bad coefficient count");
    std::vector<uint32_t> evals(n);
    for (uint32_t i = 0; i < n; ++i)
        evals[i] = static_cast<uint32_t>(coeffs[i] % t_);
    tables_->forward(evals);
    std::vector<uint64_t> slots(n);
    for (uint32_t row = 0; row < 2; ++row)
        for (uint32_t col = 0; col < n / 2; ++col)
            slots[row * (n / 2) + col] =
                evals[order_.evalIndex(row, col)];
    return slots;
}

std::vector<int64_t>
BgvEncoder::encodeCoeffs(std::span<const uint64_t> values) const
{
    const uint32_t n = ctx_->n();
    F1_REQUIRE(values.size() <= n, "too many coefficients");
    std::vector<int64_t> coeffs(n, 0);
    const uint64_t half = t_ / 2;
    for (size_t i = 0; i < values.size(); ++i) {
        uint64_t v = values[i] % t_;
        coeffs[i] = v > half ? (int64_t)v - (int64_t)t_ : (int64_t)v;
    }
    return coeffs;
}

RnsPoly
BgvEncoder::toPoly(std::span<const int64_t> coeffs, size_t levels,
                   Domain domain) const
{
    return RnsPoly::fromSigned(ctx_->polyContext(), levels, coeffs,
                               domain);
}

//
// CkksEncoder
//

CkksEncoder::CkksEncoder(const FheContext *ctx)
    : ctx_(ctx), order_(ctx->n())
{
    const uint32_t n = ctx->n();
    const uint32_t bits = log2Exact(n);
    psi_.resize(n);
    bitRev_.resize(n);
    for (uint32_t i = 0; i < n; ++i) {
        double ang = std::numbers::pi * i / n;
        psi_[i] = {std::cos(ang), std::sin(ang)};
        bitRev_[i] = bitReverse(i, bits);
    }
    // Stage twiddles w_j = wlen^j, by the recurrence w *= wlen that
    // every block of the stage would otherwise repeat.
    for (bool inverse : {false, true}) {
        auto &tw = twiddles_[inverse];
        tw.resize(n);
        for (uint32_t half = 1; half < n; half <<= 1) {
            double ang = std::numbers::pi / half * (inverse ? -1.0 : 1.0);
            std::complex<double> wlen{std::cos(ang), std::sin(ang)};
            std::complex<double> w{1.0, 0.0};
            for (uint32_t j = 0; j < half; ++j) {
                tw[half + j] = w;
                w *= wlen;
            }
        }
    }
}

void
CkksEncoder::fft(std::vector<std::complex<double>> &a, bool inverse) const
{
    const uint32_t n = static_cast<uint32_t>(a.size());
    F1_CHECK(n == bitRev_.size(), "CKKS FFT length mismatch");
    for (uint32_t i = 0; i < n; ++i) {
        const uint32_t j = bitRev_[i];
        if (i < j)
            std::swap(a[i], a[j]);
    }
    // std::complex<double> is laid out as double[2] (the standard
    // allows this access), so the butterflies run on restrict-qualified
    // doubles: v = hi * w in real arithmetic, the products and sums
    // std::complex's operator* forms, without its NaN fallback call.
    double *__restrict d = reinterpret_cast<double *>(a.data());
    const double *__restrict tw =
        reinterpret_cast<const double *>(twiddles_[inverse].data());
    for (uint32_t half = 1; half < n; half <<= 1) {
        const double *w = tw + 2 * size_t(half);
        for (uint32_t base = 0; base < n; base += 2 * half) {
            double *__restrict lo = d + 2 * size_t(base);
            double *__restrict hi = lo + 2 * size_t(half);
            for (uint32_t j = 0; j < half; ++j) {
                const double wr = w[2 * j], wi = w[2 * j + 1];
                const double xr = hi[2 * j], xi = hi[2 * j + 1];
                const double vr = xr * wr - xi * wi;
                const double vi = xr * wi + xi * wr;
                const double ur = lo[2 * j], ui = lo[2 * j + 1];
                lo[2 * j] = ur + vr;
                lo[2 * j + 1] = ui + vi;
                hi[2 * j] = ur - vr;
                hi[2 * j + 1] = ui - vi;
            }
        }
    }
    if (inverse) {
        for (auto &x : a)
            x /= static_cast<double>(n);
    }
}

RnsPoly
CkksEncoder::encode(std::span<const std::complex<double>> slots,
                    double scale, size_t levels) const
{
    const uint32_t n = ctx_->n();
    F1_REQUIRE(slots.size() == n / 2,
               "expected " << n / 2 << " CKKS slots");
    // Fill the evaluation vector with conjugate symmetry (row 1 holds
    // the conjugates so the coefficients come out real).
    std::vector<std::complex<double>> w(n);
    for (uint32_t col = 0; col < n / 2; ++col) {
        w[order_.evalIndex(0, col)] = slots[col];
        w[order_.evalIndex(1, col)] = std::conj(slots[col]);
    }
    // m_i = Re(ζ^-i * IFFT(W)[i]) * scale.
    fft(w, /*inverse=*/true);
    std::vector<int64_t> coeffs(n);
    for (uint32_t i = 0; i < n; ++i) {
        std::complex<double> v = w[i] * std::conj(psi_[i]);
        coeffs[i] = llround(v.real() * scale);
    }
    return RnsPoly::fromSigned(ctx_->polyContext(), levels, coeffs);
}

RnsPoly
CkksEncoder::encodeConstant(double value, double scale,
                            size_t levels) const
{
    // A constant is the polynomial value*scale + 0*x + ...: encode
    // directly without the FFT.
    std::vector<int64_t> coeffs(ctx_->n(), 0);
    coeffs[0] = llround(value * scale);
    return RnsPoly::fromSigned(ctx_->polyContext(), levels, coeffs);
}

std::vector<std::complex<double>>
CkksEncoder::decode(const RnsPoly &poly, double scale) const
{
    const uint32_t n = ctx_->n();
    RnsPoly p = poly;
    p.toCoeff();
    std::vector<std::complex<double>> w(n);
    for (uint32_t i = 0; i < n; ++i) {
        auto [mag, neg] = p.coeffCentered(i);
        double v = mag.toDouble() * (neg ? -1.0 : 1.0);
        w[i] = v * psi_[i];
    }
    fft(w, /*inverse=*/false);
    std::vector<std::complex<double>> slots(n / 2);
    for (uint32_t col = 0; col < n / 2; ++col)
        slots[col] = w[order_.evalIndex(0, col)] / scale;
    return slots;
}

} // namespace f1
