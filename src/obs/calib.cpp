#include "obs/calib.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace f1::obs {

namespace {

uint64_t
clampToGauge(double v)
{
    if (!(v > 0))
        return 0;
    return static_cast<uint64_t>(v);
}

} // namespace

ScheduleCalibration &
ScheduleCalibration::global()
{
    static ScheduleCalibration *c = new ScheduleCalibration;
    return *c;
}

void
ScheduleCalibration::record(size_t kind, const char *name,
                            uint64_t predictedCycle, int64_t measuredNs)
{
    if (kind >= kMaxKinds || name == nullptr)
        return;
    Kind &k = kinds_[kind];
    std::lock_guard<std::mutex> lock(k.m);
    if (k.name == nullptr) {
        MetricsRegistry &reg = MetricsRegistry::global();
        const std::string base = std::string("calib.") + name + ".";
        k.samples = &reg.gauge(base + "samples");
        k.slopeMilli = &reg.gauge(base + "slope_milli");
        k.interceptNs = &reg.gauge(base + "intercept_ns");
        k.maeNs = &reg.gauge(base + "mae_ns");
        k.name = name;
    }
    const double x = static_cast<double>(predictedCycle);
    const double y = static_cast<double>(measuredNs);
    k.n += 1;
    k.sx += x;
    k.sy += y;
    k.sxx += x * x;
    k.sxy += x * y;
    if (k.ring.size() < kRingCap) {
        k.ring.emplace_back(x, y);
    } else {
        k.ring[k.ringNext] = {x, y};
        k.ringNext = (k.ringNext + 1) % kRingCap;
    }
    const KindFit f = fit(k);
    k.samples->set(f.samples);
    k.slopeMilli->set(clampToGauge(f.slopeNsPerCycle * 1000.0));
    k.interceptNs->set(clampToGauge(f.interceptNs));
    k.maeNs->set(clampToGauge(f.maeNs));
}

ScheduleCalibration::KindFit
ScheduleCalibration::fit(const Kind &k)
{
    KindFit f;
    f.samples = k.n;
    const double n = static_cast<double>(k.n);
    const double den = n * k.sxx - k.sx * k.sx;
    if (k.n >= 2 && std::abs(den) > 1e-9) {
        f.slopeNsPerCycle = (n * k.sxy - k.sx * k.sy) / den;
        f.interceptNs = (k.sy - f.slopeNsPerCycle * k.sx) / n;
    } else if (k.n >= 1) {
        // All predictions identical (or a single sample): the best
        // constant model is the mean measured start.
        f.interceptNs = k.sy / n;
    }
    double absErr = 0;
    for (const auto &[x, y] : k.ring)
        absErr += std::abs(y - (f.slopeNsPerCycle * x + f.interceptNs));
    f.maeNs = k.ring.empty() ? 0 : absErr / double(k.ring.size());
    f.retained = k.ring.size();
    return f;
}

std::vector<ScheduleCalibration::KindFit>
ScheduleCalibration::snapshot() const
{
    std::vector<KindFit> out;
    for (const Kind &k : kinds_) {
        std::lock_guard<std::mutex> lock(k.m);
        if (k.name == nullptr || k.n == 0)
            continue;
        out.push_back(fit(k));
        out.back().name = k.name;
    }
    return out;
}

std::string
ScheduleCalibration::toJson() const
{
    const std::vector<KindFit> fits = snapshot();
    std::ostringstream os;
    os << "{\"ring_capacity\": " << kRingCap << ", \"kinds\": {";
    bool first = true;
    char buf[64];
    for (const KindFit &f : fits) {
        os << (first ? "" : ", ");
        first = false;
        os << "\"" << f.name << "\": {\"samples\": " << f.samples;
        std::snprintf(buf, sizeof buf, "%.6f", f.slopeNsPerCycle);
        os << ", \"slope_ns_per_cycle\": " << buf;
        std::snprintf(buf, sizeof buf, "%.3f", f.interceptNs);
        os << ", \"intercept_ns\": " << buf;
        std::snprintf(buf, sizeof buf, "%.3f", f.maeNs);
        os << ", \"mae_ns\": " << buf
           << ", \"retained\": " << f.retained << "}";
    }
    os << "}}\n";
    return os.str();
}

void
ScheduleCalibration::reset()
{
    for (Kind &k : kinds_) {
        std::lock_guard<std::mutex> lock(k.m);
        k.n = 0;
        k.sx = k.sy = k.sxx = k.sxy = 0;
        k.ring.clear();
        k.ringNext = 0;
        if (k.name != nullptr)
            for (Gauge *g : {k.samples, k.slopeMilli, k.interceptNs,
                             k.maeNs})
                g->set(0);
    }
}

} // namespace f1::obs
