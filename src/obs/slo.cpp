#include "obs/slo.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "obs/json.h"

namespace f1::obs {

namespace {

/** Burn rates are reported in milli-units; cap so a 0-attainment
 *  window with a tight budget stays a finite, sortable number. */
constexpr double kMaxBurnRate = 1e6;

} // namespace

SloTracker::SloTracker(SloConfig cfg)
    : cfg_(cfg)
{
    if (cfg_.windowSize == 0)
        cfg_.windowSize = 1;
    cfg_.targetAttainment =
        std::min(cfg_.targetAttainment, 1.0 - 1e-9);
}

SloTracker::~SloTracker()
{
    for (auto &[name, t] : tenants_) {
        t.attainment->set(10000);
        t.burnRate->set(0);
    }
}

double
SloTracker::attainmentOf(uint64_t winTotal, uint64_t winMisses)
{
    if (winTotal == 0)
        return 1.0;
    return 1.0 - double(winMisses) / double(winTotal);
}

double
SloTracker::burnRateOf(uint64_t winTotal, uint64_t winMisses) const
{
    if (winTotal == 0)
        return 0.0;
    const double missFrac = double(winMisses) / double(winTotal);
    const double budget = 1.0 - cfg_.targetAttainment;
    return std::min(missFrac / budget, kMaxBurnRate);
}

void
SloTracker::recordJob(const std::string &tenant, double latencyMs,
                      double deadlineMs)
{
    const bool miss = deadlineMs > 0 && !(latencyMs <= deadlineMs);
    std::lock_guard<std::mutex> lock(m_);
    auto it = tenants_.find(tenant);
    if (it == tenants_.end()) {
        auto &reg = MetricsRegistry::global();
        const std::string base = "slo." + tenant + ".";
        Tenant fresh;
        fresh.ring.assign(cfg_.windowSize, 0);
        fresh.missCounter = &reg.counter(base + "deadline_misses");
        fresh.attainment = &reg.gauge(base + "attainment");
        fresh.burnRate = &reg.gauge(base + "burn_rate");
        it = tenants_.emplace(tenant, std::move(fresh)).first;
    }

    Tenant &t = it->second;
    if (t.total >= cfg_.windowSize) {
        // Window full: the slot at head leaves the window.
        if (t.ring[t.head] != 0)
            --t.winMisses;
    } else {
        ++t.winTotal;
    }
    t.ring[t.head] = miss ? 1 : 0;
    t.head = (t.head + 1) % cfg_.windowSize;
    ++t.total;
    if (miss) {
        ++t.misses;
        ++t.winMisses;
        t.missCounter->inc();
    }
    // Integer scaling: attainment in basis points, burn rate in
    // milli-units.
    t.attainment->set(uint64_t(
        std::llround(attainmentOf(t.winTotal, t.winMisses) * 10000.0)));
    t.burnRate->set(uint64_t(
        std::llround(burnRateOf(t.winTotal, t.winMisses) * 1000.0)));
}

double
SloTracker::burnRate(const std::string &tenant) const
{
    std::lock_guard<std::mutex> lock(m_);
    auto it = tenants_.find(tenant);
    if (it == tenants_.end())
        return 0.0;
    return burnRateOf(it->second.winTotal, it->second.winMisses);
}

std::map<std::string, SloTracker::TenantSlo>
SloTracker::snapshot() const
{
    std::lock_guard<std::mutex> lock(m_);
    std::map<std::string, TenantSlo> out;
    for (const auto &[name, t] : tenants_) {
        TenantSlo s;
        s.total = t.total;
        s.misses = t.misses;
        s.windowTotal = t.winTotal;
        s.windowMisses = t.winMisses;
        s.attainment = attainmentOf(s.windowTotal, s.windowMisses);
        s.burnRate = burnRateOf(s.windowTotal, s.windowMisses);
        out.emplace(name, s);
    }
    return out;
}

std::string
SloTracker::toJson() const
{
    const auto tenants = snapshot();
    std::ostringstream os;
    os << "{\"target_attainment\": ";
    appendJsonNumber(os, cfg_.targetAttainment);
    os << ", \"window_size\": " << cfg_.windowSize
       << ", \"tenants\": {";
    bool first = true;
    for (const auto &[name, s] : tenants) {
        if (!first)
            os << ", ";
        first = false;
        appendJsonString(os, name);
        os << ": {\"total\": " << s.total
           << ", \"deadline_misses\": " << s.misses
           << ", \"window_total\": " << s.windowTotal
           << ", \"window_misses\": " << s.windowMisses
           << ", \"attainment\": ";
        appendJsonNumber(os, s.attainment);
        os << ", \"burn_rate\": ";
        appendJsonNumber(os, s.burnRate);
        os << "}";
    }
    os << "}}";
    return os.str();
}

} // namespace f1::obs
