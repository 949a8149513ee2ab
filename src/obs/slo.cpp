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
        auto t = std::make_unique<Tenant>();
        t->ring.assign(cfg_.windowSize, 0);
        auto &reg = MetricsRegistry::global();
        t->missCounter =
            &reg.counter("slo." + tenant + ".deadline_misses");
        // The gauge lambdas read the Tenant's atomics only: a
        // registry snapshot evaluates them under the REGISTRY lock,
        // and taking m_ there would invert against this very path
        // (m_ held -> registry lock to register). Integer scaling:
        // attainment in basis points, burn rate in milli-units.
        Tenant *tp = t.get();
        const double target = cfg_.targetAttainment;
        t->attainGauge =
            reg.gauge("slo." + tenant + ".attainment", [tp] {
                const uint64_t tot =
                    tp->winTotal.load(std::memory_order_relaxed);
                const uint64_t miss =
                    tp->winMisses.load(std::memory_order_relaxed);
                return uint64_t(
                    std::llround(attainmentOf(tot, miss) * 10000.0));
            });
        t->burnGauge =
            reg.gauge("slo." + tenant + ".burn_rate", [tp, target] {
                const uint64_t tot =
                    tp->winTotal.load(std::memory_order_relaxed);
                if (tot == 0)
                    return uint64_t(0);
                const uint64_t miss =
                    tp->winMisses.load(std::memory_order_relaxed);
                const double rate = std::min(
                    (double(miss) / double(tot)) / (1.0 - target),
                    kMaxBurnRate);
                return uint64_t(std::llround(rate * 1000.0));
            });
        it = tenants_.emplace(tenant, std::move(t)).first;
    }

    Tenant &t = *it->second;
    if (t.total >= cfg_.windowSize) {
        // Window full: the slot at head leaves the window.
        if (t.ring[t.head] != 0)
            t.winMisses.fetch_sub(1, std::memory_order_relaxed);
    } else {
        t.winTotal.fetch_add(1, std::memory_order_relaxed);
    }
    t.ring[t.head] = miss ? 1 : 0;
    t.head = (t.head + 1) % cfg_.windowSize;
    ++t.total;
    if (miss) {
        ++t.misses;
        t.winMisses.fetch_add(1, std::memory_order_relaxed);
        t.missCounter->inc();
    }
}

double
SloTracker::burnRate(const std::string &tenant) const
{
    std::lock_guard<std::mutex> lock(m_);
    auto it = tenants_.find(tenant);
    if (it == tenants_.end())
        return 0.0;
    return burnRateOf(
        it->second->winTotal.load(std::memory_order_relaxed),
        it->second->winMisses.load(std::memory_order_relaxed));
}

std::map<std::string, SloTracker::TenantSlo>
SloTracker::snapshot() const
{
    std::lock_guard<std::mutex> lock(m_);
    std::map<std::string, TenantSlo> out;
    for (const auto &[name, t] : tenants_) {
        TenantSlo s;
        s.total = t->total;
        s.misses = t->misses;
        s.windowTotal = t->winTotal.load(std::memory_order_relaxed);
        s.windowMisses = t->winMisses.load(std::memory_order_relaxed);
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
