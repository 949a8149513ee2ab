#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/error.h"
#include "obs/json.h"

namespace f1::obs {

namespace {

constexpr double kLatencyBucketsMs[] = {
    0.01, 0.02, 0.05, 0.1,  0.25, 0.5,  1.0,    2.5,   5.0,    10.0,
    25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0};

constexpr double kDefaultQuantiles[] = {0.50, 0.95};

/** "p50_ms" / "p95_ms" / "p99_ms" / "p99_9_ms" for q in [0,1]. */
std::string
quantileJsonKey(double q)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%g", q * 100.0);
    std::string key(buf);
    for (char &c : key)
        if (c == '.')
            c = '_';
    return "p" + key + "_ms";
}

} // namespace

std::span<const double>
defaultLatencyBucketsMs()
{
    return kLatencyBucketsMs;
}

std::span<const double>
defaultQuantiles()
{
    return kDefaultQuantiles;
}

HistogramSnapshot::Quantile
HistogramSnapshot::quantileAt(double q) const
{
    if (count == 0)
        return {};
    // Nearest-rank (ceil(q*n), 1-based): p99 of 3 observations is
    // the 3rd, not the 2nd — small windows must not understate the
    // tail the SLO deadline prices.
    uint64_t want =
        q <= 0 ? 0
               : static_cast<uint64_t>(
                     std::ceil(q * static_cast<double>(count))) -
                     1;
    want = std::min(want, count - 1);
    const double lastEdge = bounds.empty() ? 0 : bounds.back();
    uint64_t seen = 0;
    for (size_t b = 0; b < counts.size(); ++b) {
        seen += counts[b];
        if (seen > want) {
            // The last counts slot is the overflow (+Inf) bucket: its
            // observations exceed every finite edge, so the estimate
            // is only a lower bound and carries the marker.
            if (b >= bounds.size())
                return {lastEdge, true};
            return {bounds[b], false};
        }
    }
    return {lastEdge, !bounds.empty()};
}

Histogram::Histogram(std::span<const double> bounds,
                     std::span<const double> quantiles)
    : bounds_(bounds.begin(), bounds.end()),
      counts_(bounds.size() + 1),
      quantiles_(quantiles.empty()
                     ? std::vector<double>(kDefaultQuantiles,
                                           kDefaultQuantiles + 2)
                     : std::vector<double>(quantiles.begin(),
                                           quantiles.end()))
{
    F1_REQUIRE(std::is_sorted(bounds_.begin(), bounds_.end()),
               "histogram bucket bounds must be ascending");
    F1_REQUIRE(std::is_sorted(quantiles_.begin(), quantiles_.end()),
               "histogram quantile set must be ascending");
}

void
Histogram::setQuantiles(std::span<const double> quantiles)
{
    F1_REQUIRE(std::is_sorted(quantiles.begin(), quantiles.end()),
               "histogram quantile set must be ascending");
    std::lock_guard<std::mutex> lock(qm_);
    quantiles_.assign(quantiles.begin(), quantiles.end());
}

std::vector<double>
Histogram::quantiles() const
{
    std::lock_guard<std::mutex> lock(qm_);
    return quantiles_;
}

void
Histogram::observe(double value)
{
    const size_t b = static_cast<size_t>(
        std::lower_bound(bounds_.begin(), bounds_.end(), value) -
        bounds_.begin());
    counts_[b].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    const double micro = value * 1e6;
    sumMicro_.fetch_add(
        micro > 0 ? static_cast<uint64_t>(std::llround(micro)) : 0,
        std::memory_order_relaxed);
}

HistogramSnapshot
Histogram::snapshot() const
{
    HistogramSnapshot s;
    s.bounds = bounds_;
    s.quantiles = quantiles();
    s.counts.reserve(counts_.size());
    for (const auto &c : counts_)
        s.counts.push_back(c.load(std::memory_order_relaxed));
    s.count = count_.load(std::memory_order_relaxed);
    s.sum =
        static_cast<double>(sumMicro_.load(std::memory_order_relaxed)) /
        1e6;
    return s;
}

void
Histogram::reset()
{
    for (auto &c : counts_)
        c.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sumMicro_.store(0, std::memory_order_relaxed);
}

std::string
MetricsSnapshot::toJson() const
{
    std::ostringstream os;
    const auto scalars = [&os](const std::map<std::string, uint64_t> &m) {
        bool first = true;
        for (const auto &[name, v] : m) {
            if (!first)
                os << ", ";
            first = false;
            appendJsonString(os, name);
            os << ": " << v;
        }
    };
    os << "{\"counters\": {";
    scalars(counters);
    os << "}, \"gauges\": {";
    scalars(gauges);
    os << "}, \"histograms\": {";
    bool first = true;
    for (const auto &[name, h] : histograms) {
        if (!first)
            os << ", ";
        first = false;
        appendJsonString(os, name);
        os << ": {\"count\": " << h.count << ", \"sum_ms\": ";
        appendJsonNumber(os, h.sum);
        // p50_ms/p95_ms are stable keys every existing consumer reads;
        // configured quantiles beyond those add keys, never rename.
        os << ", \"p50_ms\": ";
        appendJsonNumber(os, h.quantile(0.50));
        os << ", \"p95_ms\": ";
        appendJsonNumber(os, h.quantile(0.95));
        for (double q : h.quantiles) {
            const std::string key = quantileJsonKey(q);
            if (key == "p50_ms" || key == "p95_ms")
                continue;
            os << ", ";
            appendJsonString(os, key);
            os << ": ";
            appendJsonNumber(os, h.quantile(q));
        }
        os << ", \"overflow\": " << h.overflowCount();
        os << ", \"bounds_ms\": [";
        for (size_t i = 0; i < h.bounds.size(); ++i) {
            if (i)
                os << ", ";
            appendJsonNumber(os, h.bounds[i]);
        }
        os << "], \"counts\": [";
        for (size_t i = 0; i < h.counts.size(); ++i) {
            if (i)
                os << ", ";
            os << h.counts[i];
        }
        os << "]}";
    }
    os << "}}";
    return os.str();
}

MetricsRegistry &
MetricsRegistry::global()
{
    // Intentionally leaked: hot paths cache metric references in
    // function-local statics, which must stay valid through static
    // destruction of arbitrary other objects.
    static MetricsRegistry *reg = new MetricsRegistry;
    return *reg;
}

Counter &
MetricsRegistry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> lock(m_);
    F1_REQUIRE(!gauges_.count(name),
               "metric \"" << name << "\" is a gauge, not a counter");
    auto &c = counters_[name];
    if (!c)
        c = std::make_unique<Counter>();
    return *c;
}

Gauge &
MetricsRegistry::gauge(const std::string &name)
{
    std::lock_guard<std::mutex> lock(m_);
    F1_REQUIRE(!counters_.count(name),
               "metric \"" << name << "\" is a counter, not a gauge");
    auto &g = gauges_[name];
    if (!g)
        g = std::make_unique<Gauge>();
    return *g;
}

Histogram &
MetricsRegistry::histogram(const std::string &name,
                           std::span<const double> bounds,
                           std::span<const double> quantiles)
{
    std::lock_guard<std::mutex> lock(m_);
    auto it = histograms_.find(name);
    if (it == histograms_.end()) {
        it = histograms_
                 .emplace(name, std::make_unique<Histogram>(
                                    bounds.empty()
                                        ? defaultLatencyBucketsMs()
                                        : bounds,
                                    quantiles))
                 .first;
    } else if (!quantiles.empty()) {
        it->second->setQuantiles(quantiles);
    }
    return *it->second;
}

MetricsSnapshot
MetricsRegistry::snapshot() const
{
    std::lock_guard<std::mutex> lock(m_);
    MetricsSnapshot s;
    for (const auto &[name, c] : counters_)
        s.counters[name] = c->value();
    for (const auto &[name, g] : gauges_)
        s.gauges[name] = g->value();
    for (const auto &[name, h] : histograms_)
        s.histograms[name] = h->snapshot();
    return s;
}

void
MetricsRegistry::reset()
{
    std::lock_guard<std::mutex> lock(m_);
    for (auto &[name, c] : counters_)
        c->v_.store(0, std::memory_order_relaxed);
    for (auto &[name, h] : histograms_)
        h->reset();
}

} // namespace f1::obs
