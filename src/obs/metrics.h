/**
 * @file
 * Process-wide metrics registry: named counters, gauges and
 * fixed-bucket latency histograms, snapshotable to JSON.
 *
 * The F1 paper's evaluation (Figs. 9-10) is built on per-structure
 * utilization and cycle breakdowns; this registry is the software
 * analogue — one place every hot-path counter in the system reports
 * to. The registry owns every value it exports. A scalar is one of
 * two kinds, resolved once by name and written by its owner where the
 * value changes:
 *  - Counter: monotonic (inc). MetricsRegistry::reset() zeroes it.
 *  - Gauge: a level (set, add, sub), e.g. a queue depth or a cache
 *    size. reset() leaves it alone, since the level it tracks still
 *    stands. Owners of one name share the gauge, so add/sub from
 *    several live instances sum, and a set is the last writer's.
 * A name has one kind: asking for it as the other kind throws.
 *
 * Cost model (the "zero overhead when off" contract):
 *  - Counter::inc and the Gauge writes are one relaxed atomic op.
 *    Hot paths resolve the reference once (function-local static or
 *    member), so the name lookup mutex is off the hot path entirely.
 *  - Histogram::observe is a branch-free bucket search over <= 32
 *    bounds plus two relaxed adds; it sits on per-job paths (one call
 *    per job), never per-op or per-limb paths.
 *  - snapshot() locks the registry and copies values; it runs no
 *    owner code. It is a cold-path export for benches, tests, and
 *    serving dashboards.
 */
#ifndef F1_OBS_METRICS_H
#define F1_OBS_METRICS_H

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

namespace f1::obs {

/** Monotonic relaxed-atomic counter; MetricsRegistry::reset() zeroes
 *  it. */
class Counter
{
  public:
    Counter() = default;
    Counter(const Counter &) = delete;
    Counter &operator=(const Counter &) = delete;

    void
    inc(uint64_t d = 1)
    {
        v_.fetch_add(d, std::memory_order_relaxed);
    }
    uint64_t
    value() const
    {
        return v_.load(std::memory_order_relaxed);
    }

  private:
    friend class MetricsRegistry; // reset()
    std::atomic<uint64_t> v_{0};
};

/** A level its owners write where it changes; MetricsRegistry::reset()
 *  leaves it alone. Arithmetic is modulo 2^64, so a sub() must follow
 *  the add() it undoes. */
class Gauge
{
  public:
    Gauge() = default;
    Gauge(const Gauge &) = delete;
    Gauge &operator=(const Gauge &) = delete;

    void
    set(uint64_t v)
    {
        v_.store(v, std::memory_order_relaxed);
    }
    void
    add(uint64_t d = 1)
    {
        v_.fetch_add(d, std::memory_order_relaxed);
    }
    void
    sub(uint64_t d = 1)
    {
        v_.fetch_sub(d, std::memory_order_relaxed);
    }
    uint64_t
    value() const
    {
        return v_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<uint64_t> v_{0};
};

struct HistogramSnapshot
{
    std::vector<double> bounds;   //!< bucket upper bounds, ascending
    std::vector<uint64_t> counts; //!< bounds.size() + 1 (overflow last)
    uint64_t count = 0;
    double sum = 0;

    /** Quantile set configured for this histogram (ascending); the
     *  JSON snapshot renders one pNN_ms key per entry. */
    std::vector<double> quantiles;

    /** Observations above the last bucket edge. These have no upper
     *  bound, so any quantile falling here is a lower-bound estimate
     *  (the +Inf bucket in Prometheus terms) — consumers must not
     *  read it as a measured latency. */
    uint64_t overflowCount() const
    {
        return counts.empty() ? 0 : counts.back();
    }

    /** Bucket-resolution quantile estimate with an explicit overflow
     *  marker: `value` is the upper bound of the bucket containing the
     *  q-quantile observation; when the observation sits in the
     *  overflow (+Inf) bucket, `value` is the last finite edge and
     *  `overflow` is true (Prometheus output renders it as +Inf). */
    struct Quantile
    {
        double value = 0;
        bool overflow = false;
    };
    Quantile quantileAt(double q) const;

    /** Compatibility wrapper: quantileAt(q).value (the overflow
     *  marker is dropped, clamping to the last finite edge). */
    double quantile(double q) const { return quantileAt(q).value; }
};

/**
 * Fixed-bucket histogram. Bucket bounds are immutable after
 * construction; observe() is lock-free (relaxed atomics). The sum is
 * accumulated in integer microunits (value * 1e6) to stay portable
 * across atomic<double> support levels.
 */
class Histogram
{
  public:
    explicit Histogram(std::span<const double> bounds,
                       std::span<const double> quantiles = {});
    Histogram(const Histogram &) = delete;
    Histogram &operator=(const Histogram &) = delete;

    void observe(double value);
    HistogramSnapshot snapshot() const;
    void reset();

    /** Replaces the quantile set exported in snapshots (ascending;
     *  cold path, snapshot-consistent). Existing snapshot JSON keys
     *  never change meaning — new quantiles add keys. */
    void setQuantiles(std::span<const double> quantiles);
    std::vector<double> quantiles() const;

  private:
    std::vector<double> bounds_;
    std::vector<std::atomic<uint64_t>> counts_; //!< + overflow bucket
    std::atomic<uint64_t> count_{0};
    std::atomic<uint64_t> sumMicro_{0};

    mutable std::mutex qm_; //!< guards quantiles_ (cold paths only)
    std::vector<double> quantiles_;
};

/** Default latency buckets (milliseconds), 10us .. 10s. */
std::span<const double> defaultLatencyBucketsMs();

/** Default exported quantile set: p50, p95. */
std::span<const double> defaultQuantiles();

struct MetricsSnapshot
{
    /** Every counter value, by name. */
    std::map<std::string, uint64_t> counters;
    /** Every gauge value, by name (a name has one kind, so the two
     *  maps never share a key). */
    std::map<std::string, uint64_t> gauges;
    std::map<std::string, HistogramSnapshot> histograms;

    /** One JSON object: {"counters": {...}, "gauges": {...},
     *  "histograms": {...}}. Keys are sorted, so the output is
     *  deterministic. */
    std::string toJson() const;
};

class MetricsRegistry
{
  public:
    /** The process-wide registry (never destroyed, so counters
     *  resolved into function-local statics stay valid at exit). */
    static MetricsRegistry &global();

    MetricsRegistry() = default;
    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    /**
     * Returns the counter registered under `name`, creating it on
     * first use. The reference stays valid for the registry's
     * lifetime; resolve once, increment forever. Throws FatalError if
     * `name` is already a gauge.
     */
    Counter &counter(const std::string &name);

    /** Returns the gauge registered under `name`, creating it (at 0)
     *  on first use; like counter(), resolve once. Throws FatalError
     *  if `name` is already a counter. */
    Gauge &gauge(const std::string &name);

    /**
     * Returns the histogram registered under `name`, creating it with
     * `bounds` (default: defaultLatencyBucketsMs) and `quantiles`
     * (default: defaultQuantiles — p50/p95) on first use. Bounds of an
     * existing histogram are not changed; a non-empty `quantiles` set
     * DOES reconfigure an existing histogram's exported quantiles, so
     * late registrants can widen the set (e.g. add p99) without racing
     * on who resolves the metric first.
     */
    Histogram &histogram(const std::string &name,
                         std::span<const double> bounds = {},
                         std::span<const double> quantiles = {});

    /** Copies every value; runs no code outside the registry. */
    MetricsSnapshot snapshot() const;

    /** Zeroes every counter and histogram; gauges keep their levels.
     *  For tests. */
    void reset();

  private:
    mutable std::mutex m_;
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

} // namespace f1::obs

#endif // F1_OBS_METRICS_H
