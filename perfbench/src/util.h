/**
 * @file
 * Shared pieces of f1bench: the metric table it prints,
 * order statistics, process peak RSS, and the in-memory span recorder
 * the traced run uses to attribute time to layers.
 */
#ifndef F1_PERFBENCH_UTIL_H
#define F1_PERFBENCH_UTIL_H

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace f1::perfbench {

struct Metric
{
    double value = 0;
    std::string unit;
};

using Metrics = std::map<std::string, Metric>;

/** Nearest-rank quantile: the ceil(q * n)-th smallest sample, so a
 *  p99 over n samples has floor(n / 100) samples beyond it. */
double quantile(std::vector<double> xs, double q);

inline double
median(std::vector<double> xs)
{
    return quantile(std::move(xs), 0.5);
}

/** Process peak resident set size in MB (getrusage). */
double peakRssMb();

/**
 * One timed interval. Spans with a request id belong to one serving
 * job's tree; `parent` links a span to the span that caused it.
 */
struct Span
{
    std::string name; //!< "<layer>.<what>", e.g. "runtime.serving.queue"
    double startMs = 0;
    double endMs = 0;
    uint64_t id = 0;
    uint64_t parent = 0;
    uint64_t request = 0;
    uint64_t tid = 0;
};

/**
 * Keeps spans in memory and writes them once at exit. Disabled
 * recorders (the untraced runs) store nothing and read no clock.
 */
class SpanRecorder
{
  public:
    explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Records a finished span; returns its id (0 when disabled). */
    uint64_t add(std::string name, double startMs, double endMs,
                 uint64_t parent = 0, uint64_t request = 0);

    /** Reserves an id for a span whose end is not known yet. */
    uint64_t reserve();

    /** Records a span under an id from reserve(). */
    void addWithId(uint64_t id, std::string name, double startMs,
                   double endMs, uint64_t parent = 0,
                   uint64_t request = 0);

    /** RAII span around the enclosing scope. */
    class Scope
    {
      public:
        Scope(SpanRecorder &rec, std::string name, uint64_t parent = 0);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        uint64_t id() const { return id_; }

      private:
        SpanRecorder &rec_;
        std::string name_;
        uint64_t parent_;
        uint64_t id_ = 0;
        double startMs_ = 0;
    };

    /** Self time per layer in ms: each span's duration minus the part
     *  of it its children cover, summed by the name's layer prefix. */
    std::map<std::string, double> selfTimeByLayer() const;

    /** Chrome/Perfetto JSON: thread spans as complete ("X") events,
     *  request trees as nested async slices keyed by request id.
     *  Returns false when the file cannot be written. */
    bool writePerfetto(const std::string &path) const;

    size_t size() const;

  private:
    const bool enabled_;
    mutable std::mutex m_;
    std::vector<Span> spans_;
    uint64_t nextId_ = 1;
};

} // namespace f1::perfbench

#endif // F1_PERFBENCH_UTIL_H
