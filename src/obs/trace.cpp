#include "obs/trace.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <map>
#include <sstream>
#include <thread>

#include "obs/json.h"
#include "obs/metrics.h"

namespace f1::obs {

namespace {

void
appendUs(std::ostream &os, int64_t ns)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.3f",
                  static_cast<double>(ns) / 1000.0);
    os << buf;
}

/**
 * The one Chrome trace-event writer: event `e` as a pid-0 object, its
 * start re-based onto `baseNs`, on row `tid`.
 */
void
writeEvent(std::ostream &os, const TraceEvent &e, int64_t baseNs,
           uint32_t tid)
{
    const bool span = e.kind == TraceEventKind::kOpSpan;
    os << "  {\"name\": \"" << (e.name ? e.name : span ? "op" : "event")
       << "\", "
       << (span ? "\"cat\": \"op\", \"ph\": \"X\""
                : "\"cat\": \"sched\", \"ph\": \"i\", \"s\": \"t\"")
       << ", \"ts\": ";
    appendUs(os, e.tsNs - baseNs);
    if (span) {
        os << ", \"dur\": ";
        appendUs(os, e.durNs);
    }
    os << ", \"pid\": 0, \"tid\": " << tid
       << ", \"args\": {\"handle\": " << e.handle;
    if (span)
        os << ", \"trace_id\": \"" << hexId(e.traceId)
           << "\", \"predicted_start_cycle\": " << e.predictedCycle;
    os << "}}";
}

void
sortByTime(std::vector<TraceEvent> &events)
{
    std::stable_sort(events.begin(), events.end(),
                     [](const TraceEvent &a, const TraceEvent &b) {
                         return a.tsNs < b.tsNs;
                     });
}

/** Per-thread log lane: stable for the thread's lifetime, so one
 *  worker's events stay on one row. */
uint32_t
threadLane()
{
    static std::atomic<uint32_t> g_nextLane{0};
    thread_local const uint32_t lane =
        g_nextLane.fetch_add(1, std::memory_order_relaxed);
    return lane;
}

} // namespace

uint64_t
allocateTraceId()
{
    // splitmix64 over a relaxed counter: unique per process (the
    // counter), well-distributed (the mixer), and never 0.
    static std::atomic<uint64_t> g_next{0};
    uint64_t z = (g_next.fetch_add(1, std::memory_order_relaxed) + 1) *
                 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    return z != 0 ? z : 1;
}

void
Trace::writeJson(std::ostream &os) const
{
    os << "{\"displayTimeUnit\": \"ms\", \"otherData\": {\"label\": ";
    appendJsonString(os, label_);
    os << ", \"dropped_events\": " << dropped_
       << ", \"lanes\": " << lanes_ << "},\n\"traceEvents\": [\n";
    for (size_t i = 0; i < events_.size(); ++i) {
        if (i)
            os << ",\n";
        writeEvent(os, events_[i], 0, events_[i].lane);
    }
    os << "\n]}\n";
}

std::string
Trace::json() const
{
    std::ostringstream os;
    writeJson(os);
    return os.str();
}

SpanLog::SpanLog(size_t capacity) : ring_(capacity) {}

SpanLog &
SpanLog::global()
{
    // Leaked for the same reason as FlightRecorder::global():
    // executors may record during static teardown.
    static SpanLog *log = new SpanLog;
    return *log;
}

void
SpanLog::record(const TraceEvent &e, uint64_t runId)
{
    ring_.push({uint64_t(e.tsNs), uint64_t(e.durNs),
                reinterpret_cast<uintptr_t>(e.name),
                uint64_t(uint32_t(e.handle)) |
                    (uint64_t(threadLane() & 0xffffff) << 32) |
                    (uint64_t(e.kind) << 56),
                e.traceId, uint64_t(e.predictedCycle), runId});
}

std::vector<TraceEvent>
SpanLog::events(uint64_t after, uint64_t upTo, uint64_t runId) const
{
    std::vector<TraceEvent> out;
    std::vector<uint32_t> lanes; // raw lane ids, first appearance
    ring_.read(after, upTo, [&](uint64_t, const auto &w) {
        if (runId != 0 && w[6] != runId)
            return;
        TraceEvent e;
        e.tsNs = int64_t(w[0]);
        e.durNs = int64_t(w[1]);
        e.name = reinterpret_cast<const char *>(uintptr_t(w[2]));
        e.handle = int32_t(uint32_t(w[3]));
        e.kind = TraceEventKind(uint8_t(w[3] >> 56));
        e.traceId = w[4];
        e.predictedCycle = int64_t(w[5]);
        const uint32_t lane = uint32_t(w[3] >> 32) & 0xffffff;
        const auto it = std::find(lanes.begin(), lanes.end(), lane);
        e.lane = uint16_t(it - lanes.begin());
        if (it == lanes.end())
            lanes.push_back(lane);
        out.push_back(e);
    });
    return out;
}

Trace
SpanLog::collect(uint64_t runId, uint64_t after, uint64_t upTo,
                 uint64_t emitted, int64_t epochNs,
                 std::string label) const
{
    Trace t;
    t.events_ = events(after, upTo, runId);
    sortByTime(t.events_);
    for (TraceEvent &e : t.events_) {
        e.tsNs -= epochNs;
        t.spans_ += e.kind == TraceEventKind::kOpSpan;
        t.lanes_ = std::max<size_t>(t.lanes_, size_t(e.lane) + 1);
    }
    t.dropped_ = emitted > t.events_.size() ? emitted - t.events_.size()
                                            : 0;
    t.epochNs_ = epochNs;
    t.label_ = std::move(label);
    if (t.dropped_ > 0) {
        static Counter &dropped =
            MetricsRegistry::global().counter("trace.dropped_events");
        dropped.inc(t.dropped_);
    }
    return t;
}

std::string
SpanLog::captureJson(int64_t windowMs)
{
    const int64_t ms = std::clamp<int64_t>(windowMs, 1, 2000);
    const int64_t t0 = steadyNowNs();
    arm();
    const uint64_t from = recorded();
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
    disarm();
    const uint64_t to = recorded();
    std::vector<TraceEvent> evs = events(from, to);
    sortByTime(evs);
    // A traced run's span recorded in the window may have started
    // before it; re-base on that start so no timestamp is negative.
    const int64_t base = evs.empty() ? t0 : std::min(t0, evs[0].tsNs);

    std::ostringstream os;
    os << "{\"displayTimeUnit\": \"ms\", \"otherData\": "
          "{\"window_ms\": "
       << ms << ", \"captured\": " << evs.size()
       << ", \"dropped\": " << (to - from) - evs.size()
       << ", \"ring_capacity\": " << capacity()
       << ", \"recorded_total\": " << recorded()
       << "},\n\"traceEvents\": [";
    for (size_t i = 0; i < evs.size(); ++i) {
        os << (i ? ",\n" : "\n");
        writeEvent(os, evs[i], base, evs[i].lane);
    }
    os << "\n]}\n";
    return os.str();
}

size_t
writeCorrelatedTrace(
    std::ostream &os,
    std::span<const std::shared_ptr<const Trace>> traces,
    const std::vector<ServingEvent> &events)
{
    // Everything below is on ONE clock (steady): serving events carry
    // steadyNowMs stamps, traces carry their traversal's absolute
    // epoch. Re-base onto the earliest timestamp so the document
    // starts at 0.
    int64_t base = std::numeric_limits<int64_t>::max();
    for (const auto &t : traces) {
        if (t != nullptr && !t->events().empty())
            base = std::min(base,
                            t->epochNs() + t->events().front().tsNs);
    }
    for (const ServingEvent &e : events)
        base = std::min(
            base, static_cast<int64_t>(e.tsMs * 1e6));
    if (base == std::numeric_limits<int64_t>::max())
        base = 0;

    // First executor span per trace id — the flow arrow's target.
    struct SpanRef
    {
        int64_t tsNs = 0;
        uint32_t tid = 0;
        bool set = false;
    };
    std::map<uint64_t, SpanRef> firstSpan;
    {
        uint32_t tidBase = 0;
        for (const auto &t : traces) {
            if (t == nullptr)
                continue;
            for (const TraceEvent &e : t->events()) {
                if (e.kind != TraceEventKind::kOpSpan ||
                    e.traceId == 0)
                    continue;
                const int64_t abs = t->epochNs() + e.tsNs;
                SpanRef &ref = firstSpan[e.traceId];
                if (!ref.set || abs < ref.tsNs) {
                    ref.tsNs = abs;
                    ref.tid = tidBase + e.lane;
                    ref.set = true;
                }
            }
            tidBase += uint32_t(std::max<size_t>(t->laneCount(), 1));
        }
    }

    // Lifecycle events per trace id, in causal (seq) order.
    std::map<uint64_t, std::vector<const ServingEvent *>> lifecycle;
    for (const ServingEvent &e : events)
        if (e.traceId != 0)
            lifecycle[e.traceId].push_back(&e);
    for (auto &[id, evs] : lifecycle)
        std::sort(evs.begin(), evs.end(),
                  [](const ServingEvent *a, const ServingEvent *b) {
                      return a->seq < b->seq;
                  });

    size_t linked = 0;
    os << "{\"displayTimeUnit\": \"ms\", \"otherData\": "
          "{\"traces\": "
       << traces.size() << ", \"serving_events\": " << events.size()
       << ", \"jobs\": " << lifecycle.size()
       << "},\n\"traceEvents\": [\n"
       << "  {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 0, "
          "\"args\": {\"name\": \"executor\"}},\n"
       << "  {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
          "\"args\": {\"name\": \"serving\"}},\n"
       << "  {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
          "\"tid\": 0, \"args\": {\"name\": \"lifecycle\"}}";

    // Executor lanes: one tid block per trace, lanes keep their ids.
    uint32_t tidBase = 0;
    for (const auto &t : traces) {
        if (t == nullptr)
            continue;
        for (const TraceEvent &e : t->events()) {
            os << ",\n";
            writeEvent(os, e, base - t->epochNs(), tidBase + e.lane);
        }
        tidBase += uint32_t(std::max<size_t>(t->laneCount(), 1));
    }

    // Serving lifecycle lane.
    for (const ServingEvent &e : events) {
        const int64_t abs = static_cast<int64_t>(e.tsMs * 1e6);
        os << ",\n  {\"name\": \"" << servingEventKindName(e.kind)
           << "\", \"cat\": \"serving\", \"ph\": \"i\", \"s\": "
              "\"t\", \"ts\": ";
        appendUs(os, abs - base);
        os << ", \"pid\": 1, \"tid\": 0, \"args\": {\"seq\": "
           << e.seq << ", \"job_id\": " << e.jobId << ", \"tenant\": ";
        appendJsonString(os, e.tenant);
        os << ", \"batch_size\": " << e.batchSize
           << ", \"trace_id\": \"" << hexId(e.traceId) << "\"}}";
    }

    // Flow events: the arrows from each job's lifecycle chain into
    // its first executor span.
    for (const auto &[id, evs] : lifecycle) {
        const std::string hid = hexId(id);
        for (size_t i = 0; i < evs.size(); ++i) {
            const int64_t abs =
                static_cast<int64_t>(evs[i]->tsMs * 1e6);
            os << ",\n  {\"name\": \"job\", \"cat\": \"job\", "
                  "\"ph\": \""
               << (i == 0 ? 's' : 't') << "\", \"id\": \"" << hid
               << "\", \"ts\": ";
            appendUs(os, abs - base);
            os << ", \"pid\": 1, \"tid\": 0}";
        }
        auto it = firstSpan.find(id);
        if (it == firstSpan.end() || !it->second.set)
            continue;
        os << ",\n  {\"name\": \"job\", \"cat\": \"job\", \"ph\": "
              "\"f\", \"bp\": \"e\", \"id\": \""
           << hid << "\", \"ts\": ";
        appendUs(os, it->second.tsNs - base);
        os << ", \"pid\": 0, \"tid\": " << it->second.tid << "}";
        ++linked;
    }

    os << "\n]}\n";
    return linked;
}

std::string
correlatedTraceJson(
    std::span<const std::shared_ptr<const Trace>> traces,
    const std::vector<ServingEvent> &events)
{
    std::ostringstream os;
    writeCorrelatedTrace(os, traces, events);
    return os.str();
}

} // namespace f1::obs
