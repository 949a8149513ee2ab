/**
 * @file
 * Per-op tracing: the process-wide span log, per-job traces, and the
 * correlated Perfetto writer, all emitting Chrome trace-event JSON.
 *
 * Event model, mirroring F1's schedule introspection (§4.4, Fig. 10):
 *  - one complete span ("ph":"X") per executed HeOp, carrying the op
 *    kind, DSL handle, lane (worker thread), the compiler's predicted
 *    startCycle from ScheduleHints, and the measured start — the
 *    predicted-vs-actual pair every scheduling change tunes against;
 *  - instant events ("ph":"i") for steals (an op run by a worker
 *    other than the one whose retirement readied it) and ciphertext
 *    releases, the two dynamic-scheduler decisions the static
 *    schedule cannot see.
 *
 * Every event goes to ONE stream, the SpanLog: a process-wide
 * SeqlockRing (obs/ring.h). A traced execution (TelemetryOptions::
 * trace) tags its events with a run id and, once its workers have
 * joined, collects them back into its Trace. /tracez?ms=N arms the log
 * so untraced executions record their spans too, and renders the
 * window. writeCorrelatedTrace merges finished Traces with the flight
 * recorder's serving lifecycle. All three render through one Chrome
 * trace-event writer.
 *
 * The log is shared by every traced run and armed window, so a run
 * with more events in flight than the log holds loses its oldest
 * ones. The loss is counted, never silent: Trace::droppedEvents, the
 * trace.dropped_events counter, and /tracez's "dropped".
 *
 * Correlation: ServingEngine::submit allocates one 64-bit trace id
 * per job (allocateTraceId), and the same id stamps the job's flight
 * recorder events, its op spans, its ExecutionProfile::traceIds entry
 * and JobResult::traceId.
 */
#ifndef F1_OBS_TRACE_H
#define F1_OBS_TRACE_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "obs/eventlog.h"
#include "obs/ring.h"

namespace f1::obs {

/** Process-unique, never-zero 64-bit id (0 = "untraced"). Ids are a
 *  mixed counter, so they are unique AND well-distributed — usable
 *  as Perfetto flow-event ids without collision checks. Serving job
 *  trace ids and traced-run ids both come from here. */
uint64_t allocateTraceId();

/** Absolute steady-clock nanoseconds — the one time base of span
 *  timestamps, Trace::epochNs and the flight recorder's tsMs. */
inline int64_t
steadyNowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

enum class TraceEventKind : uint8_t {
    kOpSpan,  //!< one HeOp execution (complete event)
    kSteal,   //!< op run by a worker other than the one whose
              //!< retirement readied it (instant)
    kRelease, //!< ciphertext freed after last consumer (instant)
};

struct TraceEvent
{
    /** Start: absolute steady-clock ns when recorded into the log,
     *  ns since Trace::epochNs() inside a Trace. */
    int64_t tsNs = 0;
    int64_t durNs = 0; //!< spans only
    int64_t predictedCycle = -1; //!< compiler hint; -1 = unhinted
    uint64_t traceId = 0; //!< serving job correlation id; 0 = untraced
    const char *name = nullptr;  //!< static string (op kind name)
    int32_t handle = -1;         //!< DSL handle
    uint16_t lane = 0;           //!< dense per read; set by SpanLog
    TraceEventKind kind = TraceEventKind::kOpSpan;
};

/** A finished, time-sorted trace of one traced run. */
class Trace
{
  public:
    const std::vector<TraceEvent> &events() const { return events_; }
    size_t spanCount() const { return spans_; }
    uint64_t droppedEvents() const { return dropped_; }
    size_t laneCount() const { return lanes_; }
    const std::string &label() const { return label_; }

    /** Absolute steady-clock ns of the traversal start; event tsNs
     *  values are relative to it, so traces of different runs (and
     *  the flight recorder's tsMs stamps) merge onto one timeline. */
    int64_t epochNs() const { return epochNs_; }

    /** Chrome trace-event JSON ({"traceEvents": [...], ...}); load in
     *  ui.perfetto.dev or chrome://tracing. */
    void writeJson(std::ostream &os) const;
    std::string json() const;

  private:
    friend class SpanLog;
    std::vector<TraceEvent> events_;
    size_t spans_ = 0;
    uint64_t dropped_ = 0;
    size_t lanes_ = 0;
    int64_t epochNs_ = 0;
    std::string label_;
};

class SpanLog
{
  public:
    /** Slots of the process-wide log. */
    static constexpr size_t kCapacity = 8192;

    explicit SpanLog(size_t capacity = kCapacity);

    /** The log every executor records into (intentionally leaked,
     *  like FlightRecorder::global). */
    static SpanLog &global();

    /** One relaxed load — an untraced run's per-op gate. */
    bool
    armed() const
    {
        return armed_.load(std::memory_order_relaxed) != 0;
    }

    /** arm/disarm nest: concurrent /tracez windows share the log. */
    void arm() { armed_.fetch_add(1, std::memory_order_relaxed); }
    void disarm() { armed_.fetch_sub(1, std::memory_order_relaxed); }

    /** Appends `e` (absolute tsNs; `name` a static string) on the
     *  calling thread's lane, tagged with `runId` (0 = not part of a
     *  traced run). Lock-free. */
    void record(const TraceEvent &e, uint64_t runId);

    /** Events ever recorded: the newest sequence number. */
    uint64_t recorded() const { return ring_.recorded(); }
    size_t capacity() const { return ring_.capacity(); }

    /** Committed events with sequence numbers in (after, upTo], in
     *  sequence order, of run `runId` only unless it is 0. Lanes are
     *  renumbered densely in order of first appearance. */
    std::vector<TraceEvent> events(uint64_t after, uint64_t upTo,
                                   uint64_t runId = 0) const;

    /**
     * The Trace of run `runId`, which recorded `emitted` events with
     * sequence numbers in (after, upTo]: its events sorted by time and
     * re-based onto `epochNs`. droppedEvents() is emitted minus found,
     * and is added to the trace.dropped_events counter.
     */
    Trace collect(uint64_t runId, uint64_t after, uint64_t upTo,
                  uint64_t emitted, int64_t epochNs,
                  std::string label) const;

    /**
     * The /tracez?ms=N entry point: arms the log, sleeps for the
     * (clamped, 1..2000ms) window, disarms, and renders the events
     * recorded in the window as Chrome trace JSON, re-based to the
     * window start (or to an earlier span start), with the window's
     * losses as "dropped". Blocks the calling thread for the window —
     * the exporter's serial server serves nothing else meanwhile,
     * which a live-debugging client accepts by asking.
     */
    std::string captureJson(int64_t windowMs);

  private:
    // Payload: w[0] tsNs  w[1] durNs  w[2] name (static address)
    //   w[3] handle | lane<<32 | kind<<56  w[4] traceId
    //   w[5] predictedCycle  w[6] runId
    SeqlockRing<7> ring_;
    std::atomic<int> armed_{0};
};

/**
 * Merges finished traces and the flight recorder's serving lifecycle
 * into one correlated Chrome trace-event document:
 *
 *  - pid 0 "executor": every trace's op spans and sched instants, one
 *    tid block per trace (lanes keep their ids), timestamps re-based
 *    from each trace's absolute epoch onto a common origin;
 *  - pid 1 "serving": one instant per ServingEvent (submit/admit/...)
 *    carrying job id, tenant, batch size, and trace id;
 *  - flow events named "job" (id = the trace id, hex): "s" at a job's
 *    first lifecycle event, "t" at each later one, and a terminating
 *    "f" (bp:"e") bound to the job's FIRST executor span — the arrows
 *    Perfetto draws from the serving lane into the op that ran it.
 *
 * Traces and events both stamp the steady clock, so the merge needs
 * no cross-clock translation. Events or spans with traceId 0 render
 * but get no flow. Returns the number of flow-linked jobs.
 */
size_t writeCorrelatedTrace(
    std::ostream &os,
    std::span<const std::shared_ptr<const Trace>> traces,
    const std::vector<ServingEvent> &events);

/** writeCorrelatedTrace into a string (tests, small dumps). */
std::string correlatedTraceJson(
    std::span<const std::shared_ptr<const Trace>> traces,
    const std::vector<ServingEvent> &events);

} // namespace f1::obs

#endif // F1_OBS_TRACE_H
