/**
 * @file
 * The per-execution telemetry switchboard carried by
 * ExecutionPolicy::telemetry.
 *
 * Both collectors default OFF. Disabled cost is the contract the
 * whole obs/ subsystem is designed around: with profile and trace
 * both false, an execution performs no clock reads, no allocations,
 * and no atomic traffic beyond the pre-existing stats counters — the
 * hot-path hooks reduce to thread-local null checks plus one relaxed
 * atomic load per op for the /tracez arm check (SpanLog::armed in
 * obs/trace.h; < 1% on the scheduler-latency bench; tests assert no
 * profile/trace artifacts are produced).
 */
#ifndef F1_OBS_TELEMETRY_H
#define F1_OBS_TELEMETRY_H

#include <string>

#include "obs/profile.h"
#include "obs/trace.h"

namespace f1::obs {

struct TelemetryOptions
{
    /** Collect an ExecutionProfile (op-kind breakdown, NTT/key-switch
     *  /basis-extend counts, scratch high-water, cache traffic). */
    bool profile = false;

    /** Record per-op spans and steal/release instants into the span
     *  log and collect them as a Perfetto-loadable trace
     *  (ExecutionResult::trace). A steal is an op run by a worker
     *  other than the one whose retirement readied it. */
    bool trace = false;

    /** Stamped into trace metadata and the profile; the serving
     *  engine fills it with the job's tenant when empty. */
    std::string label;

    bool enabled() const { return profile || trace; }
};

} // namespace f1::obs

#endif // F1_OBS_TELEMETRY_H
