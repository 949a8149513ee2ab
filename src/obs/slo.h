/**
 * @file
 * Per-tenant SLO tracking: sliding-window deadline attainment and
 * error-budget burn rate over observed job latency versus each
 * tenant's TenantPolicy::deadlineMs.
 *
 * The SoK on FHE accelerators argues that latency accounting — not
 * peak kernel speed — separates practical FHE serving from
 * benchmarks. This tracker turns the serving engine's per-job
 * latencies into the two numbers an operator actually pages on:
 *
 *  - attainment: the fraction of the last `windowSize` jobs that met
 *    their deadline (1.0 = every deadline met);
 *  - burn rate: (1 - attainment) / (1 - targetAttainment) — the
 *    multiple of the error budget being consumed. 1.0 means the
 *    tenant is burning budget exactly at the sustainable rate; 2.0
 *    means the window would exhaust a period's budget in half the
 *    period. This is the standard SRE burn-rate alert signal, and
 *    the AdmissionController can shed on it (AdmissionLimits::
 *    maxBurnRate) so overload sheds BEFORE the backlog explodes.
 *
 * Published registry metrics, per tenant (integer-scaled because
 * registry values are uint64):
 *  - slo.<tenant>.deadline_misses  counter, lifetime misses
 *  - slo.<tenant>.attainment       gauge, basis points (10000 = 100%)
 *  - slo.<tenant>.burn_rate        gauge, milli-units (1000 = 1.0x)
 *
 * recordJob sets both gauges from the tenant's window after each job,
 * and the destructor sets them back to the empty-window values (10000
 * and 0), so a destroyed engine's burn rate cannot shed a later
 * engine's tenant. A gauge holds its last writer's value: keep at
 * most one live tracker per tenant namespace (one serving engine).
 *
 * Concurrency: recordJob takes a per-tracker mutex (it is a per-JOB
 * path — the one-TLS-load-and-branch discipline governs per-op hooks,
 * which this never touches).
 */
#ifndef F1_OBS_SLO_H
#define F1_OBS_SLO_H

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace f1::obs {

struct SloConfig
{
    /** Jobs per tenant in the sliding attainment window. */
    size_t windowSize = 256;

    /** SLO objective: the attainment fraction the burn rate is
     *  normalized against (0.99 = 1% error budget). Must be < 1;
     *  values >= 1 are clamped just below. */
    double targetAttainment = 0.99;
};

class SloTracker
{
  public:
    explicit SloTracker(SloConfig cfg = {});
    ~SloTracker();
    SloTracker(const SloTracker &) = delete;
    SloTracker &operator=(const SloTracker &) = delete;

    /**
     * Records one finished job. `latencyMs` is the tenant-visible
     * turnaround (queue + service); `deadlineMs <= 0` means the
     * tenant has no deadline and the job counts as met. Infinite
     * latency (failed jobs) counts as a miss.
     */
    void recordJob(const std::string &tenant, double latencyMs,
                   double deadlineMs);

    struct TenantSlo
    {
        uint64_t total = 0;  //!< lifetime jobs observed
        uint64_t misses = 0; //!< lifetime deadline misses
        uint64_t windowTotal = 0;
        uint64_t windowMisses = 0;
        double attainment = 1.0; //!< window fraction in [0, 1]
        double burnRate = 0.0;   //!< error-budget multiple
    };

    std::map<std::string, TenantSlo> snapshot() const;

    /**
     * Current window burn rate for one tenant (0.0 if unknown). Takes
     * the tracker mutex; safe to call under the serving engine's lock
     * (the dispatch path does) because the only other m_ holders are
     * recordJob — called OUTSIDE the engine lock — and the snapshot
     * paths.
     */
    double burnRate(const std::string &tenant) const;

    /** {"target_attainment":...,"window_size":...,"tenants":{...}} —
     *  valid JSON (tests/json_lint.h), served as /tenants.json. */
    std::string toJson() const;

    const SloConfig &config() const { return cfg_; }

  private:
    struct Tenant
    {
        std::vector<uint8_t> ring; //!< 1 = missed deadline
        size_t head = 0;
        uint64_t total = 0;
        uint64_t misses = 0;
        uint64_t winTotal = 0;
        uint64_t winMisses = 0;
        Counter *missCounter = nullptr;
        Gauge *attainment = nullptr; //!< basis points
        Gauge *burnRate = nullptr;   //!< milli-units
    };

    double burnRateOf(uint64_t winTotal, uint64_t winMisses) const;
    static double attainmentOf(uint64_t winTotal, uint64_t winMisses);

    SloConfig cfg_;
    mutable std::mutex m_;
    std::map<std::string, Tenant> tenants_;
};

} // namespace f1::obs

#endif // F1_OBS_SLO_H
