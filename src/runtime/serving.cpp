#include "runtime/serving.h"

#include <limits>
#include <optional>

#include "common/error.h"
#include "common/parallel.h"
#include "common/time_util.h"
#include "obs/trace.h"

namespace f1 {

namespace {

/** Registry-resolved serving metrics; resolved once, process-wide. */
struct ServingMetrics
{
    obs::Counter &submitted;
    obs::Counter &completed;
    obs::Counter &failed;
    obs::Counter &shed;
    obs::Counter &dispatchPenalties;
    obs::Gauge &queueDepth;     //!< summed over live engines
    obs::Gauge &queueDepthPeak; //!< the last writer's own peak
    obs::Histogram &queueMs;
    obs::Histogram &serviceMs;
    obs::Histogram &batchSize;

    static ServingMetrics &
    get()
    {
        static constexpr double kBatchBounds[] = {1,  2,  4,  8,
                                                  16, 32, 64, 128};
        // Latency histograms carry a p99 on top of the default
        // p50/p95 set: tail latency is what SLO deadlines price.
        static constexpr double kLatencyQuantiles[] = {0.50, 0.95,
                                                       0.99};
        auto &reg = obs::MetricsRegistry::global();
        static ServingMetrics m{
            reg.counter("serving.jobs_submitted"),
            reg.counter("serving.jobs_completed"),
            reg.counter("serving.jobs_failed"),
            reg.counter("serving.shed_jobs"),
            reg.counter("serving.dispatch_penalties"),
            reg.gauge("serving.queue_depth"),
            reg.gauge("serving.queue_depth_peak"),
            reg.histogram("serving.queue_ms", {}, kLatencyQuantiles),
            reg.histogram("serving.service_ms", {},
                          kLatencyQuantiles),
            reg.histogram("serving.batch_size", kBatchBounds),
        };
        return m;
    }
};

/** The value of `name` in one of a snapshot's scalar maps; 0 if
 *  absent. */
uint64_t
valueOrZero(const std::map<std::string, uint64_t> &scalars,
            const std::string &name)
{
    auto it = scalars.find(name);
    return it == scalars.end() ? 0 : it->second;
}

} // namespace

AdmissionController::Decision
AdmissionController::decide(const obs::MetricsSnapshot &snap,
                            const std::string &tenantName,
                            const TenantPolicy &tenant,
                            size_t tenantQueueDepth) const
{
    Decision d;
    if (tenant.maxQueueDepth != 0 &&
        tenantQueueDepth >= tenant.maxQueueDepth) {
        d.admit = false;
        std::ostringstream os;
        os << "tenant queue depth " << tenantQueueDepth
           << " at its cap " << tenant.maxQueueDepth;
        d.reason = os.str();
        return d;
    }
    if (limits_.maxBacklog != 0) {
        const uint64_t sub =
            valueOrZero(snap.counters, "serving.jobs_submitted");
        const uint64_t done =
            valueOrZero(snap.counters, "serving.jobs_completed");
        const uint64_t fail =
            valueOrZero(snap.counters, "serving.jobs_failed");
        const uint64_t backlog =
            sub > done + fail ? sub - done - fail : 0;
        if (backlog >= limits_.maxBacklog) {
            d.admit = false;
            std::ostringstream os;
            os << "fleet backlog " << backlog << " at its cap "
               << limits_.maxBacklog
               << " (serving.jobs_submitted - completed - failed)";
            d.reason = os.str();
            return d;
        }
    }
    if (limits_.maxQueueP95Ms > 0) {
        auto it = snap.histograms.find("serving.queue_ms");
        if (it != snap.histograms.end() && it->second.count > 0) {
            const double p95 = it->second.quantile(0.95);
            if (p95 > limits_.maxQueueP95Ms) {
                d.admit = false;
                std::ostringstream os;
                os << "serving.queue_ms p95 " << p95
                   << "ms over the limit " << limits_.maxQueueP95Ms
                   << "ms";
                d.reason = os.str();
                return d;
            }
        }
    }
    if (limits_.maxBurnRate > 0 && !tenantName.empty()) {
        // The SloTracker publishes burn rate in milli-units (1000 =
        // burning the error budget exactly at the sustainable rate).
        // Windowed, so unlike the cumulative p95 check it re-admits
        // by itself once the tenant's recent jobs meet deadlines.
        const uint64_t milli = valueOrZero(
            snap.gauges, "slo." + tenantName + ".burn_rate");
        const double rate = double(milli) / 1000.0;
        if (rate >= limits_.maxBurnRate) {
            d.admit = false;
            std::ostringstream os;
            os << "slo." << tenantName << ".burn_rate " << rate
               << "x at/over the limit " << limits_.maxBurnRate
               << "x (deadline misses burning the error budget)";
            d.reason = os.str();
            return d;
        }
    }
    return d;
}

ServingEngine::ServingEngine(BgvScheme *bgv, ServingConfig cfg)
    : bgv_(bgv), cfg_(std::move(cfg)), admission_(cfg_.admission),
      encCache_(cfg_.encodingCacheCapacity, "serving_encoding"),
      slo_(cfg_.slo)
{
    start();
}

ServingEngine::ServingEngine(CkksScheme *ckks, ServingConfig cfg)
    : ckks_(ckks), cfg_(std::move(cfg)), admission_(cfg_.admission),
      encCache_(cfg_.encodingCacheCapacity, "serving_encoding"),
      slo_(cfg_.slo)
{
    start();
}

void
ServingEngine::start()
{
    if (cfg_.maxBatch == 0)
        cfg_.maxBatch = 1;
    ServingMetrics::get().queueDepthPeak.set(0);
    const unsigned n =
        cfg_.workers == 0 ? configuredThreadCount() : cfg_.workers;
    workers_.reserve(n);
    for (unsigned i = 0; i < n; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ServingEngine::~ServingEngine()
{
    {
        std::lock_guard<std::mutex> lock(m_);
        accepting_ = false;
    }
    drain(); // every accepted promise is fulfilled before teardown
    {
        std::lock_guard<std::mutex> lock(m_);
        stop_ = true;
    }
    cvWork_.notify_all();
    for (auto &w : workers_)
        w.join();
    ServingMetrics::get().queueDepthPeak.set(0);
    // Teardown-with-failures: leave the post-mortem on disk even if
    // nobody inspected the per-failure dumps while serving.
    if (!cfg_.eventDumpPath.empty() && anyFailed_)
        obs::FlightRecorder::global().dumpToFile(cfg_.eventDumpPath);
}

const TenantPolicy &
ServingEngine::policyFor(const std::string &tenant) const
{
    auto it = cfg_.tenantPolicies.find(tenant);
    return it == cfg_.tenantPolicies.end() ? cfg_.defaultTenantPolicy
                                           : it->second;
}

std::future<JobResult>
ServingEngine::submit(JobRequest req)
{
    F1_REQUIRE(req.program != nullptr,
               "JobRequest::program is null; submit() stores program "
               "and hints as bare pointers, so pass a live Program "
               "that outlives the job's future");
    const TenantPolicy &tp = policyFor(req.tenant);
    const uint64_t fp = req.program->fingerprint();
    // One correlation id per job, allocated before the first
    // lifecycle event so even a SHED request is followable.
    const uint64_t traceId = obs::allocateTraceId();
    obs::FlightRecorder &rec = obs::FlightRecorder::global();
    rec.record(obs::ServingEventKind::kSubmit, 0, req.tenant, fp, 0,
               traceId);

    // Snapshot the registry BEFORE taking m_, so the copy stays out
    // of the engine's critical section. Skipped entirely when no
    // admission limit is configured — the default submit path stays
    // cheap.
    const bool needsAdmission =
        tp.maxQueueDepth != 0 || admission_.limits().maxBacklog != 0 ||
        admission_.limits().maxQueueP95Ms > 0 ||
        admission_.limits().maxBurnRate > 0;
    std::optional<obs::MetricsSnapshot> snap;
    if (needsAdmission)
        snap = obs::MetricsRegistry::global().snapshot();

    std::future<JobResult> fut;
    uint64_t jobId = 0;
    {
        std::lock_guard<std::mutex> lock(m_);
        F1_REQUIRE(accepting_, "engine is shutting down");

        if (needsAdmission) {
            auto qit = queues_.find(req.tenant);
            const size_t depth =
                qit == queues_.end() ? 0 : qit->second.size();
            const AdmissionController::Decision d =
                admission_.decide(*snap, req.tenant, tp, depth);
            if (!d.admit) {
                ServingMetrics::get().shed.inc();
                rec.record(obs::ServingEventKind::kShed, 0,
                           req.tenant, fp, 0, traceId);
                throw AdmissionRejected("job shed for tenant \"" +
                                        req.tenant + "\": " + d.reason);
            }
        }

        Job job;
        job.id = jobId = nextJobId_++;
        job.req = std::move(req);
        job.submitMs = steadyNowMs();
        job.programFp = fp;
        job.priority = tp.priority;
        job.deadlineAtMs = job.submitMs + tp.deadlineMs;
        job.traceId = traceId;
        // The inputs travel into executeBatch by move (runBatch), so
        // stamping them here threads the id into spans + profile
        // without widening the executor API.
        job.req.inputs.traceId = traceId;
        fut = job.promise.get_future();

        auto [it, inserted] = queues_.try_emplace(job.req.tenant);
        if (inserted)
            tenantOrder_.push_back(job.req.tenant);
        const std::string &tenant = it->first;
        it->second.push_back(std::move(job));
        ++pending_;
        ServingMetrics &sm = ServingMetrics::get();
        sm.submitted.inc();
        sm.queueDepth.add();
        if (pending_ > peakPending_) {
            peakPending_ = pending_;
            sm.queueDepthPeak.set(peakPending_);
        }
        rec.record(obs::ServingEventKind::kAdmit, jobId, tenant, fp,
                   0, traceId);
    }
    cvWork_.notify_one();
    return fut;
}

bool
ServingEngine::popBatch(std::vector<Job> &out)
{
    // Called with m_ held. Stage 2 of the pipeline: pick the dispatch
    // head, then coalesce. A tenant's class is fixed and its queue is
    // FIFO, so each queue's front is that tenant's most urgent job —
    // scanning fronts finds the global (priority, EDF) head.
    const size_t n = tenantOrder_.size();
    size_t leadIdx = n;

    // Burn-rate penalty (the scheduling tier BELOW admission shedding):
    // a tenant at/over half the configured shed threshold
    // (AdmissionLimits::maxBurnRate) is already deep into its error
    // budget, so its jobs lose to EVERY unpenalized tenant's regardless
    // of class priority — the budget-burner yields the datapath before
    // admission has to start rejecting it outright. Among
    // equally-penalized (or equally-clean) fronts the normal
    // priority/EDF/id order holds. Disabled when maxBurnRate is 0 (no
    // SLO shedding configured means no SLO scheduling either).
    // slo_.burnRate takes the tracker mutex under m_; safe — see
    // obs/slo.h.
    const double maxBurn = cfg_.admission.maxBurnRate;
    const Job *best = nullptr;
    bool bestPenalized = false;
    bool sawPenalized = false;
    for (size_t idx = 0; idx < n; ++idx) {
        auto &q = queues_[tenantOrder_[idx]];
        if (q.empty())
            continue;
        const Job &c = q.front();
        const bool penalized =
            maxBurn > 0 &&
            slo_.burnRate(tenantOrder_[idx]) >= 0.5 * maxBurn;
        sawPenalized |= penalized;
        bool wins;
        if (best == nullptr) {
            wins = true;
        } else if (penalized != bestPenalized) {
            wins = !penalized;
        } else {
            wins = c.priority > best->priority ||
                   (c.priority == best->priority &&
                    (c.deadlineAtMs < best->deadlineAtMs ||
                     (c.deadlineAtMs == best->deadlineAtMs &&
                      c.id < best->id)));
        }
        if (wins) {
            best = &c;
            bestPenalized = penalized;
            leadIdx = idx;
        }
    }
    if (sawPenalized && best != nullptr && !bestPenalized)
        ServingMetrics::get().dispatchPenalties.inc();
    if (leadIdx == n)
        return false;

    auto &leadQ = queues_[tenantOrder_[leadIdx]];
    out.push_back(std::move(leadQ.front()));
    leadQ.pop_front();

    // Coalesce: pull queued jobs whose program fingerprint matches
    // the lead's — any tenant, any queue position — up to maxBatch.
    // Pulling mid-queue jobs forward never reorders RESULTS (each job
    // resolves its own future) and never changes bits (executeBatch's
    // determinism contract); it trades strict dispatch order for one
    // shared traversal, which is the batching win.
    const uint64_t fp = out.front().programFp;
    for (size_t k = 0; k < n && out.size() < cfg_.maxBatch; ++k) {
        auto &q = queues_[tenantOrder_[(leadIdx + k) % n]];
        for (auto it = q.begin();
             it != q.end() && out.size() < cfg_.maxBatch;) {
            if (it->programFp == fp) {
                // Recording is lock-free, so it is safe under m_.
                obs::FlightRecorder::global().record(
                    obs::ServingEventKind::kCoalesce, it->id,
                    it->req.tenant, fp,
                    uint32_t(out.size() + 1), it->traceId);
                out.push_back(std::move(*it));
                it = q.erase(it);
            } else {
                ++it;
            }
        }
    }
    return true;
}

void
ServingEngine::runBatch(std::vector<Job> &batch)
{
    const double startMs = steadyNowMs();
    ServingMetrics &sm = ServingMetrics::get();
    sm.batchSize.observe(double(batch.size()));

    bool failed = false;
    std::exception_ptr error;
    std::vector<JobResult> results;
    try {
        const Job &lead = batch.front();
        OpGraphExecutor exec =
            bgv_ ? OpGraphExecutor(*lead.req.program, bgv_)
                 : OpGraphExecutor(*lead.req.program, ckks_);
        ExecutionPolicy pol = cfg_.policy;
        pol.encodingCache = &encCache_;
        if (lead.req.hints != nullptr)
            pol.scheduleHints = lead.req.hints;
        // Tag the batch's telemetry artifacts with the tenant when
        // the whole batch belongs to one, unless the configured
        // policy already carries an explicit label.
        if (pol.telemetry.enabled() && pol.telemetry.label.empty()) {
            bool oneTenant = true;
            for (const Job &j : batch)
                oneTenant &= j.req.tenant == lead.req.tenant;
            pol.telemetry.label =
                oneTenant ? lead.req.tenant : "batch";
        }

        std::vector<RuntimeInputs> ins;
        ins.reserve(batch.size());
        for (Job &j : batch)
            ins.push_back(std::move(j.req.inputs));
        std::vector<ExecutionResult> execs =
            exec.executeBatch(ins, pol);

        const double endMs = steadyNowMs();
        results.resize(batch.size());
        for (size_t i = 0; i < batch.size(); ++i) {
            results[i].jobId = batch[i].id;
            results[i].tenant = batch[i].req.tenant;
            results[i].exec = std::move(execs[i]);
            results[i].queueMs = startMs - batch[i].submitMs;
            results[i].serviceMs = endMs - startMs;
            results[i].traceId = batch[i].traceId;
        }
    } catch (...) {
        failed = true;
        error = std::current_exception();
        // Promises are fulfilled below, AFTER the flight-recorder /
        // SLO / registry bookkeeping: a waiter that observes the
        // exception must also observe the failure's post-mortem.
    }

    obs::FlightRecorder &rec = obs::FlightRecorder::global();
    if (failed) {
        sm.failed.inc(batch.size());
        for (const Job &j : batch) {
            rec.record(obs::ServingEventKind::kFail, j.id,
                       j.req.tenant, j.programFp,
                       uint32_t(batch.size()), j.traceId);
            // A failed job attained nothing: an infinite latency
            // misses any finite deadline in the SLO window.
            slo_.recordJob(j.req.tenant,
                           std::numeric_limits<double>::infinity(),
                           policyFor(j.req.tenant).deadlineMs);
        }
        if (!cfg_.eventDumpPath.empty())
            rec.dumpToFile(cfg_.eventDumpPath);
    } else {
        sm.completed.inc(batch.size());
        for (const JobResult &r : results) {
            sm.queueMs.observe(r.queueMs);
            sm.serviceMs.observe(r.serviceMs);
            rec.record(obs::ServingEventKind::kComplete, r.jobId,
                       r.tenant, batch.front().programFp,
                       uint32_t(batch.size()), r.traceId);
            slo_.recordJob(r.tenant, r.queueMs + r.serviceMs,
                           policyFor(r.tenant).deadlineMs);
        }
    }

    // Ordering invariant: every promise is fulfilled BEFORE inFlight_
    // drops to zero. drain() returns when pending_ == inFlight_ == 0,
    // and its contract is that every accepted future is ready by
    // then; fulfilling after the decrement would let drain() (and
    // the destructor behind it) race ahead of waiters' futures.
    if (failed) {
        for (Job &j : batch)
            j.promise.set_exception(error);
    } else {
        for (size_t i = 0; i < batch.size(); ++i)
            batch[i].promise.set_value(std::move(results[i]));
    }
    {
        std::lock_guard<std::mutex> lock(m_);
        anyFailed_ |= failed;
        inFlight_ -= batch.size();
        if (pending_ == 0 && inFlight_ == 0)
            cvDrained_.notify_all();
    }
}

void
ServingEngine::workerLoop()
{
    for (;;) {
        std::vector<Job> batch;
        {
            std::unique_lock<std::mutex> lock(m_);
            cvWork_.wait(lock, [&] { return stop_ || pending_ > 0; });
            if (stop_ && pending_ == 0)
                return;
            if (!popBatch(batch))
                continue;
            pending_ -= batch.size();
            ServingMetrics::get().queueDepth.sub(batch.size());
            inFlight_ += batch.size();
        }

        InlineParallelScope inlineScope;
        runBatch(batch);
    }
}

void
ServingEngine::drain()
{
    std::unique_lock<std::mutex> lock(m_);
    cvDrained_.wait(lock,
                    [&] { return pending_ == 0 && inFlight_ == 0; });
}

} // namespace f1
