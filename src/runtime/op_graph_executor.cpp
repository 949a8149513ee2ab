#include "runtime/op_graph_executor.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <exception>
#include <mutex>
#include <sstream>
#include <type_traits>
#include <utility>

#include "common/error.h"
#include "common/hash.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/time_util.h"
#include "obs/calib.h"
#include "obs/eventlog.h"
#include "obs/trace.h"

namespace f1 {

namespace {

/**
 * Ciphertext operands of an op, written to out[0..1] (-1 = none), and
 * how many the op kind takes. kAddPlain/kMulPlain's b names a
 * plaintext handle, not a ciphertext edge; kInput/kInputPlain are
 * sources.
 */
int
ctOperands(const HeOp &op, int out[2])
{
    out[0] = out[1] = -1;
    switch (op.kind) {
      case HeOpKind::kInput:
      case HeOpKind::kInputPlain:
        return 0;
      case HeOpKind::kAdd:
      case HeOpKind::kSub:
      case HeOpKind::kMul:
        out[0] = op.a;
        out[1] = op.b;
        return 2;
      case HeOpKind::kAddPlain:
      case HeOpKind::kMulPlain:
      case HeOpKind::kRotate:
      case HeOpKind::kConjugate:
      case HeOpKind::kModSwitch:
      case HeOpKind::kOutput:
        out[0] = op.a;
        return 1;
    }
    return 0;
}

bool
producesCiphertext(const HeOp &op)
{
    return op.kind != HeOpKind::kOutput &&
           op.kind != HeOpKind::kInputPlain;
}

bool
isSource(const HeOp &op)
{
    return op.kind == HeOpKind::kInput ||
           op.kind == HeOpKind::kInputPlain;
}

// Static names for trace spans and profile op-kind keys, indexed by
// HeOpKind. The collector's fixed-size op slots must cover the enum.
constexpr const char *kOpKindNames[] = {
    "input",     "input_plain", "add",    "sub",
    "add_plain", "mul_plain",   "mul",    "rotate",
    "conjugate", "mod_switch",  "output",
};
constexpr size_t kOpKindCount =
    sizeof(kOpKindNames) / sizeof(kOpKindNames[0]);
static_assert(size_t(HeOpKind::kOutput) + 1 == kOpKindCount,
              "kOpKindNames is out of sync with HeOpKind");
static_assert(kOpKindCount <= obs::ProfileCollector::kMaxOpKinds,
              "HeOpKind outgrew ProfileCollector's op slots");

const char *
opKindName(HeOpKind kind)
{
    return kOpKindNames[size_t(kind)];
}

/** Registry-resolved executor metrics; resolved once, process-wide. */
struct ExecutorMetrics
{
    obs::Counter &runs;
    obs::Counter &ops;
    obs::Counter &steals;
    obs::Histogram &executeMs;

    static ExecutorMetrics &
    get()
    {
        static ExecutorMetrics m{
            obs::MetricsRegistry::global().counter("executor.runs"),
            obs::MetricsRegistry::global().counter("executor.ops"),
            obs::MetricsRegistry::global().counter("executor.steals"),
            obs::MetricsRegistry::global().histogram(
                "executor.execute_ms"),
        };
        return m;
    }
};

using BgvSlots = std::vector<uint64_t>;
using CkksSlots = std::vector<std::complex<double>>;

/** The slots bound to handle h, or nullptr if none are; a binding of
 *  the other scheme's slot type is rejected. */
template <typename Slots>
const Slots *
binding(const RuntimeInputs &in, int h)
{
    auto it = in.bindings.find(h);
    if (it == in.bindings.end())
        return nullptr;
    const auto *v = std::get_if<Slots>(&it->second);
    constexpr bool kBgv = std::is_same_v<Slots, BgvSlots>;
    F1_REQUIRE(v != nullptr, "input binding for handle "
                                 << h << " holds "
                                 << (kBgv ? "CKKS" : "BGV")
                                 << " slot data, but the executor runs a "
                                 << (kBgv ? "BGV" : "CKKS")
                                 << " program");
    return v;
}

/** Content hash of slot data (length-prefixed; CKKS hashes the bits
 *  of each real and imaginary part). */
uint64_t
slotsHash(const BgvSlots &slots)
{
    return hashU64Span(slots);
}

uint64_t
slotsHash(const CkksSlots &slots)
{
    uint64_t h = hashMix(slots.size());
    for (const std::complex<double> &s : slots) {
        h = hashCombine(h, std::bit_cast<uint64_t>(s.real()));
        h = hashCombine(h, std::bit_cast<uint64_t>(s.imag()));
    }
    return h;
}

/**
 * EncodingKey::paramsFp for a scheme over ctx with BGV plaintext
 * modulus t (0 for CKKS): encodings are residues mod the context's
 * primes, and BGV's also depend on t. The scheme tag keeps the two key
 * spaces disjoint.
 */
uint64_t
encodingParamsFp(const FheContext &ctx, uint64_t t)
{
    uint64_t fp = hashCombine(hashMix(t != 0 ? 0xe4c0de : 0xc4c5de),
                              ctx.n());
    for (size_t i = 0; i < ctx.maxLevel(); ++i)
        fp = hashCombine(fp, ctx.ciphertextPrime(i));
    return t != 0 ? hashCombine(fp, t) : fp;
}

/**
 * Strict total order over ops for scheduling decisions. Without hints
 * every op carries (0, 0), so the order degenerates to ascending
 * handle — the historical deterministic order. With hints, ready ops
 * sort critical-path-first (cycle-scheduler issue cycle), then by the
 * memory scheduler's liveness rank, then by handle.
 */
struct OpPriority
{
    const ScheduleHints *hints = nullptr;

    bool
    before(int a, int b) const
    {
        if (hints != nullptr) {
            const size_t ua = static_cast<size_t>(a);
            const size_t ub = static_cast<size_t>(b);
            if (hints->startCycle[ua] != hints->startCycle[ub])
                return hints->startCycle[ua] < hints->startCycle[ub];
            if (hints->releaseRank[ua] != hints->releaseRank[ub])
                return hints->releaseRank[ua] <
                       hints->releaseRank[ub];
        }
        return a < b;
    }
};

} // namespace

/**
 * One batch member's private data: its ciphertexts, plaintexts,
 * outputs, and per-member counters. Every member of a batch walks the
 * same graph, so the structural state (dependency counts, liveness)
 * lives once in RunState; everything a single job owns lives here.
 */
struct OpGraphExecutor::Member
{
    std::vector<std::optional<Ciphertext>> cts;
    /** Hoisted handles' c1 decompositions, heap-owned: their Galois
     *  consumers may run on any worker, and a scratch checkout must be
     *  released on the thread that took it. Released with the
     *  ciphertext. */
    std::vector<std::vector<uint32_t>> digits;
    /** Plaintext inputs' slots, encoded at each consuming op. */
    std::vector<InputBinding> plainSlots;
    std::vector<std::optional<Ciphertext>> outs;
    uint64_t encodingCacheHits = 0;
    uint64_t encodingCacheMisses = 0;

    /** Correlation id from RuntimeInputs (0 = untraced) and the
     *  member's position in the batch — only member 0 feeds the
     *  schedule-calibration fit (later members run back-to-back, so
     *  their start times measure fusion, not the schedule). */
    uint64_t traceId = 0;
    uint32_t memberIndex = 0;
};

/**
 * Per-traversal state, shared by every member of the batch. The
 * scheduler walks the graph ONCE: the resident-ciphertext high-water
 * mark is per member (members are structurally identical), and
 * "execute op h" / "release handle d" fan out across members.
 */
struct OpGraphExecutor::RunState
{
    std::vector<Member> members;
    size_t resident = 0;     //!< live ciphertexts PER MEMBER
    size_t peakResident = 0; //!< per-member high-water mark
    size_t peakInFlight = 0; //!< most ops running at once
    size_t steals = 0;
    EncodingCache *encCache = nullptr;

    // Telemetry for this traversal: a null collector and run id 0
    // when telemetry is off.
    obs::ProfileCollector *collector = nullptr;
    const ScheduleHints *hints = nullptr;

    /** The process-wide span log (obs/trace.h). A traced run records
     *  every event under runId; an untraced run records its spans only
     *  while a /tracez window is armed. */
    obs::SpanLog *log = nullptr;
    uint64_t runId = 0;
    std::atomic<uint64_t> emitted{0}; //!< events recorded under runId

    /** Steady-clock ns at which a traced traversal began — the origin
     *  of its Trace and of the schedule-calibration measured starts. */
    int64_t executeEpochNs = 0;

    void
    record(const obs::TraceEvent &e)
    {
        log->record(e, runId);
        if (runId != 0)
            emitted.fetch_add(1, std::memory_order_relaxed);
    }

    /** A steal or release instant; traced runs only. */
    void
    instant(obs::TraceEventKind kind, int h)
    {
        if (runId == 0)
            return;
        obs::TraceEvent e;
        e.tsNs = obs::steadyNowNs();
        e.name = kind == obs::TraceEventKind::kSteal ? "steal" : "release";
        e.handle = h;
        e.kind = kind;
        record(e);
    }
};

OpGraphExecutor::OpGraphExecutor(const Program &prog, BgvScheme *bgv)
    : prog_(prog), fp_(prog.fingerprint()), bgv_(bgv), rlwe_(bgv),
      slotOrder_(&bgv->encoder().slotOrder()),
      encodingFp_(encodingParamsFp(*bgv->context(), bgv->plainModulus()))
{
    buildGraph();
}

OpGraphExecutor::OpGraphExecutor(const Program &prog, CkksScheme *ckks)
    : prog_(prog), fp_(prog.fingerprint()), ckks_(ckks), rlwe_(ckks),
      slotOrder_(&ckks->encoder().slotOrder()),
      encodingFp_(encodingParamsFp(*ckks->context(), 0))
{
    buildGraph();
}

void
OpGraphExecutor::buildGraph()
{
    const auto &ops = prog_.ops();
    const size_t n = ops.size();

    // A program that does not fit the context is rejected here, with
    // the handle named, instead of failing deep inside prepare or an
    // op's arithmetic. Raw programs skip the builder's level checks,
    // so every op is checked.
    const FheContext &ctx = *rlwe_->context();
    F1_REQUIRE(prog_.n() == ctx.n(),
               "program '" << prog_.name() << "' has ring degree "
                           << prog_.n() << " but the scheme's is "
                           << ctx.n());
    for (size_t i = 0; i < n; ++i)
        F1_REQUIRE(ops[i].level >= 1 && ops[i].level <= ctx.maxLevel(),
                   "op " << i << " (" << opKindName(ops[i].kind)
                         << ") is at level " << ops[i].level
                         << " but the scheme's modulus chain has "
                            "levels 1.."
                         << ctx.maxLevel());

    dependents_.assign(n, {});
    indegree_.assign(n, 0);
    consumers_.assign(n, 0);
    std::vector<int> galoisConsumers(n, 0);
    workOps_ = 0;
    // Every operand an op kind takes must name another op of the
    // program that yields what the op reads: a ciphertext, or for a
    // plain op's b an input_plain. Raw programs are checked here;
    // otherwise a missing operand leaves its op unready forever and
    // a negative handle indexes out of bounds.
    const auto inRange = [&](int h) {
        return h >= 0 && static_cast<size_t>(h) < n;
    };
    for (size_t i = 0; i < n; ++i) {
        const HeOp &op = ops[i];
        if (!isSource(op))
            ++workOps_;
        int deps[2];
        const int arity = ctOperands(op, deps);
        for (int k = 0; k < arity; ++k) {
            const int d = deps[k];
            F1_REQUIRE(inRange(d) && d != static_cast<int>(i),
                       "op " << i << " (" << opKindName(op.kind)
                             << ") references invalid handle " << d);
            F1_REQUIRE(producesCiphertext(ops[d]),
                       "op " << i << " (" << opKindName(op.kind)
                             << ") reads handle " << d << " ("
                             << opKindName(ops[d].kind)
                             << "), which holds no ciphertext");
            dependents_[d].push_back(static_cast<int>(i));
            ++indegree_[i];
            ++consumers_[d];
        }
        if (op.kind == HeOpKind::kAddPlain ||
            op.kind == HeOpKind::kMulPlain)
            F1_REQUIRE(inRange(op.b) &&
                           ops[op.b].kind == HeOpKind::kInputPlain,
                       "op " << i << " (" << opKindName(op.kind)
                             << ") takes plaintext handle " << op.b
                             << ", which is not an input_plain op");
        if (op.kind == HeOpKind::kRotate ||
            op.kind == HeOpKind::kConjugate)
            ++galoisConsumers[op.a];
    }

    // Hoisting: a ciphertext that two or more Galois ops consume is
    // decomposed once per member, and they share the decomposition.
    // GHS is excluded: its ModUp rounds per coefficient, and nothing
    // shows that σ_g commutes with that rounding bit for bit.
    hoisted_.assign(n, false);
    if (rlwe_->variant() == KeySwitchVariant::kDigitLxL)
        for (size_t i = 0; i < n; ++i)
            hoisted_[i] = galoisConsumers[i] >= 2 &&
                          producesCiphertext(ops[i]);

    // Kahn's algorithm, for cycle rejection only: the scheduler walks
    // dependencies, not program order, so pushRaw programs with
    // forward references run as they are, and a cyclic graph is
    // rejected here with the offending handles named, instead of the
    // executor spinning on a never-ready op set.
    std::vector<int> indeg = indegree_;
    std::vector<int> ready;
    for (size_t i = 0; i < n; ++i)
        if (indeg[i] == 0)
            ready.push_back(static_cast<int>(i));
    size_t visited = 0;
    while (!ready.empty()) {
        const int h = ready.back();
        ready.pop_back();
        ++visited;
        for (int dep : dependents_[h])
            if (--indeg[dep] == 0)
                ready.push_back(dep);
    }
    if (visited != n) {
        std::ostringstream stuck;
        int listed = 0;
        for (size_t i = 0; i < n; ++i) {
            if (indeg[i] == 0)
                continue;
            if (listed++ > 0)
                stuck << ", ";
            if (listed > 8) {
                stuck << "...";
                break;
            }
            stuck << i;
        }
        F1_REQUIRE(false, "op DAG has a cycle; handles {"
                              << stuck.str()
                              << "} never become ready");
    }
}

void
OpGraphExecutor::prepare(const RuntimeInputs &in, RunState &st,
                         Member &m, bool first) const
{
    const auto &ops = prog_.ops();
    const uint32_t n = prog_.n();

    // Hint warming, in program order, once per batch (hints are keyed
    // by the program shape, not by member data). Hint bits are
    // order-independent (hintSeed), so this is a latency optimization,
    // not a correctness requirement: it keeps key generation out of
    // the timed region, matching the old executor's "client-side work
    // excluded" stance.
    if (first) {
        for (const HeOp &op : ops) {
            if (op.kind == HeOpKind::kMul)
                rlwe_->relinHintShared(op.level);
            else if (op.kind == HeOpKind::kRotate)
                rlwe_->galoisHintShared(
                    slotOrder_->rotationGalois(op.rotateBy), op.level);
            else if (op.kind == HeOpKind::kConjugate)
                rlwe_->galoisHintShared(slotOrder_->conjugationGalois(),
                                        op.level);
        }
    }

    // Inputs: encryption runs serially in program order with a
    // per-member Rng, so each member's prepared state is a pure
    // function of (program, inputs, seed) — independent of concurrent
    // jobs AND of the other batch members. Unbound sources draw their
    // slots from the same Rng, in the same order.
    Rng rng(in.seed);
    const auto slotsFor = [&](int h) -> InputBinding {
        if (bgv_) {
            const auto *bound = binding<BgvSlots>(in, h);
            return bound ? *bound
                         : rng.uniformVector(n, bgv_->plainModulus());
        }
        if (const auto *bound = binding<CkksSlots>(in, h))
            return *bound;
        CkksSlots slots(n / 2);
        for (auto &s : slots)
            s = {rng.uniformReal(-1, 1), 0.0};
        return slots;
    };
    for (size_t i = 0; i < ops.size(); ++i) {
        const HeOp &op = ops[i];
        const int h = static_cast<int>(i);
        if (op.kind == HeOpKind::kInput) {
            const InputBinding slots = slotsFor(h);
            m.cts[h] =
                bgv_ ? bgv_->encryptSlots(std::get<BgvSlots>(slots),
                                          op.level, rng)
                     : ckks_->encrypt(std::get<CkksSlots>(slots),
                                      op.level, rng);
            // Here the decomposition's limb loops still use the pool.
            if (hoisted_[i])
                m.digits[h] = rlwe_->hoistDecomposition(*m.cts[h]);
            if (first)
                ++st.resident; // structural count, same for everyone
        } else if (op.kind == HeOpKind::kInputPlain) {
            // Encoded (and cached) at the consuming op, where the
            // level and the CKKS scale are known.
            m.plainSlots[h] = slotsFor(h);
        }
    }
    st.peakResident = st.resident;
}

/**
 * Encodes plaintext slots at (scale, level) — BGV ignores the scale —
 * through the shared cache when the policy has one: repeated model
 * weights across jobs and batch members encode once. Determinism:
 * encoding is a pure function of (scheme parameters, slots, scale,
 * level), all in the key, so cached and fresh encodings are
 * bit-identical.
 */
std::shared_ptr<const RnsPoly>
OpGraphExecutor::encodePlain(const InputBinding &slots, double scale,
                             size_t level, RunState &st,
                             Member &m) const
{
    const auto encode = [&] {
        if (bgv_) {
            const BgvEncoder &enc = bgv_->encoder();
            return enc.toPoly(
                enc.encodeSlots(std::get<BgvSlots>(slots)), level);
        }
        return ckks_->encoder().encode(std::get<CkksSlots>(slots), scale,
                                       level);
    };
    if (!st.encCache)
        return std::make_shared<const RnsPoly>(encode());
    EncodingKey key;
    key.paramsFp = encodingFp_;
    key.dataHash =
        std::visit([](const auto &v) { return slotsHash(v); }, slots);
    key.shapeFp = hashCombine(
        hashCombine(hashMix(0x5ca1e), std::bit_cast<uint64_t>(scale)),
        level);
    if (auto hit = st.encCache->get(key)) {
        ++m.encodingCacheHits;
        return hit;
    }
    ++m.encodingCacheMisses;
    // A concurrent job may race the same miss; put() keeps the first
    // value, and both values are identical (encoding is pure).
    return st.encCache->put(key, encode());
}

void
OpGraphExecutor::executeOp(int h, RunState &st, Member &m) const
{
    const HeOp &op = prog_.ops()[h];
    auto ct = [&](int idx) -> const Ciphertext & {
        F1_CHECK(m.cts[idx].has_value(),
                 "operand " << idx << " not resident for op " << h);
        return *m.cts[idx];
    };
    switch (op.kind) {
      case HeOpKind::kInput:
      case HeOpKind::kInputPlain:
        break; // materialized by prepare()
      case HeOpKind::kAdd:
        m.cts[h] = rlwe_->add(ct(op.a), ct(op.b));
        break;
      case HeOpKind::kSub:
        m.cts[h] = rlwe_->sub(ct(op.a), ct(op.b));
        break;
      case HeOpKind::kAddPlain: {
        // Added plaintexts are encoded at the ciphertext's scale.
        const Ciphertext &a = ct(op.a);
        auto pt = encodePlain(m.plainSlots[op.b], a.scale, a.level(), st,
                              m);
        m.cts[h] = bgv_ ? bgv_->addPlainEncoded(a, *pt)
                        : ckks_->addPlainEncoded(a, *pt);
        break;
      }
      case HeOpKind::kMulPlain: {
        const Ciphertext &a = ct(op.a);
        auto pt = encodePlain(m.plainSlots[op.b],
                              bgv_ ? 0.0 : ckks_->defaultScale(),
                              a.level(), st, m);
        m.cts[h] = bgv_ ? bgv_->mulPlainEncoded(a, *pt)
                        : ckks_->mulPlainEncoded(a, *pt);
        break;
      }
      case HeOpKind::kMul:
        m.cts[h] = bgv_ ? bgv_->mul(ct(op.a), ct(op.b))
                        : ckks_->mul(ct(op.a), ct(op.b));
        break;
      case HeOpKind::kRotate:
        // Empty digits (an unhoisted operand): the op decomposes.
        m.cts[h] =
            bgv_ ? bgv_->rotate(ct(op.a), op.rotateBy, m.digits[op.a])
                 : ckks_->rotate(ct(op.a), op.rotateBy, m.digits[op.a]);
        break;
      case HeOpKind::kConjugate:
        m.cts[h] = bgv_ ? bgv_->conjugate(ct(op.a), m.digits[op.a])
                        : ckks_->conjugate(ct(op.a), m.digits[op.a]);
        break;
      case HeOpKind::kModSwitch:
        m.cts[h] = bgv_ ? bgv_->modSwitch(ct(op.a))
                        : ckks_->rescale(ct(op.a));
        break;
      case HeOpKind::kOutput:
        m.outs[h] = ct(op.a);
        break;
    }
    // The producer decomposes a hoisted result before it retires, so
    // no consumer waits; the time lands in this op's span.
    if (hoisted_[size_t(h)])
        m.digits[h] = rlwe_->hoistDecomposition(*m.cts[h]);
}

/**
 * executeOp plus this run's telemetry. The telemetry-off path is one
 * null check, one relaxed atomic load (the /tracez arm check), and a
 * tail call — no clock reads, which is what keeps disabled runs
 * inside the <1% overhead budget. Otherwise one clock pair times the
 * op, and the one span it yields feeds the profile, the calibration
 * and the span log. Under batching that is one span per (op, member).
 */
void
OpGraphExecutor::runOp(int h, RunState &st, Member &m) const
{
    const bool logged = st.runId != 0 || st.log->armed();
    if (st.collector == nullptr && !logged) {
        executeOp(h, st, m);
        return;
    }
    const HeOp &op = prog_.ops()[h];
    obs::TraceEvent span;
    span.predictedCycle =
        st.hints != nullptr ? int64_t(st.hints->startCycle[size_t(h)])
                            : -1;
    span.traceId = m.traceId;
    span.name = opKindName(op.kind);
    span.handle = h;
    span.tsNs = obs::steadyNowNs();
    executeOp(h, st, m);
    span.durNs = obs::steadyNowNs() - span.tsNs;
    if (st.collector != nullptr)
        st.collector->addOp(size_t(op.kind), uint64_t(span.durNs));
    // Calibration pairs the compiler's predicted start cycle with the
    // measured start relative to the traversal's own start; only the
    // lead member of a traced run records (see Member::memberIndex).
    if (st.runId != 0 && span.predictedCycle >= 0 &&
        m.memberIndex == 0)
        obs::ScheduleCalibration::global().record(
            size_t(op.kind), span.name, uint64_t(span.predictedCycle),
            span.tsNs - st.executeEpochNs);
    if (logged)
        st.record(span);
}

/**
 * The walk: one ready heap ordered by OpPriority under one mutex. A
 * worker pops the most urgent ready op, runs it for every member
 * without the lock, then retakes the lock to retire it: dependents
 * whose last operand it was join the heap, and operands it consumed
 * for the last time are released. No round barrier exists, so an
 * expensive op never stalls independent work that becomes ready while
 * it runs. With two or more workers they form a ParkGroup around the
 * mutex: a worker that finds the heap empty parks through it, runs
 * iterations of the limb loops the running ops publish, and sleeps
 * only when there are none, so an op that runs alone still spreads
 * over every worker.
 *
 * Synchronization: the heap, the dependency and use counts and the
 * RunState counters are guarded by the group's mutex. An op is popped
 * only after its producers retired under that mutex, so it observes
 * their ciphertext writes, and a ciphertext is released only by the
 * retirement that drops its last use, after every reader ran.
 */
void
OpGraphExecutor::runGraph(RunState &st,
                          const ExecutionPolicy &policy) const
{
    const auto &ops = prog_.ops();
    const size_t n = ops.size();
    const OpPriority prio{policy.scheduleHints};
    // Min-heap on OpPriority: heapCmp is "worse-than".
    const auto heapCmp = [&](int a, int b) {
        return prio.before(b, a);
    };

    // Sized by parallelWidth(): inside an InlineParallelScope or a
    // group member (a pool body, another walk's worker) that is 1, so
    // one worker drains the heap in priority order.
    unsigned workers = parallelWidth();
    if (policy.threadBudget != 0)
        workers = std::min(workers, policy.threadBudget);
    const size_t W = std::max(workers, 1u);

    ParkGroup group;
    std::vector<int> heap; //!< ready ops, min-heap by priority
    std::vector<int> indeg = indegree_;
    std::vector<int> uses = consumers_;
    // The worker whose retirement readied each op; -1 if the inputs
    // did. Running an op another worker readied counts as a steal.
    std::vector<int> readiedBy(n, -1);
    size_t remaining = workOps_;
    size_t running = 0; //!< ops in flight
    std::exception_ptr error;

    // Seed: propagate input completions.
    for (size_t i = 0; i < n; ++i) {
        if (!isSource(ops[i]))
            continue;
        for (int dep : dependents_[i])
            if (--indeg[dep] == 0)
                heap.push_back(dep);
    }
    std::make_heap(heap.begin(), heap.end(), heapCmp);

    // Waits for a ready op, helping running ops' limb loops
    // meanwhile, and pops the most urgent one; -1 once every op has
    // retired or a worker has thrown.
    auto claim = [&](size_t wid) {
        std::unique_lock<std::mutex> lock(group.mutex());
        group.park(lock, [&] {
            return error || !heap.empty() || remaining == 0;
        });
        if (error || heap.empty())
            return -1;
        std::pop_heap(heap.begin(), heap.end(), heapCmp);
        const int h = heap.back();
        heap.pop_back();
        if (readiedBy[h] >= 0 && readiedBy[h] != int(wid)) {
            ++st.steals;
            st.instant(obs::TraceEventKind::kSteal, h);
        }
        st.peakInFlight = std::max(st.peakInFlight, ++running);
        return h;
    };

    // Under the lock. The ciphertexts and their decompositions move to
    // `freed`, which the worker clears after dropping the lock: freeing
    // them under it slowed the lola benchmark's p50 by 15%.
    struct Freed
    {
        std::vector<std::optional<Ciphertext>> cts;
        std::vector<std::vector<uint32_t>> digits;
    };
    auto release = [&](int h, Freed &freed) {
        for (Member &m : st.members) {
            freed.cts.push_back(std::exchange(m.cts[h], std::nullopt));
            freed.digits.push_back(std::exchange(m.digits[h], {}));
        }
        --st.resident;
        st.instant(obs::TraceEventKind::kRelease, h);
    };

    // Under the lock.
    auto retire = [&](size_t wid, int h, Freed &freed) {
        --running;
        if (producesCiphertext(ops[h])) {
            st.peakResident = std::max(st.peakResident, ++st.resident);
            // Dead code: a result nothing consumes is dropped now.
            if (uses[h] == 0)
                release(h, freed);
        }
        // The retiring worker claims one readied op itself; each other
        // one wakes a sleeper.
        bool claimed = false;
        for (int dep : dependents_[h]) {
            if (--indeg[dep] != 0)
                continue;
            readiedBy[dep] = int(wid);
            heap.push_back(dep);
            std::push_heap(heap.begin(), heap.end(), heapCmp);
            if (std::exchange(claimed, true))
                group.wakeOne();
        }
        // Release operands this op consumed for the last time.
        int deps[2];
        ctOperands(ops[h], deps);
        for (int d : deps)
            if (d >= 0 && --uses[d] == 0)
                release(d, freed);
        if (--remaining == 0)
            group.wakeAll();
    };

    // The batching primitive: the work unit stays one op across ALL
    // members, run back to back, so the hint-cache entries, twiddle
    // tables and scratch buffers it touches stay hot across the batch,
    // and the claim and retire bookkeeping is paid once per batch
    // instead of once per job. Member outputs are disjoint, so no
    // member-level synchronization is needed.
    auto worker = [&](size_t wid) {
        // A one-worker walk joins no group: its limb loops go where
        // the caller's would (the pool, or inline).
        std::optional<ParkGroup::Join> member;
        if (W > 1)
            member.emplace(group);
        Freed freed;
        try {
            for (int h = claim(wid); h >= 0; h = claim(wid)) {
                for (Member &m : st.members)
                    runOp(h, st, m);
                {
                    std::lock_guard<std::mutex> lock(group.mutex());
                    retire(wid, h, freed);
                }
                freed.cts.clear();
                freed.digits.clear();
            }
        } catch (...) {
            // Keep the first error and wake every sleeper: the other
            // workers stop at their next claim, and the caller
            // rethrows.
            std::lock_guard<std::mutex> lock(group.mutex());
            if (!error)
                error = std::current_exception();
            group.wakeAll();
        }
    };

    // One pool dispatch for the whole run: each claimed index is a
    // long-lived worker loop. With W = 1 the single worker runs on the
    // calling thread and drains the whole graph in strict priority
    // order, so the serial walk is exact and deterministic.
    parallelFor(0, W, worker);
    if (error)
        std::rethrow_exception(error);
}

ExecutionResult
OpGraphExecutor::execute(const RuntimeInputs &in,
                         const ExecutionPolicy &policy) const
{
    auto results =
        executeBatch(std::span<const RuntimeInputs>(&in, 1), policy);
    return std::move(results.front());
}

std::vector<ExecutionResult>
OpGraphExecutor::executeBatch(std::span<const RuntimeInputs> inputs,
                              const ExecutionPolicy &policy) const
{
    const auto &ops = prog_.ops();
    const size_t n = ops.size();
    const size_t B = inputs.size();
    F1_REQUIRE(B > 0, "executeBatch needs at least one member");
    if (policy.scheduleHints != nullptr) {
        F1_REQUIRE(policy.scheduleHints->size() == n,
                   "schedule hints describe "
                       << policy.scheduleHints->size()
                       << " ops but the program has " << n);
    }

    RunState st;
    st.members.resize(B);
    for (size_t b = 0; b < B; ++b) {
        Member &m = st.members[b];
        m.cts.resize(n);
        m.digits.resize(n);
        m.outs.resize(n);
        m.plainSlots.resize(n);
        m.traceId = inputs[b].traceId;
        m.memberIndex = uint32_t(b);
    }
    st.encCache = policy.encodingCache;
    st.hints = policy.scheduleHints;
    st.log = &obs::SpanLog::global();
    if (policy.telemetry.trace)
        st.runId = obs::allocateTraceId();

    // The profile collector lives on the stack for exactly this run.
    // The ProfileScope around each phase makes loops published from it
    // carry the collector to their helpers (see ParkGroup), so nested
    // limb-parallel work is attributed to this run — and a run WITHOUT
    // a collector shadows any outer one instead of polluting it. A
    // batch collects ONE profile/trace for the whole traversal and
    // shares it across members' results.
    std::unique_ptr<obs::ProfileCollector> collector;
    if (policy.telemetry.profile)
        collector = std::make_unique<obs::ProfileCollector>();
    st.collector = collector.get();

    // Prepare members serially, each from its own Rng(seed): member
    // i's prepared state is byte-for-byte what a solo run would build.
    // Flight-recorder hooks: one dispatch event per batch traversal
    // (jobId 0 — the executor doesn't know serving job ids; the
    // engine's per-job admit/complete events bracket this one by
    // fingerprint) and one batch-level fail event when the traversal
    // throws, so a post-mortem shows WHERE in the pipeline a job died.
    obs::FlightRecorder &rec = obs::FlightRecorder::global();
    rec.record(obs::ServingEventKind::kDispatch, 0,
               policy.telemetry.label, fp_, uint32_t(B),
               inputs[0].traceId);

    const double p0 = steadyNowMs();
    double prepareMs = 0;
    double wallMs = 0;
    uint64_t logFrom = 0; //!< span log position before the traversal
    try {
        {
            obs::ProfileScope profScope(st.collector);
            for (size_t b = 0; b < B; ++b)
                prepare(inputs[b], st, st.members[b], b == 0);
        }
        prepareMs = steadyNowMs() - p0;

        const double t0 = steadyNowMs();
        {
            obs::ProfileScope profScope(st.collector);
            if (st.runId != 0) {
                st.executeEpochNs = obs::steadyNowNs();
                logFrom = st.log->recorded();
            }
            runGraph(st, policy);
        }
        wallMs = steadyNowMs() - t0;
    } catch (...) {
        rec.record(obs::ServingEventKind::kFail, 0,
                   policy.telemetry.label, fp_, uint32_t(B),
                   inputs[0].traceId);
        throw;
    }

    std::shared_ptr<const obs::ExecutionProfile> profile;
    if (collector) {
        auto prof = std::make_shared<obs::ExecutionProfile>();
        prof->label = policy.telemetry.label;
        for (size_t k = 0; k < kOpKindCount; ++k) {
            const uint64_t c = collector->opCount[k].load(
                std::memory_order_relaxed);
            if (c == 0)
                continue;
            auto &slice = prof->opKinds[kOpKindNames[k]];
            slice.count = c;
            slice.totalMs = double(collector->opNanos[k].load(
                                std::memory_order_relaxed)) /
                            1e6;
        }
        const auto counter = [&](obs::ProfileCounter c) {
            return collector->counters[size_t(c)].load(
                std::memory_order_relaxed);
        };
        prof->nttForward = counter(obs::ProfileCounter::kNttForward);
        prof->nttInverse = counter(obs::ProfileCounter::kNttInverse);
        prof->keySwitchApplies =
            counter(obs::ProfileCounter::kKeySwitchApply);
        prof->basisExtends =
            counter(obs::ProfileCounter::kBasisExtend);
        prof->cacheHits = counter(obs::ProfileCounter::kCacheHit);
        prof->cacheMisses = counter(obs::ProfileCounter::kCacheMiss);
        for (const Member &m : st.members) {
            prof->encodingCacheHits += m.encodingCacheHits;
            prof->encodingCacheMisses += m.encodingCacheMisses;
        }
        prof->scratchPeakWords = collector->scratchPeakWords.load(
            std::memory_order_relaxed);
        prof->prepareMs = prepareMs;
        prof->executeMs = wallMs;
        for (const Member &m : st.members)
            prof->traceIds.push_back(m.traceId);
        profile = std::move(prof);
    }
    // Every worker has joined, so all of this run's events are in the
    // log between logFrom and its current position.
    std::shared_ptr<const obs::Trace> trace;
    if (st.runId != 0)
        trace = std::make_shared<const obs::Trace>(st.log->collect(
            st.runId, logFrom, st.log->recorded(),
            st.emitted.load(std::memory_order_relaxed),
            st.executeEpochNs, policy.telemetry.label));

    std::vector<ExecutionResult> results(B);
    for (size_t b = 0; b < B; ++b) {
        ExecutionResult &r = results[b];
        Member &m = st.members[b];
        r.wallMs = wallMs;
        r.opsExecuted = workOps_;
        r.batchSize = B;
        r.peakResidentCiphertexts = st.peakResident;
        r.maxWavefrontWidth = st.peakInFlight;
        r.steals = st.steals;
        r.encodingCacheHits = m.encodingCacheHits;
        r.encodingCacheMisses = m.encodingCacheMisses;
        r.profile = profile;
        r.trace = trace;
        for (size_t i = 0; i < n; ++i) {
            if (ops[i].kind == HeOpKind::kOutput)
                r.outputs[static_cast<int>(i)] =
                    std::move(*m.outs[i]);
        }
    }

    // Registry fold: cheap per-RUN (not per-op) aggregate metrics,
    // always on — this is the "one snapshot" the bespoke stats structs
    // used to scatter. A batch counts one run per member and the full
    // fused op count (op x member), so executor.ops stays "homomorphic
    // ops actually executed" whether jobs batched or not.
    ExecutorMetrics &em = ExecutorMetrics::get();
    em.runs.inc(B);
    em.ops.inc(workOps_ * B);
    em.steals.inc(st.steals);
    em.executeMs.observe(wallMs);

    return results;
}

} // namespace f1
