/**
 * @file
 * Serving-runtime tests: the LRU cache, the DAG executor (bit-identity
 * against its serial walk, threadBudget = 1, across pool sizes, under
 * InlineParallelScope, and with compiler schedule hints; program order
 * under InlineParallelScope; liveness-based release; cycle rejection;
 * an op throwing mid-walk on a multi-worker pool), batched execution
 * (executeBatch bit-identity against solo runs for BGV and CKKS,
 * shared encoding cache accounting and its modulus-chain key for both
 * schemes, with decryptions checked against plaintext arithmetic),
 * hoisted rotations (outputs and NTT counts against op-by-op scheme
 * calls, GHS left unhoisted), helped limb loops (a narrow chain on the
 * pool against the serial walk and op-by-op calls, words and profile
 * counts), up-front rejection of programs that do not fit the
 * context, and the multi-tenant serving pipeline (admission control
 * driven by the metrics registry, coalesced batches matching isolated
 * execution across worker counts, registry counters and queue-depth
 * gauges, shutdown under load).
 */
#include <gtest/gtest.h>

#include <atomic>
#include <complex>
#include <set>
#include <thread>
#include <type_traits>

#include "common/lru_cache.h"
#include "common/parallel.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "runtime/op_graph_executor.h"
#include "runtime/serving.h"

namespace f1 {
namespace {

/** Current value of a registry counter or gauge (0 if absent). */
uint64_t
registryValue(const std::string &name)
{
    const auto snap = obs::MetricsRegistry::global().snapshot();
    for (const auto *scalars : {&snap.counters, &snap.gauges}) {
        auto it = scalars->find(name);
        if (it != scalars->end())
            return it->second;
    }
    return 0;
}

//
// LruCache
//

TEST(LruCacheTest, PutGetAndEvictionOrder)
{
    const uint64_t evictions0 =
        registryValue("cache.lru_test_order.evictions");
    LruCache<int, int> cache(2, "lru_test_order");
    cache.put(1, 10);
    cache.put(2, 20);
    ASSERT_NE(cache.get(1), nullptr); // 1 is now most recent
    cache.put(3, 30);                 // evicts 2
    EXPECT_EQ(cache.get(2), nullptr);
    ASSERT_NE(cache.get(1), nullptr);
    EXPECT_EQ(*cache.get(1), 10);
    ASSERT_NE(cache.get(3), nullptr);
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(registryValue("cache.lru_test_order.evictions") -
                  evictions0,
              1u);
}

TEST(LruCacheTest, GetOrCreateComputesOnce)
{
    const uint64_t hits0 = registryValue("cache.lru_test_create.hits");
    const uint64_t misses0 =
        registryValue("cache.lru_test_create.misses");
    LruCache<int, int> cache(0, "lru_test_create");
    int calls = 0;
    auto make = [&] {
        ++calls;
        return 42;
    };
    EXPECT_EQ(*cache.getOrCreate(7, make), 42);
    EXPECT_EQ(*cache.getOrCreate(7, make), 42);
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(registryValue("cache.lru_test_create.hits") - hits0, 1u);
    EXPECT_EQ(registryValue("cache.lru_test_create.misses") - misses0,
              1u);
}

TEST(LruCacheTest, PinnedValueSurvivesEviction)
{
    LruCache<int, std::vector<int>> cache(1);
    auto pinned = cache.put(1, std::vector<int>{1, 2, 3});
    cache.put(2, std::vector<int>{4}); // evicts key 1
    EXPECT_EQ(cache.get(1), nullptr);
    ASSERT_EQ(pinned->size(), 3u); // still alive through our pin
    EXPECT_EQ((*pinned)[2], 3);
}

TEST(LruCacheTest, SetCapacityEvictsDown)
{
    LruCache<int, int> cache;
    for (int i = 0; i < 8; ++i)
        cache.put(i, i);
    cache.setCapacity(3);
    EXPECT_EQ(cache.size(), 3u);
    // The three most recently inserted survive.
    EXPECT_NE(cache.get(7), nullptr);
    EXPECT_NE(cache.get(6), nullptr);
    EXPECT_NE(cache.get(5), nullptr);
    EXPECT_EQ(cache.get(4), nullptr);
}

TEST(InlineParallelScopeTest, ForcesInlineExecution)
{
    setGlobalThreadCount(4);
    std::set<std::thread::id> ids;
    std::mutex m;
    {
        InlineParallelScope guard;
        parallelFor(0, 64, [&](size_t) {
            std::lock_guard<std::mutex> lock(m);
            ids.insert(std::this_thread::get_id());
        });
    }
    EXPECT_EQ(ids.size(), 1u);
    EXPECT_TRUE(ids.count(std::this_thread::get_id()));
    setGlobalThreadCount(0);
}

//
// Executor fixtures
//

FheParams
smallParams()
{
    FheParams p;
    p.n = 256;
    p.maxLevel = 8;
    p.primeBits = 28;
    p.plainModulus = 65537;
    return p;
}

/** Two inputs, one plain, parallel branches, one dead op. */
Program
diamondProgram()
{
    Program p(256, 8, "diamond");
    int x = p.input();
    int y = p.input();
    int w = p.inputPlain();
    int a = p.mul(x, y);
    int b = p.rotate(x, 1);
    int c = p.mulPlain(y, w);
    int d = p.add(a, c);
    int e = p.sub(d, b);
    int f = p.modSwitch(e);
    int g = p.conjugate(f);
    p.mul(x, x); // dead: never consumed, must be released not leaked
    p.output(g);
    p.output(b);
    return p;
}

/** Serial accumulation chain: x added into an accumulator 12 times. */
Program
chainProgram()
{
    Program p(256, 8, "chain");
    int x = p.input();
    int acc = x;
    for (int i = 0; i < 12; ++i)
        acc = p.add(acc, x);
    p.output(acc);
    return p;
}

std::vector<uint32_t>
ctBits(const Ciphertext &ct)
{
    std::vector<uint32_t> out;
    for (const auto &poly : ct.polys)
        out.insert(out.end(), poly.raw().begin(), poly.raw().end());
    return out;
}

void
expectIdenticalOutputs(const ExecutionResult &a,
                       const ExecutionResult &b)
{
    ASSERT_EQ(a.outputs.size(), b.outputs.size());
    for (const auto &[h, ct] : a.outputs) {
        auto it = b.outputs.find(h);
        ASSERT_NE(it, b.outputs.end()) << "missing output " << h;
        EXPECT_EQ(ctBits(ct), ctBits(it->second))
            << "output " << h << " diverged";
        EXPECT_EQ(ct.noiseBits, it->second.noiseBits);
        EXPECT_EQ(ct.scale, it->second.scale);
        EXPECT_EQ(ct.ptCorrection, it->second.ptCorrection);
    }
}

TEST(OpGraphExecutorTest, BitIdenticalAcrossThreadCounts)
{
    FheContext ctx(smallParams());
    BgvScheme bgv(&ctx);
    Program p = diamondProgram();
    OpGraphExecutor exec(p, &bgv);
    RuntimeInputs in;
    in.seed = 17;

    setGlobalThreadCount(1);
    auto serial = exec.execute(in);
    for (unsigned threads : {2u, 4u}) {
        setGlobalThreadCount(threads);
        auto threaded = exec.execute(in);
        expectIdenticalOutputs(serial, threaded);
    }
    setGlobalThreadCount(0);
}

TEST(OpGraphExecutorTest, RepeatedRunsAreIdentical)
{
    FheContext ctx(smallParams());
    BgvScheme bgv(&ctx);
    Program p = diamondProgram();
    OpGraphExecutor exec(p, &bgv);
    RuntimeInputs in;
    in.seed = 19;
    auto first = exec.execute(in);
    auto second = exec.execute(in);
    expectIdenticalOutputs(first, second);
}

TEST(OpGraphExecutorTest, LivenessReleasesDeadCiphertexts)
{
    FheContext ctx(smallParams());
    BgvScheme bgv(&ctx);
    Program p = chainProgram();
    OpGraphExecutor exec(p, &bgv);

    RuntimeInputs in;
    in.bind(0, std::vector<uint64_t>(256, 1));
    auto res = exec.execute(in);

    // Chain: input + current accumulator + freshly produced op. The
    // pre-liveness executor held all 13 intermediates to the end.
    EXPECT_LE(res.peakResidentCiphertexts, 4u);
    EXPECT_GE(res.peakResidentCiphertexts, 2u);

    auto slots = bgv.decryptSlots(res.outputs.begin()->second);
    EXPECT_EQ(slots[0], 13u); // 1 + 12 additions of 1
}

TEST(OpGraphExecutorTest, HintCacheHitsOnRepeatedPrograms)
{
    FheContext ctx(smallParams());
    BgvScheme bgv(&ctx);
    Program p = diamondProgram();
    OpGraphExecutor exec(p, &bgv);
    exec.execute();
    const uint64_t coldHits = registryValue("cache.bgv_hints.hits");
    const uint64_t coldMisses = registryValue("cache.bgv_hints.misses");
    exec.execute();
    EXPECT_GT(registryValue("cache.bgv_hints.hits"), coldHits);
    // Nothing regenerated.
    EXPECT_EQ(registryValue("cache.bgv_hints.misses"), coldMisses);
}

TEST(OpGraphExecutorTest, CappedHintCacheStaysCorrect)
{
    FheContext ctx(smallParams());
    BgvScheme reference(&ctx);
    BgvScheme capped(&ctx);
    capped.setHintCacheCapacity(1); // every key-switch evicts
    Program p = diamondProgram();

    RuntimeInputs in;
    in.seed = 23;
    // Only the capped cache can evict: the reference one is unbounded.
    const uint64_t evictions0 = registryValue("cache.bgv_hints.evictions");
    auto a = OpGraphExecutor(p, &reference).execute(in);
    auto b = OpGraphExecutor(p, &capped).execute(in);
    expectIdenticalOutputs(a, b);
    EXPECT_GT(registryValue("cache.bgv_hints.evictions"), evictions0);
}

//
// ExecutionPolicy / work-stealing scheduler
//

/** The serial walk: one op at a time in priority order. */
ExecutionPolicy
serialPolicy()
{
    ExecutionPolicy pol;
    pol.threadBudget = 1;
    return pol;
}

ExecutionPolicy
hintedPolicy(const ScheduleHints *hints)
{
    ExecutionPolicy pol;
    pol.scheduleHints = hints;
    return pol;
}

/** Work stealing with and without hints, over pool sizes 1, 2 and 8
 *  and under InlineParallelScope, against the serial walk. */
void
expectWorkStealingMatchesSerial(const OpGraphExecutor &exec,
                                const RuntimeInputs &in,
                                const ScheduleHints &hints)
{
    const auto serial = exec.execute(in, serialPolicy());
    for (unsigned threads : {1u, 2u, 8u}) {
        setGlobalThreadCount(threads);
        expectIdenticalOutputs(serial, exec.execute(in));
        expectIdenticalOutputs(serial,
                               exec.execute(in, hintedPolicy(&hints)));
        InlineParallelScope inlineScope;
        expectIdenticalOutputs(serial, exec.execute(in));
        expectIdenticalOutputs(serial,
                               exec.execute(in, hintedPolicy(&hints)));
    }
    setGlobalThreadCount(0);
}

TEST(OpGraphExecutorTest, WorkStealingMatchesSerialBgv)
{
    FheContext ctx(smallParams());
    BgvScheme bgv(&ctx);
    Program p = diamondProgram();
    OpGraphExecutor exec(p, &bgv);
    const ScheduleHints hints = compileProgram(p, F1Config{}).hints;
    ASSERT_EQ(hints.size(), p.ops().size());

    RuntimeInputs in;
    in.seed = 29;
    expectWorkStealingMatchesSerial(exec, in, hints);
}

TEST(OpGraphExecutorTest, WorkStealingMatchesSerialCkks)
{
    FheContext ctx(smallParams());
    CkksScheme ckks(&ctx);
    Program p(256, 8, "ckks-ws");
    int x = p.input();
    int y = p.input();
    int a = p.mul(x, y);
    int r = p.modSwitch(a);
    int b = p.rotate(r, 1);
    p.output(p.add(b, r));
    p.output(p.conjugate(b));

    OpGraphExecutor exec(p, &ckks);
    const ScheduleHints hints = compileProgram(p, F1Config{}).hints;
    RuntimeInputs in;
    in.seed = 31;
    expectWorkStealingMatchesSerial(exec, in, hints);
}

/** `chains` independent add chains, interleaved in program order so
 *  the ready set is `chains` wide at every step. */
Program
wideProgram(int chains, int steps)
{
    Program p(256, 8, "wide");
    std::vector<int> acc(chains);
    for (int c = 0; c < chains; ++c)
        acc[c] = p.input();
    for (int s = 0; s < steps; ++s)
        for (int c = 0; c < chains; ++c)
            acc[c] = p.add(acc[c], acc[c]);
    for (int c = 0; c < chains; ++c)
        p.output(acc[c]);
    return p;
}

TEST(OpGraphExecutorTest, InlineScopeRunsInProgramOrder)
{
    FheContext ctx(smallParams());
    BgvScheme bgv(&ctx);
    Program p = wideProgram(6, 3);
    OpGraphExecutor exec(p, &bgv);
    ExecutionPolicy pol;
    pol.telemetry.trace = true;

    // A wide pool, but batches run inline, as on a serving worker: one
    // thread must walk the graph in priority (here program) order, not
    // deal the ready set over one deque per pool thread and drain them
    // one deque at a time.
    setGlobalThreadCount(4);
    ExecutionResult res;
    {
        InlineParallelScope inlineScope;
        res = exec.execute({}, pol);
    }
    setGlobalThreadCount(0);

    EXPECT_EQ(res.steals, 0u);
    EXPECT_EQ(res.maxWavefrontWidth, 1u);
    ASSERT_NE(res.trace, nullptr);
    std::vector<int> order;
    for (const obs::TraceEvent &ev : res.trace->events())
        if (ev.kind == obs::TraceEventKind::kOpSpan)
            order.push_back(ev.handle);
    std::vector<int> program;
    for (size_t h = 0; h < p.ops().size(); ++h)
        if (p.ops()[h].kind != HeOpKind::kInput)
            program.push_back(int(h));
    EXPECT_EQ(order, program);
}

TEST(OpGraphExecutorTest, HintedPriorityIsDeterministic)
{
    FheContext ctx(smallParams());
    BgvScheme bgv(&ctx);
    Program p = diamondProgram();
    OpGraphExecutor exec(p, &bgv);
    const ScheduleHints hints = compileProgram(p, F1Config{}).hints;

    RuntimeInputs in;
    in.seed = 37;
    // Hints reorder the ready set (many ops tie at startCycle 0 in a
    // shallow graph, so releaseRank and handle break the ties); the
    // pop order must still be a deterministic total order, and the
    // outputs must not depend on the hint-driven order at all.
    const auto pol = hintedPolicy(&hints);
    const auto first = exec.execute(in, pol);
    expectIdenticalOutputs(first, exec.execute(in, pol));
    expectIdenticalOutputs(first, exec.execute(in));
}

TEST(OpGraphExecutorTest, ThreadBudgetCapsWorkersBitIdentically)
{
    FheContext ctx(smallParams());
    BgvScheme bgv(&ctx);
    Program p = diamondProgram();
    OpGraphExecutor exec(p, &bgv);
    RuntimeInputs in;
    in.seed = 41;

    setGlobalThreadCount(4);
    expectIdenticalOutputs(exec.execute(in),
                           exec.execute(in, serialPolicy()));
    setGlobalThreadCount(0);
}

TEST(OpGraphExecutorTest, RejectsCyclicProgram)
{
    FheContext ctx(smallParams());
    BgvScheme bgv(&ctx);
    Program p(256, 8, "cyclic");
    p.pushRaw({HeOpKind::kInput, -1, -1, 0, 8});
    // 1 and 2 feed each other: no topological order exists.
    p.pushRaw({HeOpKind::kAdd, 0, 2, 0, 8});
    p.pushRaw({HeOpKind::kAdd, 0, 1, 0, 8});
    p.pushRaw({HeOpKind::kOutput, 2, -1, 0, 8});
    try {
        OpGraphExecutor exec(p, &bgv);
        FAIL() << "cycle not rejected";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("cycle"),
                  std::string::npos)
            << e.what();
        EXPECT_NE(std::string(e.what()).find("1"), std::string::npos);
    }
}

TEST(OpGraphExecutorTest, RejectsSelfReferenceAndBadHandle)
{
    FheContext ctx(smallParams());
    BgvScheme bgv(&ctx);
    Program self(256, 8, "self");
    self.pushRaw({HeOpKind::kAdd, 0, 0, 0, 8});
    EXPECT_THROW(OpGraphExecutor(self, &bgv), FatalError);

    Program oob(256, 8, "oob");
    oob.pushRaw({HeOpKind::kInput, -1, -1, 0, 8});
    oob.pushRaw({HeOpKind::kRotate, 7, -1, 1, 8});
    EXPECT_THROW(OpGraphExecutor(oob, &bgv), FatalError);
}

TEST(OpGraphExecutorTest, ForwardReferencesExecuteInTopoOrder)
{
    FheContext ctx(smallParams());
    BgvScheme bgv(&ctx);

    // pushRaw program with a forward reference: the output names an
    // op appended after it. Equivalent builder program for reference.
    Program fwd(256, 8, "fwd");
    fwd.pushRaw({HeOpKind::kInput, -1, -1, 0, 8});
    fwd.pushRaw({HeOpKind::kOutput, 2, -1, 0, 8});
    fwd.pushRaw({HeOpKind::kAdd, 0, 0, 0, 8});

    Program ref(256, 8, "ref");
    int x = ref.input();
    ref.output(ref.add(x, x));

    RuntimeInputs in;
    in.bind(0, std::vector<uint64_t>(256, 21));
    in.seed = 43;
    auto rf = OpGraphExecutor(fwd, &bgv).execute(in, serialPolicy());
    auto rr = OpGraphExecutor(ref, &bgv).execute(in, serialPolicy());
    ASSERT_EQ(rf.outputs.size(), 1u);
    EXPECT_EQ(bgv.decryptSlots(rf.outputs.begin()->second)[0], 42u);
    EXPECT_EQ(ctBits(rf.outputs.begin()->second),
              ctBits(rr.outputs.begin()->second));
    auto pooled = OpGraphExecutor(fwd, &bgv).execute(in);
    EXPECT_EQ(ctBits(pooled.outputs.begin()->second),
              ctBits(rr.outputs.begin()->second));

    // The same shape under CKKS.
    CkksScheme ckks(&ctx);
    RuntimeInputs cin;
    cin.bind(0, std::vector<std::complex<double>>(128, {0.25, 0.0}));
    cin.seed = 43;
    auto cf = OpGraphExecutor(fwd, &ckks).execute(cin, serialPolicy());
    auto cr = OpGraphExecutor(ref, &ckks).execute(cin, serialPolicy());
    ASSERT_EQ(cf.outputs.size(), 1u);
    EXPECT_NEAR(ckks.decrypt(cf.outputs.begin()->second)[0].real(), 0.5,
                1e-3);
    EXPECT_EQ(ctBits(cf.outputs.begin()->second),
              ctBits(cr.outputs.begin()->second));
}

TEST(OpGraphExecutorTest, MismatchedBindingSchemeThrows)
{
    FheContext ctx(smallParams());
    BgvScheme bgv(&ctx);
    Program p = chainProgram();
    OpGraphExecutor exec(p, &bgv);
    RuntimeInputs in;
    in.bind(0, std::vector<std::complex<double>>(128));
    EXPECT_THROW(exec.execute(in), FatalError);
}

TEST(OpGraphExecutorTest, HintSizeMismatchThrows)
{
    FheContext ctx(smallParams());
    BgvScheme bgv(&ctx);
    Program p = diamondProgram();
    OpGraphExecutor exec(p, &bgv);
    ScheduleHints wrong;
    wrong.startCycle.assign(3, 0);
    wrong.releaseRank.assign(3, 0);
    EXPECT_THROW(exec.execute({}, hintedPolicy(&wrong)), FatalError);
}

/** The FatalError message `fn` throws ("" if it throws none). */
template <typename Fn>
std::string
fatalMessage(Fn &&fn)
{
    try {
        fn();
    } catch (const FatalError &e) {
        return e.what();
    }
    return "";
}

TEST(OpGraphExecutorTest, RejectsProgramDeeperThanTheChain)
{
    FheParams params = smallParams();
    params.maxLevel = 4;
    FheContext ctx(params);
    CkksScheme ckks(&ctx);
    // Built for five levels on a four-level chain: without the check
    // it constructs, then fails in execute on an inverse of zero.
    Program deep(256, 5, "deep");
    const int x = deep.input();
    deep.output(deep.modSwitch(deep.mul(x, x)));
    const std::string msg =
        fatalMessage([&] { OpGraphExecutor exec(deep, &ckks); });
    EXPECT_NE(msg.find("op 0 (input) is at level 5"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("1..4"), std::string::npos) << msg;

    // Raw programs skip the builder's checks; level 0 is rejected too.
    Program raw(256, 4, "raw");
    raw.pushRaw({HeOpKind::kInput, -1, -1, 0, 4});
    raw.pushRaw({HeOpKind::kAdd, 0, 0, 0, 0});
    raw.pushRaw({HeOpKind::kOutput, 1, -1, 0, 0});
    const std::string rawMsg =
        fatalMessage([&] { OpGraphExecutor exec(raw, &ckks); });
    EXPECT_NE(rawMsg.find("op 1 (add) is at level 0"),
              std::string::npos)
        << rawMsg;
}

TEST(OpGraphExecutorTest, RejectsProgramOfAnotherRingDegree)
{
    FheContext ctx(smallParams());
    BgvScheme bgv(&ctx);
    // Without the check this fails in prepare, on a slot count.
    Program wide(512, 4, "n512");
    wide.output(wide.rotate(wide.input(), 1));
    const std::string msg =
        fatalMessage([&] { OpGraphExecutor exec(wide, &bgv); });
    EXPECT_NE(msg.find("ring degree 512 but the scheme's is 256"),
              std::string::npos)
        << msg;
}

/**
 * Raw programs whose operands cannot work are rejected at
 * construction, with the op named. Without the checks a rotate of
 * handle -1 writes out of bounds while the graph is built, a plain
 * op with b = -1 reads out of bounds in execute, and an add with no
 * operands is never readied, so execute waits forever; these tests
 * construct only.
 */
TEST(OpGraphExecutorTest, RejectsMissingAndMistypedOperands)
{
    FheContext ctx(smallParams());
    BgvScheme bgv(&ctx);
    const auto rejects = [&](std::vector<HeOp> ops) {
        Program p(256, 8, "raw");
        for (const HeOp &op : ops)
            p.pushRaw(op);
        return fatalMessage([&] { OpGraphExecutor exec(p, &bgv); });
    };
    const HeOp in{HeOpKind::kInput, -1, -1, 0, 8};
    const HeOp plain{HeOpKind::kInputPlain, -1, -1, 0, 8};

    std::string msg = rejects({in, {HeOpKind::kRotate, -1, -1, 1, 8}});
    EXPECT_NE(msg.find("op 1 (rotate) references invalid handle -1"),
              std::string::npos)
        << msg;
    msg = rejects({in, {HeOpKind::kAdd, -1, -1, 0, 8}});
    EXPECT_NE(msg.find("op 1 (add) references invalid handle -1"),
              std::string::npos)
        << msg;
    msg = rejects({in, {HeOpKind::kMul, 0, -1, 0, 8}});
    EXPECT_NE(msg.find("op 1 (mul) references invalid handle -1"),
              std::string::npos)
        << msg;

    msg = rejects({in, plain, {HeOpKind::kMulPlain, 0, -1, 0, 8}});
    EXPECT_NE(msg.find("op 2 (mul_plain) takes plaintext handle -1"),
              std::string::npos)
        << msg;
    // b names a ciphertext input, not a plaintext.
    msg = rejects({in, plain, {HeOpKind::kAddPlain, 0, 0, 0, 8}});
    EXPECT_NE(msg.find("op 2 (add_plain) takes plaintext handle 0"),
              std::string::npos)
        << msg;

    // Ciphertext operands that name a plaintext or an output.
    msg = rejects({in, plain, {HeOpKind::kAdd, 0, 1, 0, 8}});
    EXPECT_NE(msg.find("op 2 (add) reads handle 1 (input_plain)"),
              std::string::npos)
        << msg;
    msg = rejects({in, {HeOpKind::kOutput, 0, -1, 0, 8},
                   {HeOpKind::kModSwitch, 1, -1, 0, 7}});
    EXPECT_NE(msg.find("op 2 (mod_switch) reads handle 1 (output)"),
              std::string::npos)
        << msg;
}

TEST(OpGraphExecutorTest, OpThrowingMidWalkStopsEveryWorker)
{
    FheContext ctx(smallParams());
    CkksScheme ckks(&ctx);
    // Twelve independent rotations keep the pool's workers busy or
    // asleep on the heap while the add throws: its operands differ in
    // scale (a mulPlain result is at scale^2, a fresh input at scale).
    Program bad(256, 8, "throws-mid-walk");
    Program good(256, 8, "rotations");
    for (Program *p : {&bad, &good}) {
        int x = p->input();
        for (int r = 1; r <= 12; ++r)
            p->output(p->rotate(x, r));
        if (p == &bad) {
            int m = p->mulPlain(x, p->inputPlain());
            p->output(p->add(m, p->input()));
        }
    }
    OpGraphExecutor badExec(bad, &ckks);
    OpGraphExecutor goodExec(good, &ckks);
    RuntimeInputs in;
    in.seed = 47;

    setGlobalThreadCount(4);
    for (int run = 0; run < 20; ++run)
        EXPECT_THROW(badExec.execute(in), PanicError) << "run " << run;
    // The pool survives: a valid program on it matches the serial walk.
    expectIdenticalOutputs(goodExec.execute(in, serialPolicy()),
                           goodExec.execute(in));
    setGlobalThreadCount(0);
}

//
// Serving engine
//

TEST(ServingEngineTest, JobsMatchIsolatedExecutionAndRepeat)
{
    FheContext ctx(smallParams());
    BgvScheme bgv(&ctx);
    Program diamond = diamondProgram();
    Program chain = chainProgram();

    const std::vector<std::string> tenants = {"alice", "bob", "carol"};
    std::vector<uint64_t> sharedWeights(256);
    for (size_t i = 0; i < sharedWeights.size(); ++i)
        sharedWeights[i] = (3 * i + 1) % 65537;

    auto makeRequest = [&](size_t i) {
        JobRequest req;
        req.program = i % 2 == 0 ? &diamond : &chain;
        req.tenant = tenants[i % tenants.size()];
        req.inputs.seed = 100 + i;
        if (i % 2 == 0) // the diamond's model weights, shared by all
            req.inputs.bind(2, sharedWeights);
        return req;
    };
    const size_t kJobs = 12;

    // Isolated reference execution, one job at a time, no caches.
    std::vector<ExecutionResult> isolated;
    for (size_t i = 0; i < kJobs; ++i) {
        JobRequest req = makeRequest(i);
        OpGraphExecutor exec(*req.program, &bgv);
        isolated.push_back(exec.execute(req.inputs));
    }

    for (int round = 0; round < 2; ++round) {
        const uint64_t submitted0 = registryValue("serving.jobs_submitted");
        const uint64_t completed0 = registryValue("serving.jobs_completed");
        const uint64_t failed0 = registryValue("serving.jobs_failed");
        ServingConfig cfg;
        cfg.workers = 4;
        ServingEngine engine(&bgv, cfg);
        std::vector<std::future<JobResult>> futs;
        for (size_t i = 0; i < kJobs; ++i)
            futs.push_back(engine.submit(makeRequest(i)));
        uint64_t encHits = 0, encMisses = 0;
        for (size_t i = 0; i < kJobs; ++i) {
            JobResult r = futs[i].get();
            EXPECT_EQ(r.tenant, tenants[i % tenants.size()]);
            EXPECT_GE(r.serviceMs, 0.0);
            expectIdenticalOutputs(isolated[i], r.exec);
            encHits += r.exec.encodingCacheHits;
            encMisses += r.exec.encodingCacheMisses;
        }

        EXPECT_EQ(registryValue("serving.jobs_submitted") - submitted0,
                  kJobs);
        EXPECT_EQ(registryValue("serving.jobs_completed") - completed0,
                  kJobs);
        EXPECT_EQ(registryValue("serving.jobs_failed") - failed0, 0u);
        // 6 diamond jobs share one weight vector: 1 miss, 5 hits (a
        // racing miss may encode it twice).
        EXPECT_EQ(encHits + encMisses, kJobs / 2);
        EXPECT_GT(encHits, 0u);
        EXPECT_GE(encMisses, 1u);
    }
}

TEST(ServingEngineTest, CkksJobsAndDrain)
{
    FheContext ctx(smallParams());
    CkksScheme ckks(&ctx);
    Program p(256, 8, "ckks-serve");
    int x = p.input();
    int a = p.mul(x, x);
    p.output(p.modSwitch(a));

    const uint64_t completed0 = registryValue("serving.jobs_completed");
    ServingConfig cfg;
    cfg.workers = 2;
    ServingEngine engine(&ckks, cfg);
    std::vector<std::future<JobResult>> futs;
    for (size_t i = 0; i < 6; ++i) {
        JobRequest req;
        req.program = &p;
        req.tenant = i % 2 ? "even" : "odd";
        req.inputs.seed = 40 + i;
        futs.push_back(engine.submit(std::move(req)));
    }
    engine.drain();
    EXPECT_EQ(registryValue("serving.jobs_completed") - completed0, 6u);

    // Determinism with concurrency in flight: same seed, same bits.
    auto r0 = futs[0].get();
    JobRequest again;
    again.program = &p;
    again.inputs.seed = 40;
    auto r = engine.submit(std::move(again)).get();
    expectIdenticalOutputs(r0.exec, r.exec);
}

TEST(ServingEngineTest, WorkStealingPolicyWithPerJobHints)
{
    FheContext ctx(smallParams());
    BgvScheme bgv(&ctx);
    Program p = diamondProgram();
    const ScheduleHints hints = compileProgram(p, F1Config{}).hints;

    // Isolated serial reference.
    RuntimeInputs in;
    in.seed = 53;
    OpGraphExecutor ref(p, &bgv);
    const auto isolated = ref.execute(in, serialPolicy());

    ServingConfig cfg;
    cfg.workers = 2;
    ServingEngine engine(&bgv, cfg);
    std::vector<std::future<JobResult>> futs;
    for (int i = 0; i < 4; ++i) {
        JobRequest req;
        req.program = &p;
        req.inputs.seed = 53;
        req.hints = &hints; // per-job hints for this program shape
        futs.push_back(engine.submit(std::move(req)));
    }
    for (auto &f : futs)
        expectIdenticalOutputs(isolated, f.get().exec);
}

TEST(ServingEngineTest, RejectsJobWithoutProgram)
{
    FheContext ctx(smallParams());
    BgvScheme bgv(&ctx);
    ServingConfig cfg;
    cfg.workers = 1;
    ServingEngine engine(&bgv, cfg);
    EXPECT_THROW(engine.submit(JobRequest{}), FatalError);
}

//
// Program fingerprinting (the coalescer's batching key)
//

TEST(ProgramFingerprintTest, ContentAddressedNameIndependent)
{
    Program a(256, 8, "alice");
    a.output(a.rotate(a.input(), 1));
    Program b(256, 8, "bob");
    b.output(b.rotate(b.input(), 1));
    // Identical structure, different names and addresses: same key.
    EXPECT_EQ(a.fingerprint(), b.fingerprint());

    Program c(256, 8, "alice");
    c.output(c.rotate(c.input(), 2)); // only the rotation differs
    EXPECT_NE(a.fingerprint(), c.fingerprint());

    EXPECT_NE(diamondProgram().fingerprint(),
              chainProgram().fingerprint());
    EXPECT_EQ(diamondProgram().fingerprint(),
              diamondProgram().fingerprint());
}

//
// Batched execution (executeBatch)
//

TEST(OpGraphExecutorTest, ExecuteBatchMatchesSoloBgv)
{
    FheContext ctx(smallParams());
    BgvScheme bgv(&ctx);
    Program p = diamondProgram();
    OpGraphExecutor exec(p, &bgv);

    constexpr size_t kBatch = 5;
    std::vector<RuntimeInputs> ins(kBatch);
    for (size_t i = 0; i < kBatch; ++i)
        ins[i].seed = 300 + i;

    for (const ExecutionPolicy &pol : {serialPolicy(), ExecutionPolicy{}}) {
        auto batch = exec.executeBatch(ins, pol);
        ASSERT_EQ(batch.size(), kBatch);
        for (size_t i = 0; i < kBatch; ++i) {
            auto solo = exec.execute(ins[i], pol);
            expectIdenticalOutputs(solo, batch[i]);
            EXPECT_EQ(batch[i].batchSize, kBatch);
            EXPECT_EQ(solo.batchSize, 1u);
            EXPECT_EQ(batch[i].opsExecuted, solo.opsExecuted);
            // Resident-ciphertext accounting is per member, so the
            // serial walk reports exactly the solo peak.
            if (pol.threadBudget == 1) {
                EXPECT_EQ(batch[i].peakResidentCiphertexts,
                          solo.peakResidentCiphertexts);
            }
        }
    }
}

TEST(OpGraphExecutorTest, ExecuteBatchMatchesSoloCkks)
{
    FheContext ctx(smallParams());
    CkksScheme ckks(&ctx);
    Program p(256, 8, "ckks-batch");
    int x = p.input();
    int w = p.inputPlain();
    int v = p.inputPlain();
    int a = p.mulPlain(x, w);
    int r = p.modSwitch(a); // rescale
    int s = p.addPlain(r, v);
    int b = p.rotate(s, 1);
    p.output(p.add(b, s));
    OpGraphExecutor exec(p, &ckks);

    constexpr size_t kBatch = 4;
    std::vector<RuntimeInputs> ins(kBatch);
    for (size_t i = 0; i < kBatch; ++i)
        ins[i].seed = 700 + i;

    for (const ExecutionPolicy &pol : {serialPolicy(), ExecutionPolicy{}}) {
        auto batch = exec.executeBatch(ins, pol);
        ASSERT_EQ(batch.size(), kBatch);
        for (size_t i = 0; i < kBatch; ++i) {
            auto solo = exec.execute(ins[i], pol);
            expectIdenticalOutputs(solo, batch[i]);
            if (pol.threadBudget == 1) {
                EXPECT_EQ(batch[i].peakResidentCiphertexts,
                          solo.peakResidentCiphertexts);
            }
        }
    }
}

TEST(OpGraphExecutorTest, ExecuteBatchSharesCkksEncodingCache)
{
    FheContext ctx(smallParams());
    CkksScheme ckks(&ctx);
    Program p(256, 8, "ckks-weights");
    int x = p.input();
    int w = p.inputPlain();
    int v = p.inputPlain();
    int a = p.mulPlain(x, w); // encodes w at (defaultScale, L)
    int r = p.modSwitch(a);
    p.output(p.addPlain(r, v)); // encodes v at (r.scale, L-1)
    OpGraphExecutor exec(p, &ckks);

    // All members bind the SAME weights (the shared-model serving
    // case) but encrypt different inputs.
    std::vector<std::complex<double>> weights(128), bias(128);
    for (size_t i = 0; i < 128; ++i) {
        weights[i] = {0.25 + 0.001 * double(i), 0.0};
        bias[i] = {-0.5 + 0.002 * double(i), 0.0};
    }
    constexpr size_t kBatch = 4;
    std::vector<RuntimeInputs> ins(kBatch);
    for (size_t i = 0; i < kBatch; ++i) {
        ins[i].seed = 900 + i;
        ins[i].bind(w, weights);
        ins[i].bind(v, bias);
    }

    EncodingCache cache(64, "");
    ExecutionPolicy pol = serialPolicy(); // deterministic hit order
    pol.encodingCache = &cache;
    auto batch = exec.executeBatch(ins, pol);

    // Two distinct (data, scale, level) keys; member 0 misses both,
    // every later member hits both.
    EXPECT_EQ(batch[0].encodingCacheMisses, 2u);
    EXPECT_EQ(batch[0].encodingCacheHits, 0u);
    for (size_t i = 1; i < kBatch; ++i) {
        EXPECT_EQ(batch[i].encodingCacheMisses, 0u);
        EXPECT_EQ(batch[i].encodingCacheHits, 2u);
    }

    // Cached encodings are bit-identical to uncached solo runs.
    for (size_t i = 0; i < kBatch; ++i)
        expectIdenticalOutputs(exec.execute(ins[i], serialPolicy()),
                               batch[i]);
}

TEST(OpGraphExecutorTest, ExecuteBatchSharesBgvEncodingCache)
{
    FheContext ctx(smallParams());
    BgvScheme bgv(&ctx);
    const uint64_t t = bgv.plainModulus();
    Program p(256, 8, "bgv-weights");
    int x = p.input();
    int w = p.inputPlain();
    int v = p.inputPlain();
    int a = p.mulPlain(x, w); // encodes w at level L
    int r = p.modSwitch(a);   // plaintext correction != 1 from here
    p.output(p.addPlain(r, v)); // encodes v at L-1, scaled by corr^-1
    OpGraphExecutor exec(p, &bgv);

    // All members bind the SAME weights and bias but encrypt
    // different inputs.
    std::vector<uint64_t> weights(256), bias(256);
    for (size_t i = 0; i < 256; ++i) {
        weights[i] = (17 * i + 3) % t;
        bias[i] = (t - 1 - 29 * i) % t;
    }
    constexpr size_t kBatch = 4;
    std::vector<RuntimeInputs> ins(kBatch);
    std::vector<std::vector<uint64_t>> xs(kBatch,
                                          std::vector<uint64_t>(256));
    for (size_t i = 0; i < kBatch; ++i) {
        for (size_t j = 0; j < 256; ++j)
            xs[i][j] = (31 * i + 7 * j + 1) % t;
        ins[i].seed = 1100 + i;
        ins[i].bind(x, xs[i]);
        ins[i].bind(w, weights);
        ins[i].bind(v, bias);
    }

    EncodingCache cache(64, "");
    ExecutionPolicy pol = serialPolicy(); // deterministic hit order
    pol.encodingCache = &cache;
    auto batch = exec.executeBatch(ins, pol);

    // Two distinct (data, level) keys; member 0 misses both, every
    // later member hits both.
    EXPECT_EQ(batch[0].encodingCacheMisses, 2u);
    EXPECT_EQ(batch[0].encodingCacheHits, 0u);
    for (size_t i = 1; i < kBatch; ++i) {
        EXPECT_EQ(batch[i].encodingCacheMisses, 0u);
        EXPECT_EQ(batch[i].encodingCacheHits, 2u);
    }

    // The added bias met a corrected ciphertext, and the correction
    // scaled a copy: a cached entry scaled in place would corrupt
    // every later member's sum.
    for (size_t i = 0; i < kBatch; ++i) {
        const Ciphertext &out = batch[i].outputs.begin()->second;
        EXPECT_NE(out.ptCorrection, 1u);
        const auto got = bgv.decryptSlots(out);
        for (size_t j = 0; j < 256; ++j)
            ASSERT_EQ(got[j], (xs[i][j] * weights[j] + bias[j]) % t)
                << "member " << i << " slot " << j;
        expectIdenticalOutputs(exec.execute(ins[i], serialPolicy()),
                               batch[i]);
    }
}

TEST(OpGraphExecutorTest, EncodingCacheKeysOnModulusChain)
{
    // Two contexts that differ only in their primes share one cache,
    // for each scheme. An encoding holds residues mod those primes, so
    // the second scheme must miss, not reuse the first scheme's
    // residues.
    FheParams params;
    params.n = 4096;
    params.maxLevel = 2;
    params.ckksScale = double(1 << 22);
    params.primeBits = 28;
    FheContext ctx28(params);
    params.primeBits = 30;
    FheContext ctx30(params);

    Program p(4096, 2, "chain-key");
    int x = p.input();
    int w = p.inputPlain();
    p.output(p.mulPlain(x, w));

    EncodingCache cache(64, "");
    ExecutionPolicy pol = serialPolicy();
    pol.encodingCache = &cache;

    CkksScheme ckks28(&ctx28);
    CkksScheme ckks30(&ctx30);
    std::vector<std::complex<double>> xs(2048), ws(2048);
    for (size_t i = 0; i < xs.size(); ++i) {
        xs[i] = {0.5 - 0.0004 * double(i), 0.0};
        ws[i] = {0.25 + 0.0003 * double(i), 0.0};
    }
    RuntimeInputs in;
    in.bind(x, xs);
    in.bind(w, ws);
    for (CkksScheme *ckks : {&ckks28, &ckks30}) {
        const ExecutionResult res = OpGraphExecutor(p, ckks).execute(in, pol);
        EXPECT_EQ(res.encodingCacheMisses, 1u);
        EXPECT_EQ(res.encodingCacheHits, 0u);
        const auto out = ckks->decrypt(res.outputs.begin()->second);
        double maxErr = 0;
        for (size_t i = 0; i < xs.size(); ++i)
            maxErr = std::max(maxErr, std::abs(out[i] - xs[i] * ws[i]));
        EXPECT_LT(maxErr, 1e-3);
    }

    BgvScheme bgv28(&ctx28);
    BgvScheme bgv30(&ctx30);
    const uint64_t t = bgv28.plainModulus();
    std::vector<uint64_t> bx(4096), bw(4096);
    for (size_t i = 0; i < bx.size(); ++i) {
        bx[i] = (3 * i + 1) % t;
        bw[i] = (5 * i + 7) % t;
    }
    RuntimeInputs bin;
    bin.bind(x, bx);
    bin.bind(w, bw);
    for (BgvScheme *bgv : {&bgv28, &bgv30}) {
        const ExecutionResult res = OpGraphExecutor(p, bgv).execute(bin, pol);
        EXPECT_EQ(res.encodingCacheMisses, 1u);
        EXPECT_EQ(res.encodingCacheHits, 0u);
        const auto out = bgv->decryptSlots(res.outputs.begin()->second);
        for (size_t i = 0; i < bx.size(); ++i)
            ASSERT_EQ(out[i], bx[i] * bw[i] % t) << i;
    }
}

//
// Hoisted rotations
//

using CkksSlots = std::vector<std::complex<double>>;

/**
 * Rotation fan-out: one input feeding three rotations and a
 * conjugate, and a rescaled product feeding two rotations, so the
 * digit variant hoists two sources: x (k = 4 Galois consumers at
 * level L) and the product (k = 2 at level L - 1).
 */
struct FanoutProgram
{
    static constexpr uint32_t kLevel = 4;
    Program p{256, kLevel, "fanout"};
    int x = -1, out3 = -1, outConj = -1, out4 = -1, out5 = -1;

    FanoutProgram()
    {
        x = p.input();
        const int r1 = p.rotate(x, 1);
        const int r2 = p.rotate(x, 2);
        const int r3 = p.rotate(x, 3);
        const int cj = p.conjugate(x);
        const int s = p.modSwitch(p.mul(r1, r2));
        out3 = p.output(r3);
        outConj = p.output(cj);
        out4 = p.output(p.rotate(s, 4));
        out5 = p.output(p.rotate(s, 5));
    }
};

/** FanoutProgram's ops called one by one on the scheme, from the
 *  ciphertext prepare() encrypts (Rng(seed), program order). */
template <class Scheme, class Slots>
ExecutionResult
fanoutOpByOp(Scheme &scheme, const FanoutProgram &f, const Slots &slots,
             uint64_t seed)
{
    constexpr bool kBgv = std::is_same_v<Scheme, BgvScheme>;
    Rng rng(seed);
    Ciphertext x;
    if constexpr (kBgv)
        x = scheme.encryptSlots(slots, f.kLevel, rng);
    else
        x = scheme.encrypt(slots, f.kLevel, rng);
    const Ciphertext prod =
        scheme.mul(scheme.rotate(x, 1), scheme.rotate(x, 2));
    Ciphertext s;
    if constexpr (kBgv)
        s = scheme.modSwitch(prod);
    else
        s = scheme.rescale(prod);
    ExecutionResult r;
    r.outputs[f.out3] = scheme.rotate(x, 3);
    r.outputs[f.outConj] = scheme.conjugate(x);
    r.outputs[f.out4] = scheme.rotate(s, 4);
    r.outputs[f.out5] = scheme.rotate(s, 5);
    return r;
}

/**
 * FanoutProgram on `scheme` for one batch member per entry of `slots`:
 * every walk (threadBudget = 1, the default pool, a fused batch) must
 * return the op-by-op words. With `hoists`, a profiled execute must
 * save (k - 1) decompositions per source with k Galois consumers at
 * level l: (k - 1) * l^2 forward and (k - 1) * l inverse NTTs.
 */
template <class Scheme, class Slots>
void
expectFanoutMatchesOpByOp(Scheme &scheme, const std::vector<Slots> &slots,
                          bool hoists)
{
    const FanoutProgram f;
    const OpGraphExecutor exec(f.p, &scheme);
    std::vector<RuntimeInputs> ins(slots.size());
    std::vector<ExecutionResult> refs;
    for (size_t b = 0; b < slots.size(); ++b) {
        ins[b].seed = 41 + b;
        ins[b].bind(f.x, slots[b]);
        // Also generates every hint, so no count below includes one.
        refs.push_back(fanoutOpByOp(scheme, f, slots[b], ins[b].seed));
    }
    expectIdenticalOutputs(refs[0], exec.execute(ins[0], serialPolicy()));
    expectIdenticalOutputs(refs[0], exec.execute(ins[0]));
    const auto batch = exec.executeBatch(ins);
    for (size_t b = 0; b < slots.size(); ++b)
        expectIdenticalOutputs(refs[b], batch[b]);

    obs::ProfileCollector opByOp;
    {
        obs::ProfileScope scope(&opByOp);
        fanoutOpByOp(scheme, f, slots[0], ins[0].seed);
    }
    const auto count = [&](obs::ProfileCounter c) {
        return opByOp.counters[size_t(c)].load();
    };
    ExecutionPolicy profiled;
    profiled.telemetry.profile = true;
    const auto prof = exec.execute(ins[0], profiled).profile;
    const uint64_t l = f.kLevel;
    const uint64_t savedFwd = hoists ? 3 * l * l + (l - 1) * (l - 1) : 0;
    const uint64_t savedInv = hoists ? 3 * l + (l - 1) : 0;
    EXPECT_EQ(prof->nttForward,
              count(obs::ProfileCounter::kNttForward) - savedFwd);
    EXPECT_EQ(prof->nttInverse,
              count(obs::ProfileCounter::kNttInverse) - savedInv);
    EXPECT_EQ(prof->keySwitchApplies,
              count(obs::ProfileCounter::kKeySwitchApply));
}

/** Slots rotated left by r within each row of `row` slots. */
template <class T>
std::vector<T>
rotatedRows(const std::vector<T> &v, size_t row, size_t r)
{
    std::vector<T> out(v.size());
    for (size_t i = 0; i < v.size(); ++i)
        out[i] = v[i - i % row + (i % row + r) % row];
    return out;
}

/** FanoutProgram's BGV outputs against slot arithmetic mod t. */
void
expectFanoutDecryptsBgv(const BgvScheme &bgv, const FanoutProgram &f,
                        const std::vector<uint64_t> &x,
                        const ExecutionResult &res)
{
    const uint64_t t = bgv.plainModulus();
    const size_t row = x.size() / 2;
    const auto r1 = rotatedRows(x, row, 1), r2 = rotatedRows(x, row, 2);
    std::vector<uint64_t> prod(x.size()), conj(x.size());
    for (size_t i = 0; i < x.size(); ++i) {
        prod[i] = r1[i] * r2[i] % t;
        conj[i] = x[(i + row) % x.size()]; // the rows swap
    }
    EXPECT_EQ(bgv.decryptSlots(res.outputs.at(f.out3)),
              rotatedRows(x, row, 3));
    EXPECT_EQ(bgv.decryptSlots(res.outputs.at(f.outConj)), conj);
    EXPECT_EQ(bgv.decryptSlots(res.outputs.at(f.out4)),
              rotatedRows(prod, row, 4));
    EXPECT_EQ(bgv.decryptSlots(res.outputs.at(f.out5)),
              rotatedRows(prod, row, 5));
}

/** FanoutProgram's CKKS outputs against complex slot arithmetic. */
void
expectFanoutDecryptsCkks(const CkksScheme &ckks, const FanoutProgram &f,
                         const CkksSlots &x, const ExecutionResult &res)
{
    const size_t n = x.size();
    const auto r1 = rotatedRows(x, n, 1), r2 = rotatedRows(x, n, 2);
    CkksSlots prod(n), conj(n);
    for (size_t i = 0; i < n; ++i) {
        prod[i] = r1[i] * r2[i];
        conj[i] = std::conj(x[i]);
    }
    const std::pair<int, CkksSlots> want[] = {
        {f.out3, rotatedRows(x, n, 3)},
        {f.outConj, conj},
        {f.out4, rotatedRows(prod, n, 4)},
        {f.out5, rotatedRows(prod, n, 5)},
    };
    for (const auto &[h, slots] : want) {
        const auto got = ckks.decrypt(res.outputs.at(h));
        for (size_t i = 0; i < n; ++i)
            ASSERT_LT(std::abs(got[i] - slots[i]), 1e-3)
                << "output " << h << " slot " << i;
    }
}

std::vector<std::vector<uint64_t>>
bgvFanoutSlots(size_t members)
{
    Rng rng(53);
    std::vector<std::vector<uint64_t>> out;
    for (size_t b = 0; b < members; ++b)
        out.push_back(rng.uniformVector(256, 65537));
    return out;
}

std::vector<CkksSlots>
ckksFanoutSlots(size_t members)
{
    Rng rng(59);
    std::vector<CkksSlots> out(members, CkksSlots(128));
    for (CkksSlots &slots : out)
        for (auto &s : slots)
            s = {rng.uniformReal(-1, 1), rng.uniformReal(-1, 1)};
    return out;
}

TEST(OpGraphExecutorTest, HoistedRotationsMatchOpByOpBgv)
{
    FheContext ctx(smallParams());
    BgvScheme bgv(&ctx);
    const auto slots = bgvFanoutSlots(3);
    expectFanoutMatchesOpByOp(bgv, slots, /*hoists=*/true);

    const FanoutProgram f;
    RuntimeInputs in;
    in.bind(f.x, slots[0]);
    expectFanoutDecryptsBgv(bgv, f, slots[0],
                            OpGraphExecutor(f.p, &bgv).execute(in));
}

TEST(OpGraphExecutorTest, HoistedRotationsMatchOpByOpCkks)
{
    FheContext ctx(smallParams());
    CkksScheme ckks(&ctx);
    const auto slots = ckksFanoutSlots(3);
    expectFanoutMatchesOpByOp(ckks, slots, /*hoists=*/true);

    const FanoutProgram f;
    RuntimeInputs in;
    in.bind(f.x, slots[0]);
    expectFanoutDecryptsCkks(ckks, f, slots[0],
                             OpGraphExecutor(f.p, &ckks).execute(in));
}

TEST(OpGraphExecutorTest, GhsRotationsStayUnhoisted)
{
    // GHS key switching is never hoisted: the same program runs its
    // op-by-op NTT counts and words, and decrypts correctly.
    FheParams params = smallParams();
    params.auxCount = FanoutProgram::kLevel;
    FheContext ctx(params);
    const FanoutProgram f;

    BgvScheme bgv(&ctx, 0, KeySwitchVariant::kGhsExtension);
    const auto bgvSlots = bgvFanoutSlots(2);
    expectFanoutMatchesOpByOp(bgv, bgvSlots, /*hoists=*/false);
    RuntimeInputs bin;
    bin.bind(f.x, bgvSlots[0]);
    expectFanoutDecryptsBgv(bgv, f, bgvSlots[0],
                            OpGraphExecutor(f.p, &bgv).execute(bin));

    CkksScheme ckks(&ctx, KeySwitchVariant::kGhsExtension);
    const auto ckksSlots = ckksFanoutSlots(2);
    expectFanoutMatchesOpByOp(ckks, ckksSlots, /*hoists=*/false);
    RuntimeInputs cin;
    cin.bind(f.x, ckksSlots[0]);
    expectFanoutDecryptsCkks(ckks, f, ckksSlots[0],
                             OpGraphExecutor(f.p, &ckks).execute(cin));
}

//
// Helped limb loops: an op that runs alone spreads over idle workers
//

/** A narrow chain: every op consumes the one before it, so the walk
 *  runs one op at a time and its idle workers help that op's limb
 *  loops. */
struct NarrowChain
{
    static constexpr uint32_t kLevel = 4;
    Program p{256, kLevel, "narrow"};
    int x = -1, out = -1;

    NarrowChain()
    {
        x = p.input();
        int h = p.rotate(x, 1);
        h = p.modSwitch(p.mul(h, h));
        h = p.rotate(h, 3);
        h = p.modSwitch(p.mul(h, h));
        out = p.output(p.rotate(h, 5));
    }
};

/** NarrowChain's ops called one by one on the scheme, from the
 *  ciphertext prepare() encrypts (Rng(seed)). */
template <class Scheme, class Slots>
Ciphertext
narrowChainOpByOp(Scheme &scheme, const Slots &slots, uint64_t seed)
{
    constexpr bool kBgv = std::is_same_v<Scheme, BgvScheme>;
    const auto rescale = [&](const Ciphertext &c) {
        if constexpr (kBgv)
            return scheme.modSwitch(c);
        else
            return scheme.rescale(c);
    };
    Rng rng(seed);
    Ciphertext h;
    if constexpr (kBgv)
        h = scheme.encryptSlots(slots, NarrowChain::kLevel, rng);
    else
        h = scheme.encrypt(slots, NarrowChain::kLevel, rng);
    h = scheme.rotate(h, 1);
    h = rescale(scheme.mul(h, h));
    h = scheme.rotate(h, 3);
    h = rescale(scheme.mul(h, h));
    return scheme.rotate(h, 5);
}

/**
 * NarrowChain on a 4-thread pool, where the walk's idle workers help
 * the lone op's limb loops, against the serial walk and the op-by-op
 * calls: the same words, and the same NTT and key-switch counts in the
 * profile (helpers count into the running job's collector).
 */
template <class Scheme, class Slots>
void
expectHelpedChainMatchesSerial(Scheme &scheme, const Slots &slots)
{
    const NarrowChain c;
    const OpGraphExecutor exec(c.p, &scheme);
    RuntimeInputs in;
    in.seed = 61;
    in.bind(c.x, slots);
    // Also generates every hint, so no profile below counts one.
    ExecutionResult ref;
    ref.outputs[c.out] = narrowChainOpByOp(scheme, slots, in.seed);

    ExecutionPolicy serial = serialPolicy();
    serial.telemetry.profile = true;
    ExecutionPolicy pooled;
    pooled.telemetry.profile = true;
    setGlobalThreadCount(4);
    const auto walk1 = exec.execute(in, serial);
    const auto walk4 = exec.execute(in, pooled);
    setGlobalThreadCount(0);
    expectIdenticalOutputs(ref, walk1);
    expectIdenticalOutputs(ref, walk4);
    EXPECT_EQ(walk4.maxWavefrontWidth, 1u);
    ASSERT_NE(walk1.profile, nullptr);
    ASSERT_NE(walk4.profile, nullptr);
    EXPECT_GT(walk1.profile->nttForward, 0u);
    EXPECT_EQ(walk4.profile->nttForward, walk1.profile->nttForward);
    EXPECT_EQ(walk4.profile->nttInverse, walk1.profile->nttInverse);
    EXPECT_EQ(walk4.profile->keySwitchApplies,
              walk1.profile->keySwitchApplies);
}

TEST(OpGraphExecutorTest, HelpedNarrowChainMatchesSerialBgv)
{
    FheContext ctx(smallParams());
    BgvScheme bgv(&ctx);
    expectHelpedChainMatchesSerial(bgv, bgvFanoutSlots(1)[0]);
}

TEST(OpGraphExecutorTest, HelpedNarrowChainMatchesSerialCkks)
{
    FheContext ctx(smallParams());
    CkksScheme ckks(&ctx);
    expectHelpedChainMatchesSerial(ckks, ckksFanoutSlots(1)[0]);
}

//
// Admission control (consumes the metrics registry, not private state)
//

TEST(AdmissionControllerTest, DecidesFromRegistrySnapshot)
{
    auto &reg = obs::MetricsRegistry::global();
    reg.reset();
    AdmissionLimits lim;
    lim.maxBacklog = 10;
    AdmissionController ctl(lim);
    TenantPolicy tp;

    // Stage registry state below the cap: admit.
    reg.counter("serving.jobs_submitted").inc(9);
    EXPECT_TRUE(ctl.decide(reg.snapshot(), "t", tp, 0).admit);

    // Stage a backlog exactly at the cap: shed, naming the counters.
    reg.counter("serving.jobs_submitted").inc(21); // 30 submitted
    reg.counter("serving.jobs_completed").inc(15);
    reg.counter("serving.jobs_failed").inc(5); // backlog = 10
    auto d = ctl.decide(reg.snapshot(), "t", tp, 0);
    EXPECT_FALSE(d.admit);
    EXPECT_NE(d.reason.find("backlog"), std::string::npos);

    // Completions observed through the registry re-open admission —
    // the controller tracks the registry, not its own counters.
    reg.counter("serving.jobs_completed").inc(1); // backlog = 9
    EXPECT_TRUE(ctl.decide(reg.snapshot(), "t", tp, 0).admit);

    // Latency shedding reads the serving.queue_ms histogram's p95.
    AdmissionLimits lat;
    lat.maxQueueP95Ms = 5;
    AdmissionController latCtl(lat);
    // No observations yet.
    EXPECT_TRUE(latCtl.decide(reg.snapshot(), "t", tp, 0).admit);
    for (int i = 0; i < 100; ++i)
        reg.histogram("serving.queue_ms").observe(50.0);
    auto dl = latCtl.decide(reg.snapshot(), "t", tp, 0);
    EXPECT_FALSE(dl.admit);
    EXPECT_NE(dl.reason.find("p95"), std::string::npos);

    // Per-tenant depth cap, from an explicit (empty) snapshot.
    TenantPolicy capped;
    capped.maxQueueDepth = 2;
    EXPECT_TRUE(ctl.decide(obs::MetricsSnapshot{}, "t", capped, 1).admit);
    EXPECT_FALSE(
        ctl.decide(obs::MetricsSnapshot{}, "t", capped, 2).admit);
    reg.reset();
}

TEST(ServingEngineTest, ShedsWhenRegistryBacklogOverLimit)
{
    auto &reg = obs::MetricsRegistry::global();
    reg.reset();
    FheContext ctx(smallParams());
    BgvScheme bgv(&ctx);
    Program p = diamondProgram();
    ServingConfig cfg;
    cfg.workers = 1;
    cfg.admission.maxBacklog = 5;
    ServingEngine engine(&bgv, cfg);

    // Stage a fleet backlog in the registry, as if sibling engines
    // held 50 queued jobs; this engine must shed without enqueuing.
    reg.counter("serving.jobs_submitted").inc(50);
    JobRequest req;
    req.program = &p;
    EXPECT_THROW(engine.submit(std::move(req)), AdmissionRejected);
    auto snap = reg.snapshot();
    EXPECT_EQ(snap.counters.at("serving.shed_jobs"), 1u);
    EXPECT_EQ(snap.counters.at("serving.jobs_submitted"), 50u);

    // Completions drain the staged backlog: the engine admits again.
    reg.counter("serving.jobs_completed").inc(50);
    JobRequest ok;
    ok.program = &p;
    ok.inputs.seed = 3;
    engine.submit(std::move(ok)).get();
    snap = reg.snapshot();
    EXPECT_EQ(snap.counters.at("serving.jobs_submitted"), 51u);
    EXPECT_EQ(snap.counters.at("serving.jobs_completed"), 51u);
    reg.reset();
}

TEST(ServingEngineTest, QueueDepthGaugesInRegistry)
{
    FheContext ctx(smallParams());
    BgvScheme bgv(&ctx);
    Program p = diamondProgram();
    ServingConfig cfg;
    cfg.workers = 2;
    {
        ServingEngine engine(&bgv, cfg);

        std::vector<std::future<JobResult>> futs;
        for (uint64_t i = 0; i < 6; ++i) {
            JobRequest req;
            req.program = &p;
            req.inputs.seed = i;
            futs.push_back(engine.submit(std::move(req)));
        }
        engine.drain();

        auto snap = obs::MetricsRegistry::global().snapshot();
        EXPECT_EQ(snap.gauges.at("serving.queue_depth"), 0u);
        EXPECT_GE(snap.gauges.at("serving.queue_depth_peak"), 1u);
        EXPECT_LE(snap.gauges.at("serving.queue_depth_peak"), 6u);
        for (auto &f : futs)
            f.get();
    }
    // A stopped engine withdraws its peak.
    EXPECT_EQ(registryValue("serving.queue_depth_peak"), 0u);
}

//
// Batched serving pipeline
//

/** Long mul chain: keeps a worker busy long enough for submits to
 *  queue up behind it (deterministic-output, timing-only helper). */
Program
heavyProgram(int muls)
{
    Program p(256, 8, "heavy");
    int x = p.input();
    int acc = p.mul(x, x);
    for (int i = 1; i < muls; ++i)
        acc = p.mul(acc, x);
    p.output(acc);
    return p;
}

TEST(ServingEngineTest, BatchedMatchesSoloAcrossWorkersBgv)
{
    FheContext ctx(smallParams());
    BgvScheme bgv(&ctx);
    Program p = diamondProgram();

    constexpr size_t kJobs = 10;
    std::vector<ExecutionResult> isolated;
    for (size_t i = 0; i < kJobs; ++i) {
        RuntimeInputs in;
        in.seed = 1000 + i;
        OpGraphExecutor exec(p, &bgv);
        isolated.push_back(exec.execute(in));
    }

    for (unsigned workers : {1u, 4u}) {
        ServingConfig cfg;
        cfg.workers = workers;
        cfg.maxBatch = 8;
        cfg.tenantPolicies["gold"] = {2, 20.0, 0};
        cfg.tenantPolicies["bulk"] = {0, 500.0, 0};
        ServingEngine engine(&bgv, cfg);
        std::vector<std::future<JobResult>> futs;
        for (size_t i = 0; i < kJobs; ++i) {
            JobRequest req;
            req.program = &p;
            req.tenant = i % 2 ? "gold" : "bulk";
            req.inputs.seed = 1000 + i;
            futs.push_back(engine.submit(std::move(req)));
        }
        for (size_t i = 0; i < kJobs; ++i) {
            JobResult r = futs[i].get();
            expectIdenticalOutputs(isolated[i], r.exec);
            EXPECT_GE(r.exec.batchSize, 1u);
            EXPECT_LE(r.exec.batchSize, 8u);
        }
    }
}

TEST(ServingEngineTest, BatchedMatchesSoloAcrossWorkersCkks)
{
    FheContext ctx(smallParams());
    CkksScheme ckks(&ctx);
    Program p(256, 8, "ckks-pipeline");
    int x = p.input();
    int w = p.inputPlain();
    int a = p.mulPlain(x, w);
    int r = p.modSwitch(a);
    p.output(p.add(p.rotate(r, 1), r));

    std::vector<std::complex<double>> weights(128);
    for (size_t i = 0; i < 128; ++i)
        weights[i] = {0.125 * double(i % 7), 0.0};

    constexpr size_t kJobs = 8;
    std::vector<ExecutionResult> isolated;
    for (size_t i = 0; i < kJobs; ++i) {
        RuntimeInputs in;
        in.seed = 2000 + i;
        in.bind(w, weights);
        OpGraphExecutor exec(p, &ckks);
        isolated.push_back(exec.execute(in));
    }

    for (unsigned workers : {1u, 4u}) {
        ServingConfig cfg;
        cfg.workers = workers;
        ServingEngine engine(&ckks, cfg);
        std::vector<std::future<JobResult>> futs;
        for (size_t i = 0; i < kJobs; ++i) {
            JobRequest req;
            req.program = &p;
            req.tenant = i % 2 ? "even" : "odd";
            req.inputs.seed = 2000 + i;
            req.inputs.bind(w, weights);
            futs.push_back(engine.submit(std::move(req)));
        }
        for (size_t i = 0; i < kJobs; ++i)
            expectIdenticalOutputs(isolated[i], futs[i].get().exec);
    }
}

TEST(ServingEngineTest, DrainWithSlowBatchedJobInFlight)
{
    FheContext ctx(smallParams());
    BgvScheme bgv(&ctx);
    Program lead = heavyProgram(60);
    Program light = diamondProgram();

    ServingConfig cfg;
    cfg.workers = 1; // one worker: the lead job serializes pickup
    cfg.maxBatch = 8;
    ServingEngine engine(&bgv, cfg);

    JobRequest first;
    first.program = &lead;
    auto leadFut = engine.submit(std::move(first));

    // These queue up while the worker grinds the lead job, so the
    // coalescer sees them together and fuses them into one batch.
    std::vector<std::future<JobResult>> futs;
    for (uint64_t i = 0; i < 6; ++i) {
        JobRequest req;
        req.program = &light;
        req.inputs.seed = 3000 + i;
        futs.push_back(engine.submit(std::move(req)));
    }

    engine.drain(); // must cover the slow batched execution

    using namespace std::chrono_literals;
    ASSERT_EQ(leadFut.wait_for(0s), std::future_status::ready);
    size_t maxBatch = 0;
    for (size_t i = 0; i < futs.size(); ++i) {
        ASSERT_EQ(futs[i].wait_for(0s), std::future_status::ready)
            << "drain() returned with job " << i << " unfinished";
        JobResult r = futs[i].get();
        maxBatch = std::max(maxBatch, r.exec.batchSize);
        RuntimeInputs in;
        in.seed = 3000 + i;
        OpGraphExecutor exec(light, &bgv);
        expectIdenticalOutputs(exec.execute(in), r.exec);
    }
    // All six were queued behind the lead, so they fused.
    EXPECT_GE(maxBatch, 2u);
    auto snap = obs::MetricsRegistry::global().snapshot();
    ASSERT_TRUE(snap.histograms.count("serving.batch_size"));
    EXPECT_GE(snap.histograms.at("serving.batch_size").count, 1u);
}

TEST(ServingEngineTest, SubmitWhileDestructingIsRejected)
{
    FheContext ctx(smallParams());
    BgvScheme bgv(&ctx);
    Program slow = heavyProgram(40);
    Program fast = chainProgram();

    ServingConfig cfg;
    cfg.workers = 1;
    cfg.maxBatch = 1; // no fusing: the backlog drains one by one
    auto *engine = new ServingEngine(&bgv, cfg);

    // A deep backlog of slow jobs keeps the destructor inside
    // drain() for a long window after it closes admission.
    std::vector<std::future<JobResult>> backlog;
    for (uint64_t i = 0; i < 12; ++i) {
        JobRequest req;
        req.program = &slow;
        req.inputs.seed = i;
        backlog.push_back(engine->submit(std::move(req)));
    }

    std::thread destroyer([&] { delete engine; });
    // Poll submit until the destructor flips accepting_; everything
    // accepted in the window must still resolve before teardown. The
    // polled jobs are cheap, so however many land in the window, the
    // drain they add stays short.
    std::vector<std::future<JobResult>> accepted;
    bool rejected = false;
    while (!rejected) {
        JobRequest req;
        req.program = &fast;
        req.inputs.seed = 100 + accepted.size();
        try {
            accepted.push_back(engine->submit(std::move(req)));
        } catch (const FatalError &) {
            rejected = true;
        }
    }
    destroyer.join();
    EXPECT_TRUE(rejected);

    using namespace std::chrono_literals;
    for (auto &f : backlog) {
        ASSERT_EQ(f.wait_for(0s), std::future_status::ready);
        f.get();
    }
    for (auto &f : accepted) {
        ASSERT_EQ(f.wait_for(0s), std::future_status::ready)
            << "an accepted job was not drained before teardown";
        f.get();
    }
}

TEST(ServingEngineTest, TenantQueueDepthCapSheds)
{
    FheContext ctx(smallParams());
    BgvScheme bgv(&ctx);
    Program slow = heavyProgram(40);

    const uint64_t shed0 = registryValue("serving.shed_jobs");
    ServingConfig cfg;
    cfg.workers = 1;
    cfg.maxBatch = 1;
    cfg.tenantPolicies["capped"] = {0, 1000.0, /*maxQueueDepth=*/2};
    ServingEngine engine(&bgv, cfg);

    // Flood the capped tenant. The worker can hold at most one job in
    // flight, so by the pigeonhole principle the tenant's queue is at
    // its cap well before the last submit: some submit must shed.
    std::vector<std::future<JobResult>> futs;
    size_t shed = 0;
    for (uint64_t i = 0; i < 16; ++i) {
        JobRequest req;
        req.program = &slow;
        req.tenant = "capped";
        req.inputs.seed = i;
        try {
            futs.push_back(engine.submit(std::move(req)));
        } catch (const AdmissionRejected &) {
            ++shed;
        }
    }
    EXPECT_GT(shed, 0u);
    EXPECT_EQ(registryValue("serving.shed_jobs") - shed0, shed);
    for (auto &f : futs)
        f.get();
    // cap 2 + pickup race
    EXPECT_LE(registryValue("serving.queue_depth_peak"), 3u);
}

} // namespace
} // namespace f1
