#include "layers.h"

#include <cstdio>
#include <functional>
#include <numeric>
#include <optional>

#include "arch/config.h"
#include "arch/heax_model.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/time_util.h"
#include "compiler/compiler.h"
#include "fhe/basis_extend.h"
#include "fhe/keyswitch.h"
#include "modular/modarith.h"

namespace f1::perfbench {

namespace {

/** Median per-call time in us: one warm-up call, then at least
 *  `minReps` timed calls and until `budgetMs` is spent. */
double
medianUs(const std::function<void()> &fn, int minReps = 5,
         double budgetMs = 200, int maxReps = 2000)
{
    fn();
    std::vector<double> us;
    const double t0 = steadyNowMs();
    while (static_cast<int>(us.size()) < maxReps &&
           (static_cast<int>(us.size()) < minReps ||
            steadyNowMs() - t0 < budgetMs)) {
        const double a = steadyNowMs();
        fn();
        us.push_back((steadyNowMs() - a) * 1000.0);
    }
    return median(us);
}

/** Cycle-model time of a program holding the one op `kind` at the
 *  sweep's (N, L), in us. */
double
modelUs(HeOpKind kind, uint32_t n, uint32_t level, uint32_t aux)
{
    Program p(n, level, "one-op");
    p.setAuxCount(aux);
    const int x = p.input();
    const int y = p.input();
    const int w = p.inputPlain();
    int r = -1;
    switch (kind) {
      case HeOpKind::kAdd: r = p.add(x, y); break;
      case HeOpKind::kMulPlain: r = p.mulPlain(x, w); break;
      case HeOpKind::kMul: r = p.mul(x, y); break;
      case HeOpKind::kRotate: r = p.rotate(x, 1); break;
      case HeOpKind::kModSwitch: r = p.modSwitch(x); break;
      default: return -1;
    }
    p.output(r);
    const F1Config cfg;
    return compileProgram(p, cfg).schedule.timeMs(cfg) * 1000.0;
}

struct Row
{
    std::string metric;
    double measuredUs;
    double f1Us;   //!< < 0: no one-op program for this call
    double heaxUs; //!< < 0: the HEAX model has no such figure
};

void
printModelTable(const std::vector<Row> &rows, uint32_t n, uint32_t level,
                const char *variant)
{
    std::fprintf(stderr,
                 "\n[model] per-call cost at N=%u L=%u (%s key switch): "
                 "measured inline on this host | F1 cycle model, one-op "
                 "program | HEAX-sigma model\n",
                 n, level, variant);
    std::fprintf(stderr, "  %-22s %14s %14s %14s\n", "metric",
                 "measured[us]", "F1 model[us]", "HEAX-s[us]");
    for (const Row &r : rows) {
        char f1[32] = "-", heax[32] = "-";
        if (r.f1Us >= 0)
            std::snprintf(f1, sizeof f1, "%.3f", r.f1Us);
        if (r.heaxUs >= 0)
            std::snprintf(heax, sizeof heax, "%.3f", r.heaxUs);
        std::fprintf(stderr, "  %-22s %14.3f %14s %14s\n", r.metric.c_str(),
                     r.measuredUs, f1, heax);
    }
    std::fprintf(stderr,
                 "  The models are not validated against hardware and "
                 "the one-op programs are not the library's exact call, "
                 "so no error figure is given.\n");
}

/** Level of the operands an op consumes (a mod-switch drops one). */
uint32_t
operandLevel(const HeOp &op)
{
    return op.kind == HeOpKind::kModSwitch ? op.level + 1 : op.level;
}

const char *
kindName(HeOpKind kind)
{
    switch (kind) {
      case HeOpKind::kAdd: return "add";
      case HeOpKind::kSub: return "sub";
      case HeOpKind::kAddPlain: return "add_plain";
      case HeOpKind::kMulPlain: return "mul_plain";
      case HeOpKind::kMul: return "mul";
      case HeOpKind::kRotate: return "rotate";
      case HeOpKind::kConjugate: return "conjugate";
      case HeOpKind::kModSwitch: return "mod_switch";
      default: return nullptr; // inputs and outputs do no scheme work
    }
}

} // namespace

OpCosts
sweepKernels(const FheContext &ctx, BgvScheme *bgv, CkksScheme *ckks,
             const Program &prog, SpanRecorder &spans, Metrics &out)
{
    SpanRecorder::Scope root(spans, "bench.sweep");
    const uint32_t n = ctx.n();
    const uint32_t level = ctx.maxLevel();
    const uint32_t aux = ctx.auxCount();
    const KeySwitchVariant variant =
        bgv ? bgv->variant() : ckks->variant();
    const uint64_t errorScale = bgv ? bgv->plainModulus() : 1;
    const PolyContext *pc = ctx.polyContext();
    Rng rng(0x5eeb);
    std::vector<Row> rows;

    // Every call below runs inline, the regime a serving job runs its
    // ops in and an op-graph op runs its limbs in on a pool worker.
    std::optional<InlineParallelScope> inlineScope(std::in_place);

    // --- fhe: operand pairs at every level a call needs.
    std::vector<uint64_t> bgvSlots;
    std::vector<std::complex<double>> ckksSlots;
    std::vector<int64_t> bgvPlain;
    if (bgv) {
        bgvSlots = rng.uniformVector(n, bgv->plainModulus());
        bgvPlain = bgv->encoder().encodeSlots(bgvSlots);
    } else {
        ckksSlots.resize(n / 2);
        for (auto &s : ckksSlots)
            s = {rng.uniformReal(-1, 1), 0.0};
    }
    auto encrypt = [&] {
        return bgv ? bgv->encryptSlots(bgvSlots, level, rng)
                   : ckks->encrypt(ckksSlots, level, rng);
    };
    std::map<uint32_t, std::pair<Ciphertext, Ciphertext>> operands;
    std::map<uint32_t, RnsPoly> ckksPlain;
    auto at = [&](uint32_t l) -> std::pair<Ciphertext, Ciphertext> & {
        auto it = operands.find(l);
        if (it != operands.end())
            return it->second;
        Ciphertext x = encrypt(), y = encrypt();
        if (bgv) {
            while (x.level() > l) {
                x = bgv->modSwitch(x);
                y = bgv->modSwitch(y);
            }
        } else {
            x = ckks->modDownTo(x, l);
            y = ckks->modDownTo(y, l);
            ckksPlain.emplace(l, ckks->encoder().encode(
                                     ckksSlots, ckks->defaultScale(), l));
        }
        return operands.emplace(l, std::make_pair(x, y)).first->second;
    };
    const uint64_t g1 = bgv ? bgv->encoder().slotOrder().rotationGalois(1)
                            : ckks->encoder().slotOrder().rotationGalois(1);
    const auto keep = [](Ciphertext &&) {};
    // Median inline time of one `kind` call at level l, in us. The
    // warm-up call generates any key-switch hint the call needs.
    std::map<std::pair<HeOpKind, uint32_t>, double> timed;
    auto cost = [&](HeOpKind kind, uint32_t l) {
        auto key = std::make_pair(kind, l);
        auto it = timed.find(key);
        if (it != timed.end())
            return it->second;
        auto &[x, y] = at(l);
        std::function<void()> fn;
        switch (kind) {
          case HeOpKind::kAdd:
            fn = [&] { keep(bgv ? bgv->add(x, y) : ckks->add(x, y)); };
            break;
          case HeOpKind::kSub:
            fn = [&] { keep(bgv ? bgv->sub(x, y) : ckks->sub(x, y)); };
            break;
          case HeOpKind::kAddPlain:
            fn = [&] {
                keep(bgv ? bgv->addPlain(x, bgvPlain)
                         : ckks->addPlainEncoded(x, ckksPlain.at(l)));
            };
            break;
          case HeOpKind::kMulPlain:
            fn = [&] {
                keep(bgv ? bgv->mulPlain(x, bgvPlain)
                         : ckks->mulPlainEncoded(x, ckksPlain.at(l)));
            };
            break;
          case HeOpKind::kMul:
            fn = [&] { keep(bgv ? bgv->mul(x, y) : ckks->mul(x, y)); };
            break;
          case HeOpKind::kRotate:
            fn = [&] {
                keep(bgv ? bgv->rotate(x, 1) : ckks->rotate(x, 1));
            };
            break;
          case HeOpKind::kConjugate:
            fn = [&] {
                keep(bgv ? bgv->conjugate(x) : ckks->conjugate(x));
            };
            break;
          default: // kModSwitch
            fn = [&] {
                keep(bgv ? bgv->modSwitch(x) : ckks->rescale(x));
            };
            break;
        }
        SpanRecorder::Scope s(spans, std::string("fhe.") + kindName(kind),
                              root.id());
        return timed[key] = medianUs(fn, 3);
    };

    // Serial work of the program: each op costed at its own level.
    OpCosts costs;
    for (const HeOp &op : prog.ops())
        if (kindName(op.kind) != nullptr)
            costs[{op.kind, operandLevel(op)}] =
                cost(op.kind, operandLevel(op));

    // The fhe rows proper: each call at the workload's (N, L).
    const HeaxModel heax;
    const std::pair<HeOpKind, double> calls[] = {
        {HeOpKind::kAdd, -1},
        {HeOpKind::kMulPlain, -1},
        {HeOpKind::kMul, heax.homomorphicMulNs(n, level) / 1000.0},
        {HeOpKind::kRotate, heax.homomorphicPermNs(n, level) / 1000.0},
        {HeOpKind::kModSwitch, -1}};
    for (const auto &[kind, heaxUs] : calls) {
        const std::string metric =
            std::string("fhe.") + kindName(kind) + "_us";
        const double us = cost(kind, level);
        out[metric] = {us, "us"};
        rows.push_back({metric, us, modelUs(kind, n, level, aux), heaxUs});
    }
    const Ciphertext &a = at(level).first;
    auto fheCall = [&](const char *name, const std::function<void()> &fn) {
        SpanRecorder::Scope s(spans, std::string("fhe.") + name,
                              root.id());
        const double us = medianUs(fn, 3);
        const std::string metric = std::string("fhe.") + name + "_us";
        out[metric] = {us, "us"};
        rows.push_back({metric, us, -1, -1});
    };
    fheCall("encrypt", [&] { keep(encrypt()); });
    fheCall("decrypt", [&] {
        if (bgv)
            bgv->decryptSlots(a);
        else
            ckks->decrypt(a);
    });
    const KeySwitchHint &relin =
        bgv ? bgv->relinHint(level) : ckks->relinHint(level);
    const KeySwitcher switcher(&ctx);
    fheCall("keyswitch",
            [&] { switcher.apply(a.polys[1], relin, errorScale); });

    if (aux > 0) {
        std::vector<size_t> src(level), dst(aux);
        std::iota(src.begin(), src.end(), 0);
        std::iota(dst.begin(), dst.end(), level);
        const BasisExtender ext(pc, src, dst);
        const std::vector<uint32_t> in(
            a.polys[0].raw().begin(),
            a.polys[0].raw().begin() + size_t(level) * n);
        std::vector<uint32_t> res(size_t(aux) * n);
        fheCall("basis_extend", [&] { ext.extend(in, n, res); });
    }

    {
        // First use of a relinearization and a rotation hint, on fresh
        // schemes over the same context (key generation untimed).
        SpanRecorder::Scope s(spans, "fhe.hint_gen", root.id());
        std::vector<double> ms;
        for (uint64_t i = 0; i < 3; ++i) {
            std::optional<BgvScheme> fb;
            std::optional<CkksScheme> fc;
            if (bgv)
                fb.emplace(&ctx, 0, variant, 100 + i);
            else
                fc.emplace(&ctx, variant, 100 + i);
            const double t0 = steadyNowMs();
            if (fb) {
                fb->relinHint(level);
                fb->galoisHint(g1, level);
            } else {
                fc->relinHint(level);
                fc->galoisHint(g1, level);
            }
            ms.push_back(steadyNowMs() - t0);
        }
        out["fhe.hint_gen_ms"] = {median(ms), "ms"};
    }

    // --- poly
    {
        const NttTables &tables = pc->tables(0);
        std::vector<uint32_t> limb(a.polys[0].raw().begin(),
                                   a.polys[0].raw().begin() + n);
        SpanRecorder::Scope s(spans, "poly.sweep", root.id());
        const double fwd = medianUs([&] { tables.forward(limb); });
        const double inv = medianUs([&] { tables.inverse(limb); });
        RnsPoly p = RnsPoly::uniform(pc, level, rng, Domain::kCoeff);
        const double toNtt = medianUs([&] {
            p.setDomain(Domain::kCoeff);
            p.toNtt();
        });
        const double aut = medianUs([&] { a.polys[0].automorphism(g1); });
        out["poly.ntt_fwd_us"] = {fwd, "us"};
        out["poly.ntt_inv_us"] = {inv, "us"};
        out["poly.to_ntt_us"] = {toNtt, "us"};
        out["poly.automorphism_us"] = {aut, "us"};
        rows.push_back({"poly.ntt_fwd_us", fwd, -1, heax.nttNs(n) / 1000});
        rows.push_back({"poly.ntt_inv_us", inv, -1, heax.nttNs(n) / 1000});
        rows.push_back({"poly.to_ntt_us", toNtt, -1,
                        level * heax.nttNs(n) / 1000});
        rows.push_back({"poly.automorphism_us", aut, -1,
                        level * heax.autNs(n) / 1000});
    }

    // --- modular
    {
        const uint32_t q = pc->modulus(0);
        std::vector<uint32_t> x(n), w(n), pre(n), y(n);
        for (uint32_t i = 0; i < n; ++i) {
            x[i] = static_cast<uint32_t>(rng.uniform(q));
            w[i] = static_cast<uint32_t>(rng.uniform(q));
            pre[i] = shoupPrecompute(w[i], q);
        }
        SpanRecorder::Scope s(spans, "modular.sweep", root.id());
        const double limbUs = medianUs([&] {
            for (uint32_t i = 0; i < n; ++i)
                y[i] = mulModShoup(x[i], w[i], pre[i], q);
            x.swap(y);
        });
        out["modular.mulmod_ns"] = {limbUs * 1000.0 / n, "ns"};
    }

    // --- common.parallel: the pool itself, so leave the inline scope.
    inlineScope.reset();
    {
        SpanRecorder::Scope s(spans, "common.parallel.sweep", root.id());
        const double us = medianUs(
            [&] { parallelFor(0, level, [](size_t) {}); }, 200, 100);
        out["common.parallel.dispatch_us"] = {us, "us"};
    }

    printModelTable(rows, n, level,
                    variant == KeySwitchVariant::kGhsExtension ? "GHS"
                                                               : "digit");
    return costs;
}

void
sweepCompiler(const Program &prog, SpanRecorder &spans, Metrics &out)
{
    SpanRecorder::Scope root(spans, "bench.compiler_sweep");
    const F1Config cfg;
    std::optional<TranslationResult> tr;
    std::optional<MemScheduleResult> mem;
    std::optional<ScheduleResult> sched;
    auto phase = [&](const char *name, const std::function<void()> &fn) {
        SpanRecorder::Scope s(spans, std::string("compiler.") + name,
                              root.id());
        out[std::string("compiler.") + name + "_ms"] = {
            medianUs(fn, 3, 300, 200) / 1000.0, "ms"};
    };
    phase("translate", [&] { tr = translateProgram(prog); });
    phase("memsched", [&] { mem = scheduleMemory(tr->dfg, cfg); });
    phase("cyclesched",
          [&] { sched = scheduleCycles(tr->dfg, *mem, cfg); });
    phase("hints",
          [&] { deriveScheduleHints(prog, *tr, *mem, *sched); });

    const double cycles = static_cast<double>(sched->cycles);
    out["compiler.instrs"] = {double(tr->dfg.instrs.size()), "count"};
    out["compiler.traffic_mb"] = {double(sched->traffic.total()) / 1e6,
                                  "MB"};
    out["compiler.hbm_busy_share"] = {
        double(sched->hbmBusyCycles) / cycles, "fraction"};
    const std::pair<const char *, FuType> fus[] = {
        {"ntt", FuType::kNtt},
        {"mul", FuType::kMul},
        {"add", FuType::kAdd},
        {"aut", FuType::kAut}};
    for (const auto &[name, fu] : fus) {
        const double units =
            double(cfg.clusters) * double(cfg.fuCount(fu));
        out[std::string("compiler.fu_busy_share.") + name] = {
            double(sched->fuBusyCycles[size_t(fu)]) / (cycles * units),
            "fraction"};
    }
}

double
opSumMs(const Program &prog, const OpCosts &costs)
{
    double us = 0;
    for (const HeOp &op : prog.ops()) {
        auto it = costs.find({op.kind, operandLevel(op)});
        if (it != costs.end())
            us += it->second;
    }
    return us / 1000.0;
}

} // namespace f1::perfbench
