#include "core/pipeline.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bir/transform.hh"
#include "core/expdb.hh"
#include "cover/scheduler.hh"
#include "rel/relation.hh"
#include "smt/sampler.hh"
#include "smt/solver.hh"
#include "support/env.hh"
#include "support/faults.hh"
#include "support/logging.hh"
#include "support/metrics.hh"
#include "support/qcache/cached_solve.hh"
#include "support/qcache/qcache.hh"
#include "support/stopwatch.hh"
#include "support/thread_pool.hh"
#include "triage/minimize.hh"
#include "triage/screen.hh"

namespace scamv::core {

using expr::Expr;
using expr::ExprContext;

static bool
isSpeculative(obs::ModelKind k)
{
    return k == obs::ModelKind::Mspec || k == obs::ModelKind::Mspec1 ||
           k == obs::ModelKind::MspecPage;
}

bool
needsSpecInstrumentation(const PipelineConfig &cfg)
{
    return isSpeculative(cfg.model) ||
           (cfg.refinement && isSpeculative(*cfg.refinement));
}

double
scaleFromEnv(double fallback)
{
    const auto v = envDouble("SCAMV_SCALE");
    return v && *v > 0.0 ? *v : fallback;
}

int
scaled(int n, double scale)
{
    const int v = static_cast<int>(std::lround(n * scale));
    return v < 1 ? 1 : v;
}

std::uint64_t
deriveProgramSeed(std::uint64_t seed, int prog_i)
{
    // splitmix64 finalizer over (seed, prog_i); +1 keeps program 0
    // from collapsing onto the raw campaign seed.
    std::uint64_t x =
        seed + 0x9e3779b97f4a7c15ULL *
                   (static_cast<std::uint64_t>(prog_i) + 1);
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

Pipeline::Pipeline(const PipelineConfig &config) : cfg(config) {}

/** Register variables of both states, for model blocking. */
static std::vector<Expr>
blockingVars(ExprContext &ctx, const bir::Program &program)
{
    std::vector<Expr> vars;
    for (bir::Reg r : program.usedRegs()) {
        vars.push_back(ctx.bvVar("x" + std::to_string(r) + "_1"));
        vars.push_back(ctx.bvVar("x" + std::to_string(r) + "_2"));
    }
    return vars;
}

void
symmetrizeModel(Expr formula, const bir::Program &program,
                expr::Assignment &model, Rng &rng, double bias)
{
    auto try_merge = [&](auto mutate) {
        if (!rng.chance(bias))
            return;
        expr::Assignment candidate = model;
        mutate(candidate);
        if (expr::evalBool(formula, candidate))
            model = std::move(candidate);
    };

    // Wholesale merge first: s2 := s1.  Relations without refinement
    // are reflexive, so this almost always succeeds for the unguided
    // baseline; refinement disequalities reject it, and the per-
    // component passes below then remove only incidental asymmetry.
    try_merge([&](expr::Assignment &c) {
        for (bir::Reg r : program.usedRegs())
            c.bvVars["x" + std::to_string(r) + "_2"] =
                c.bv("x" + std::to_string(r) + "_1");
        if (auto m1 = c.mems.find("mem_1"); m1 != c.mems.end()) {
            auto cells = m1->second.entries();
            for (const auto &[addr, val] : cells)
                c.mems["mem_2"].storeWord(addr, val);
        }
    });

    for (bir::Reg r : program.usedRegs()) {
        const std::string v1 = "x" + std::to_string(r) + "_1";
        const std::string v2 = "x" + std::to_string(r) + "_2";
        if (model.bv(v1) == model.bv(v2))
            continue;
        try_merge([&](expr::Assignment &c) {
            c.bvVars[v2] = c.bv(v1);
        });
    }

    std::vector<std::pair<std::uint64_t, std::uint64_t>> mem1_cells;
    if (auto m1 = model.mems.find("mem_1"); m1 != model.mems.end())
        for (const auto &[addr, val] : m1->second.entries())
            mem1_cells.emplace_back(addr, val);
    for (const auto &[a, v] : mem1_cells) {
        auto m2 = model.mems.find("mem_2");
        if (m2 != model.mems.end() && m2->second.contains(a) &&
            m2->second.load(a) == v)
            continue;
        try_merge([&](expr::Assignment &c) {
            c.mems["mem_2"].storeWord(a, v);
        });
    }
}

namespace {

/**
 * One recorded mutation of a pair's live incremental solver (oneshot
 * solver mode).  What gets recorded follows what actually mutated the
 * solver: genuine solves (including budget exhaustions — they leave
 * learned clauses behind) are recorded in full; an injected
 * SmtUnknown returns before touching solver state and is not
 * recorded; an injected SatTimeout inside solveWith is recorded as
 * Prepare — the temporary was already blasted into the solver when
 * the search was cut short; see the delta gating at the recording
 * sites.
 */
struct SolverOp {
    enum class Kind { Solve, SolveWith, Prepare, Block };
    Kind kind = Kind::Solve;
    Expr temporary = nullptr; ///< SolveWith coverage constraint
    std::int64_t budget = 0;  ///< conflict budget of the call
};

/**
 * Rebuild a pair's discarded solver by replaying its recorded op log
 * (oneshot solver mode).  The replay is invisible: the CDCL work was
 * already charged to the task registry when first performed, so
 * metrics go to a discarded scratch registry, and fault decisions are
 * suppressed (the original, counted attempt already made them) —
 * mirroring qcache::CachedEnumerator::ensureSolverAt.  Deterministic
 * CDCL makes the rebuilt state exact, which is what keeps oneshot
 * campaigns byte-identical to incremental ones.
 */
void
replaySolverOps(qcache::CachedEnumerator &en,
                const std::vector<SolverOp> &ops,
                const std::vector<Expr> &block_vars, int block_bits)
{
    metrics::Registry mute(metrics::ClockMode::Wall);
    metrics::ScopedRegistry scope(mute);
    faults::ScopedSuppress suppress;
    smt::SmtSolver &solver = en.solver();
    for (const SolverOp &op : ops) {
        switch (op.kind) {
          case SolverOp::Kind::Solve:
            solver.solveNoInject(op.budget);
            break;
          case SolverOp::Kind::SolveWith:
            // solveWith's SmtUnknown gate is a no-op under
            // suppression (no injector installed, no attempt counter
            // consumed).
            solver.solveWith(op.temporary, op.budget);
            break;
          case SolverOp::Kind::Prepare:
            solver.prepareTemporary(op.temporary);
            break;
          case SolverOp::Kind::Block:
            solver.blockCurrentModel(block_vars, block_bits);
            break;
        }
    }
}

/**
 * Record one bounded backoff step before a stage retry.  The delay
 * doubles per attempt (1 ms base, capped at ~1 s); it is always
 * recorded in `retry.backoff_seconds`, but only slept on the wall
 * clock — under the deterministic clock a retried campaign stays a
 * pure function of the call sequence, hence byte-identical across
 * thread counts.
 */
void
retryBackoff(metrics::Registry &reg, const char *stage, int attempt)
{
    reg.counter("retry.attempts").inc();
    reg.counter(std::string("retry.attempts.") + stage).inc();
    const double delay =
        0.001 * static_cast<double>(1ULL << std::min(attempt, 10));
    reg.gauge("retry.backoff_seconds").add(delay);
    if (reg.clockMode() == metrics::ClockMode::Wall)
        std::this_thread::sleep_for(
            std::chrono::duration<double>(delay));
}

/**
 * Delta-gated stage retry, shared by the smt, hw_run and db_write
 * sites: call `attempt(i)` for i = 0, 1, ... until it reports
 * success, runs clean (no injected fault fired during it) or
 * `retry_max` extra attempts are spent, with a retryBackoff step
 * before each retry.  Only an attempt polluted by an injected fault
 * is re-run, so a genuine failure keeps its fault-free behaviour.
 * @return whether the last attempt was polluted.
 */
template <typename Attempt>
bool
retryPolluted(metrics::Registry &reg, const char *stage, int retry_max,
              Attempt &&attempt)
{
    for (int i = 0;; ++i) {
        const std::uint64_t before = faults::injectedCount();
        const bool done = attempt(i);
        const bool polluted = faults::injectedCount() != before;
        if (done || !polluted || i >= retry_max)
            return polluted;
        retryBackoff(reg, stage, i);
    }
}

metrics::ClockMode
clockModeFor(const PipelineConfig &cfg)
{
    return cfg.deterministicMetricsTiming
               ? metrics::ClockMode::Deterministic
               : metrics::ClockMode::Wall;
}

/**
 * Everything the campaign stages of one program task share.  The
 * constructor seeds the task's generator, platform and rng from
 * deriveProgramSeed(cfg.seed, prog_i); the stages fill the remaining
 * fields in stage order.
 */
struct TaskState {
    TaskState(const PipelineConfig &c, const ProgramTask &tk,
              metrics::Registry &r, ProgramOutcome &o, double t0,
              const Stopwatch &w)
        : cfg(c), task(tk), reg(r), out(o), taskT0(t0), watch(w),
          progSeed(deriveProgramSeed(c.seed, tk.prog_i)),
          retryMax(resolveRetryMax(c.retryMax)),
          generator(tk.templ, progSeed,
                    {.lineBytes = c.modelParams.geom.lineBytes}),
          platform(c.platform, progSeed ^ 0x90153ULL),
          rng(progSeed ^ 0xc0ffeeULL)
    {
        generator.setCounter(tk.prog_i);
        if (tk.corpusIndex >= 0 && c.corpus &&
            tk.corpusIndex < static_cast<int>(c.corpus->size()))
            corpus = &(*c.corpus)[static_cast<std::size_t>(
                tk.corpusIndex)];
        // Coverage accounting is opt-in per task: the Uniform
        // schedule without a ledger never touches the delta (or the
        // extra clock reads of stageSolve), keeping untracked
        // campaigns byte-identical to the pre-cover pipeline.
        if (tk.collectCover) {
            delta.templ = corpus ? "corpus:" + corpus->name
                                 : gen::templateName(tk.templ);
            delta.model = obs::modelName(c.model);
            if (c.coverage == Coverage::PcAndLine)
                delta.universe = c.modelParams.geom.numSets;
        }
    }

    const PipelineConfig &cfg;
    const ProgramTask &task;
    metrics::Registry &reg;
    ProgramOutcome &out;
    cover::ProgramDelta &delta = out.coverDelta;
    const double taskT0;   ///< registry clock at task start
    const Stopwatch &watch; ///< wall clock since task start
    const std::uint64_t progSeed;
    const int retryMax;
    gen::ProgramGenerator generator;
    harness::Platform platform;
    Rng rng;
    ExprContext ctx;
    /** Pre-compiled SC kernel replacing the generator draw (corpus
     *  workloads, see PipelineConfig::corpus), or nullptr. */
    const front::CompiledProgram *corpus = nullptr;

    bir::Program program, modelProg;
    std::unique_ptr<sym::Annotator> annotator;
    /** Classes the screen proved reachable (empty: not screened). */
    std::vector<bool> screenMask;
    std::vector<sym::PathResult> paths1, paths2, trainingPaths;
    rel::RelationConfig relCfg;
    std::optional<rel::RelationSynthesizer> relation;

    // Per-pair enumeration state, sized when the tests start.
    bool oneshot = false;
    bool useEnumCache = false;
    std::vector<Expr> blockVars;
    /** Relation formulas, synthesized lazily (formulaFor). */
    std::vector<Expr> formulas;
    /** One (possibly cache-backed) incremental enumerator per pair. */
    std::vector<std::unique_ptr<qcache::CachedEnumerator>> enums;
    /** Exhausted pairs: model blocking ran dry or the relation went
     *  Unsat/Unknown. */
    std::vector<bool> dead;
    /** Oneshot mode: per-pair op log, replayed onto a fresh solver at
     *  every test (see replaySolverOps). */
    std::vector<std::vector<SolverOp>> oplogs;
    /** Training inputs, cached per s1-path index. */
    std::unordered_map<int, std::optional<harness::ProgramInput>>
        trainingCache;
    std::size_t rr = 0;    ///< round-robin cursor over path pairs
    int faultFailures = 0; ///< consecutive injected-fault failures
    int planDraw = 0;      ///< monotone cursor into the class plan
};

/** One test iteration: the chosen pair and what the stages derive. */
struct TestState {
    std::size_t pairIdx = 0;
    const rel::PathPair *pair = nullptr;
    Expr formula = nullptr;
    std::optional<expr::Assignment> model;
    int lineCls1 = -1, lineCls2 = -1;
    harness::TestCase tc;
    std::optional<harness::ProgramInput> training;
    harness::ExperimentResult result;
};

/** Freeze the task's registry into the outcome.  Called on every
 *  exit path, so even pair-less programs contribute a snapshot. */
void
finishTask(TaskState &t)
{
    if (t.out.hasCex)
        t.reg.counter("pipeline.programs_with_cex").inc();
    // One now() call feeds both the gauge and the per-program latency
    // histogram (p50/p99 in exports), keeping the deterministic-clock
    // tick count unchanged.
    const double task_elapsed = t.reg.now() - t.taskT0;
    t.reg.gauge("pipeline.task_seconds").add(task_elapsed);
    t.reg.histogram("pipeline.program_seconds").observe(task_elapsed);
    t.out.metrics = t.reg.snapshot();
    t.out.taskSeconds = t.watch.seconds();
}

/** Stage generate: draw the program (or load the corpus kernel) and
 *  build the observation annotator (Sections 4.2.2, 5.1). */
void
stageGenerate(TaskState &t, bool instrument)
{
    const PipelineConfig &cfg = t.cfg;
    metrics::PhaseTimer phase(t.reg, "generate");
    if (t.corpus) {
        t.program = t.corpus->program;
        t.program.setName(t.corpus->name + "#" +
                          std::to_string(t.task.prog_i));
    } else {
        t.program = t.generator.next();
    }
    t.out.name = t.program.name();
    t.modelProg = t.program;
    if (instrument) {
        if (cfg.rewriteJumps)
            t.modelProg = bir::rewriteJumpsToCondBranches(t.modelProg);
        t.modelProg = bir::instrumentSpeculation(t.modelProg);
    }
    if (cfg.refinement) {
        t.annotator = std::make_unique<obs::RefinementPair>(
            obs::makeModel(cfg.model, cfg.modelParams),
            obs::makeModel(*cfg.refinement, cfg.modelParams));
    } else {
        t.annotator = obs::makeModel(cfg.model, cfg.modelParams);
    }
}

/**
 * Stage screen: the triage pre-screen (src/triage/screen.hh).  It runs
 * before any rng, solver or platform use and is a pure function of
 * the instrumented program, so a screened-out program leaves the
 * task's rng streams untouched and the surviving programs replay
 * byte-identically with the screen on or off.  The class mask of a
 * surviving program lets the adaptive coverage draw skip classes the
 * program provably cannot touch.  A screened-out program is frozen
 * while the phase is still open, so its snapshot carries no
 * triage_screen observation.
 * @return false when the program was screened out (and finished).
 */
bool
stageScreen(TaskState &t)
{
    const PipelineConfig &cfg = t.cfg;
    if (cfg.triageScreen <= 0 || !cfg.refinement)
        return true;
    metrics::PhaseTimer phase(t.reg, "triage_screen");
    triage::ScreenResult screen = triage::screenProgram(
        t.modelProg, cfg.model, *cfg.refinement, cfg.modelParams);
    if (screen.verdict == triage::ScreenVerdict::Boring) {
        t.reg.counter("triage.screened").inc();
        t.reg.counter("triage.screened." + screen.reason).inc();
        finishTask(t);
        return false;
    }
    t.screenMask = std::move(screen.classMask);
    return true;
}

/** Stage symexec: execute the instrumented program for s1 and s2. */
void
stageSymexec(TaskState &t)
{
    metrics::PhaseTimer phase(t.reg, "symbolic_exec");
    t.paths1 = sym::execute(t.ctx, t.modelProg, *t.annotator, {"_1"});
    t.paths2 = sym::execute(t.ctx, t.modelProg, *t.annotator, {"_2"});
}

/** Stage relations: pair the s1/s2 paths (Section 5.4). */
void
stageRelations(TaskState &t)
{
    const PipelineConfig &cfg = t.cfg;
    t.relCfg.refine = cfg.refinement.has_value();
    t.relCfg.region = cfg.region;
    t.relCfg.geom = cfg.modelParams.geom;
    if (t.corpus) {
        // The kernel's declared security contract: public inputs are
        // pinned equal across s1/s2, secrets stay free to differ.
        t.relCfg.lowRegs = t.corpus->publicRegs;
        t.relCfg.lowMemAddrs = t.corpus->publicMemAddrs;
    }
    metrics::PhaseTimer phase(t.reg, "relation_synthesis");
    t.relation.emplace(t.ctx, std::move(t.paths1), std::move(t.paths2),
                       t.relCfg);
}

/** Stage training: the third symbolic execution (suffix "_t"), whose
 *  paths feed predictor-training inputs (Section 5.3). */
void
stageTrainingPaths(TaskState &t)
{
    if (!t.cfg.train)
        return;
    metrics::PhaseTimer phase(t.reg, "symbolic_exec");
    auto mpc = obs::makeModel(obs::ModelKind::Mpc);
    t.trainingPaths = sym::execute(t.ctx, t.modelProg, *mpc, {"_t"});
}

/** The pair's relation formula, synthesized once (under its own
 *  relation_synthesis timer) and reused by every later test. */
Expr
formulaFor(TaskState &t, std::size_t idx)
{
    if (!t.formulas[idx]) {
        metrics::PhaseTimer phase(t.reg, "relation_synthesis");
        t.formulas[idx] =
            t.relation->formulaFor(t.relation->pairs()[idx]);
    }
    return t.formulas[idx];
}

/** The training input for a pair's s1 path, cached per path. */
std::optional<harness::ProgramInput>
trainingInputFor(TaskState &t, const rel::PathPair &pair)
{
    if (!t.cfg.train)
        return std::nullopt;
    auto hit = t.trainingCache.find(pair.idx1);
    if (hit != t.trainingCache.end())
        return hit->second;
    std::optional<harness::ProgramInput> input;
    auto formula = rel::RelationSynthesizer::trainingFormula(
        t.ctx, t.trainingPaths, t.relation->paths1()[pair.idx1],
        t.relCfg);
    if (formula) {
        auto solved = qcache::solveOnce(t.ctx, *formula,
                                        t.cfg.conflictBudget,
                                        t.cfg.queryCache);
        if (solved.outcome == smt::Outcome::Sat)
            input = harness::inputFromAssignment(*solved.model, "_t");
    }
    t.trainingCache.emplace(pair.idx1, input);
    return input;
}

/**
 * One Mline coverage draw: least-covered-first from the round plan
 * when the adaptive scheduler supplied one, the classic random draw
 * otherwise (same rng sequence as ever).  Records the drawn classes
 * in the test.
 */
std::optional<rel::LineCoverageDraw>
drawLineCoverage(TaskState &t, TestState &test)
{
    const ProgramTask &task = t.task;
    std::optional<rel::LineCoverageDraw> cov;
    if (task.plan && !task.plan->classOrder.empty()) {
        int cls;
        if (t.screenMask.empty()) {
            cls = cover::planClass(*task.plan, task.slot, t.planDraw++,
                                   task.stride);
        } else {
            // Screened class gating: classes outside the program's
            // abstract reach don't consume draws.
            std::int64_t skipped = 0;
            cls = cover::planClassAllowed(*task.plan, task.slot,
                                          t.planDraw, task.stride,
                                          t.screenMask, &skipped);
            if (skipped)
                t.reg.counter("triage.skipped_draws").add(skipped);
        }
        cov = t.relation->lineCoverageConstraintFor(*test.pair, cls,
                                                    cls);
    } else {
        cov = t.relation->lineCoverageConstraint(*test.pair, t.rng);
    }
    if (cov) {
        test.lineCls1 = cov->class1;
        test.lineCls2 = cov->class2;
        if (task.collectCover) {
            t.delta.countDraw(cov->class1);
            if (cov->class2 != cov->class1)
                t.delta.countDraw(cov->class2);
        }
    }
    return cov;
}

/**
 * Sampler strategy: one repair-sampler draw, with the complete solver
 * as fallback.  @return true when the pair should retire (the
 * fallback found no model).
 */
bool
solveSampled(TaskState &t, TestState &test, std::int64_t budget)
{
    const PipelineConfig &cfg = t.cfg;
    Expr f = test.formula;
    if (cfg.coverage == Coverage::PcAndLine) {
        if (auto cov = drawLineCoverage(t, test))
            f = t.ctx.land(f, cov->constraint);
    }
    smt::SamplerConfig sampler_cfg;
    sampler_cfg.regionBase = cfg.region.base;
    sampler_cfg.regionLimit = cfg.region.limit();
    smt::RepairSampler sampler(t.ctx, f, t.rng, sampler_cfg);
    test.model = sampler.sample();
    if (test.model)
        return false;
    auto solved = qcache::solveOnce(t.ctx, f, budget, cfg.queryCache);
    if (solved.outcome != smt::Outcome::Sat)
        return true;
    test.model = std::move(solved.model);
    return false;
}

/**
 * Canonical and RandomPhases strategies: one enumeration step on the
 * pair's incremental solver (rebuilt from its op log first in oneshot
 * mode).  @return true when the pair should retire.
 */
bool
solveEnumerated(TaskState &t, TestState &test, int attempt,
                std::int64_t budget)
{
    const PipelineConfig &cfg = t.cfg;
    auto &en = t.enums[test.pairIdx];
    if (!en) {
        // Blocking variables are fixed at construction on the cached
        // path (they parameterize the cache's enumeration chain); the
        // uncached path passes them at blocking time, as it always
        // did.
        en = std::make_unique<qcache::CachedEnumerator>(
            t.ctx, test.formula,
            t.useEnumCache ? t.blockVars : std::vector<Expr>{},
            cfg.blockingBits, t.useEnumCache ? cfg.queryCache : nullptr);
    }
    if (cfg.strategy == SolveStrategy::RandomPhases)
        en->solver().randomizePhases(t.rng);

    // Oneshot mode: every test solves on a freshly built solver.  The
    // uncached paths (which drive the raw solver below) rebuild it
    // from this pair's op log; the cached path rebuilds lazily from
    // the cache's own enumeration prefix on the next miss.
    std::vector<SolverOp> *oplog =
        t.oneshot && !en->usesCache() ? &t.oplogs[test.pairIdx]
                                      : nullptr;
    if (t.oneshot && attempt == 0) {
        en->discardSolver();
        if (oplog && !oplog->empty())
            replaySolverOps(*en, *oplog, t.blockVars, cfg.blockingBits);
    }

    smt::Outcome outcome = smt::Outcome::Unsat;
    if (cfg.coverage == Coverage::PcAndLine) {
        // Randomly drawn set-index classes often contradict the
        // relation (e.g. distinct classes pinned inside the attacker
        // region); redraw a few times before charging a generation
        // failure.
        for (int redraw = 0; redraw < cfg.coverageRetries &&
                             outcome != smt::Outcome::Sat;
             ++redraw) {
            auto cov = drawLineCoverage(t, test);
            const std::uint64_t solve_inj0 = faults::injectedCount();
            const std::uint64_t sat_inj0 =
                faults::injectedCountAt(faults::Site::SatTimeout);
            outcome = cov ? en->solver().solveWith(cov->constraint,
                                                   budget)
                          : en->solver().solve(budget);
            // Record for replay what mutated the solver: a clean call
            // in full (a genuine exhaustion leaves learned clauses
            // behind); an injected SmtUnknown not at all (it returns
            // before touching solver state); an injected SatTimeout
            // under a coverage constraint as a blast-only Prepare
            // (solveWith blasts the temporary before the SAT core
            // cuts the search short).
            if (oplog && faults::injectedCount() == solve_inj0) {
                oplog->push_back({cov ? SolverOp::Kind::SolveWith
                                      : SolverOp::Kind::Solve,
                                  cov ? cov->constraint : nullptr,
                                  budget});
            } else if (oplog && cov &&
                       faults::injectedCountAt(
                           faults::Site::SatTimeout) != sat_inj0) {
                oplog->push_back(
                    {SolverOp::Kind::Prepare, cov->constraint, 0});
            }
            if (!cov)
                break;
        }
    } else if (en->usesCache()) {
        // Cached enumeration step: solve + model + block in one
        // cacheable unit.
        auto step = en->next(budget);
        outcome = step.outcome;
        if (outcome == smt::Outcome::Sat) {
            test.model = std::move(step.model);
            if (en->dead())
                t.dead[test.pairIdx] = true;
        }
    } else {
        const std::uint64_t solve_inj0 = faults::injectedCount();
        outcome = en->solver().solve(budget);
        if (oplog && faults::injectedCount() == solve_inj0)
            oplog->push_back({SolverOp::Kind::Solve, nullptr, budget});
    }

    if (outcome == smt::Outcome::Sat) {
        if (!en->usesCache()) {
            test.model = en->solver().model();
            if (!en->solver().blockCurrentModel(t.blockVars,
                                                cfg.blockingBits))
                t.dead[test.pairIdx] = true;
            if (oplog)
                oplog->push_back({SolverOp::Kind::Block, nullptr, 0});
        }
        return false;
    }
    // Without per-test coverage constraints an Unsat relation stays
    // Unsat: retire the pair.
    return cfg.coverage != Coverage::PcAndLine ||
           outcome == smt::Outcome::Unknown;
}

/**
 * Stage solve: one model of the pair's relation, under the `smt`
 * phase and the smt retry site; each retry doubles the per-query
 * conflict budget.  The formula is synthesized before the phase opens
 * so nested relation_synthesis time is not charged twice.
 * @return whether a model was found.
 */
bool
stageSolve(TaskState &t, TestState &test)
{
    const PipelineConfig &cfg = t.cfg;
    test.formula = formulaFor(t, test.pairIdx);
    const double smt_t0 = t.task.collectCover ? t.reg.now() : 0.0;
    {
        metrics::PhaseTimer phase(t.reg, "smt");
        bool retire_pair = false;
        const bool polluted = retryPolluted(
            t.reg, "smt", t.retryMax, [&](int attempt) {
                const std::int64_t budget =
                    cfg.conflictBudget << std::min(attempt, 8);
                retire_pair =
                    cfg.strategy == SolveStrategy::Sampler
                        ? solveSampled(t, test, budget)
                        : solveEnumerated(t, test, attempt, budget);
                return test.model.has_value();
            });
        // A polluted failure is not attributable to the pair.
        if (!test.model && retire_pair && !polluted)
            t.dead[test.pairIdx] = true;
        if (test.model && cfg.strategy == SolveStrategy::Canonical)
            symmetrizeModel(test.formula, t.program, *test.model, t.rng,
                            cfg.similarityBias);
    }
    if (t.task.collectCover) {
        // Per-atom cost: the whole solve (including redraws) is
        // charged to the test's final s1 class.  Deterministic under
        // the deterministic registry clock.
        t.delta.chargeSolver(test.lineCls1, t.reg.now() - smt_t0);
    }
    return test.model.has_value();
}

/**
 * Stage measure: run the test pair (after its training input) on the
 * platform, under the `hw_run` phase and the hw_run retry site — a
 * run polluted by injected measurement faults is repeated in the hope
 * of a clean repetition set.
 */
void
stageMeasure(TaskState &t, TestState &test)
{
    test.tc.s1 = harness::inputFromAssignment(*test.model, "_1");
    test.tc.s2 = harness::inputFromAssignment(*test.model, "_2");
    test.training = trainingInputFor(t, *test.pair);
    {
        metrics::PhaseTimer phase(t.reg, "hw_run");
        retryPolluted(t.reg, "hw_run", t.retryMax, [&](int) {
            test.result = t.platform.runExperiment(t.program, test.tc,
                                                   test.training);
            return false;
        });
    }
    t.reg.counter("pipeline.experiments").inc();
    if (t.task.collectCover) {
        ++t.delta.verdicts.experiments;
        t.delta.countHit(test.lineCls1);
        if (test.lineCls2 != test.lineCls1)
            t.delta.countHit(test.lineCls2);
        ++t.delta.pathPairs[t.relation->paths1()[test.pair->idx1]
                                .pathId() +
                            "|" +
                            t.relation->paths2()[test.pair->idx2]
                                .pathId()];
    }
    if (test.result.flakedReps > 0) {
        // Accepted, but on flaky measurements: the verdict has
        // already been degraded to at most Inconclusive by the
        // platform (unless every clean repetition differed).
        t.reg.counter("pipeline.degraded").inc();
    }
}

/**
 * A counterexample as a triage finding: minimized (under the
 * `triage_minimize` phase) when SCAMV_MINIMIZE is on, then classified
 * by mechanism and shape.
 */
triage::Finding
makeFinding(TaskState &t, const TestState &test)
{
    const PipelineConfig &cfg = t.cfg;
    triage::Finding f;
    f.progIndex = t.task.prog_i;
    f.program = t.program.name();
    f.instrsBefore = static_cast<int>(t.program.size());
    f.instrsAfter = f.instrsBefore;
    f.stateBitsBefore = triage::stateBitCount(test.tc);
    f.stateBitsAfter = f.stateBitsBefore;
    bir::Program core_prog = t.program;
    harness::TestCase core_tc = test.tc;
    if (cfg.triageMinimize > 0) {
        // One fault decision per finding, taken *before* shrinking
        // (the minimizer itself runs under ScopedSuppress): a flaked
        // minimizer keeps the unminimized witness — degraded, never
        // lost.
        if (faults::maybeInject(faults::Site::TriageMinimizeFlake)) {
            f.degraded = true;
            t.reg.counter("triage.degraded").inc();
        } else {
            metrics::PhaseTimer phase(t.reg, "triage_minimize");
            triage::MinimizeConfig mcfg;
            mcfg.platform = cfg.platform;
            mcfg.seed = t.progSeed;
            mcfg.training = test.training;
            auto min =
                triage::minimizeCounterexample(t.program, test.tc, mcfg);
            if (min.evalsUsed <= 1) {
                // The evaluation platform could not reproduce the
                // leak (noise): keep the original witness.
                f.degraded = true;
                t.reg.counter("triage.degraded").inc();
            } else {
                core_prog = std::move(min.program);
                core_tc = std::move(min.tc);
                f.minimized = true;
                f.instrsAfter = static_cast<int>(core_prog.size());
                f.stateBitsAfter = triage::stateBitCount(core_tc);
                t.reg.counter("triage.minimized").inc();
            }
        }
    }
    f.mechanism = triage::classifyMechanism(
        core_prog, core_tc, test.training,
        cfg.refinement && isSpeculative(*cfg.refinement), cfg.platform,
        t.progSeed);
    f.signature = f.mechanism + "/" + triage::shapeSignature(core_prog);
    f.core = core_prog.toString();
    f.tc = std::move(core_tc);
    return f;
}

/**
 * Stage classify: log the experiment and tally its verdict; with
 * minimization or the findings export on, a counterexample also
 * becomes a triage finding.
 */
void
stageClassify(TaskState &t, const TestState &test)
{
    const PipelineConfig &cfg = t.cfg;
    const bool cover = t.task.collectCover;
    if (cfg.database)
        t.out.records.push_back(
            {t.program.name(), t.program.toString(),
             t.relation->paths1()[test.pair->idx1].pathId(), test.tc,
             test.training.has_value(), test.lineCls1, test.lineCls2,
             test.result.verdict, test.result.differingReps,
             test.result.totalReps});

    switch (test.result.verdict) {
      case harness::Verdict::Counterexample:
        t.reg.counter("pipeline.counterexamples").inc();
        t.out.hasCex = true;
        if (t.out.firstCexOffsetSeconds < 0)
            t.out.firstCexOffsetSeconds = t.watch.seconds();
        if (cover)
            ++t.delta.verdicts.counterexamples;
        if (cfg.triageMinimize > 0 || cfg.findingsFile)
            t.out.findings.push_back(makeFinding(t, test));
        break;
      case harness::Verdict::Inconclusive:
        t.reg.counter("pipeline.inconclusive").inc();
        if (cover)
            ++t.delta.verdicts.inconclusive;
        break;
      case harness::Verdict::Indistinguishable:
        if (cover)
            ++t.delta.verdicts.indistinguishable;
        break;
    }
}

/**
 * The per-test stages: walk the live path pairs round-robin and run
 * solve → measure → classify per test, until the test budget is
 * spent, every pair is exhausted or the program is quarantined.
 */
void
runTests(TaskState &t)
{
    const PipelineConfig &cfg = t.cfg;
    const auto &pairs = t.relation->pairs();
    if (pairs.empty())
        return;

    // Query cache: the enumerated (Canonical/Pc) path threads every
    // solve through it; other strategies keep their incremental
    // solver access but still cache the one-shot fallback/training
    // queries.  Without a cache every wrapper degrades to the exact
    // pre-cache call sequence.
    t.useEnumCache = cfg.queryCache &&
                     cfg.strategy == SolveStrategy::Canonical &&
                     cfg.coverage == Coverage::Pc;
    // Solver modes reshape *how* the Canonical strategy reaches each
    // model — fresh solver plus op-log replay (oneshot) or one live
    // solver (incremental) — never *which* model, so every campaign
    // artifact is byte-identical across modes (ctest-enforced).
    // Other strategies always take the incremental path: RandomPhases
    // draws phases from the task rng (a replay would consume extra
    // draws) and Sampler has its own search loop.
    t.oneshot = cfg.strategy == SolveStrategy::Canonical &&
                cfg.solverMode == smt::SolverMode::Oneshot;
    // Model-blocking variables: a pure function of the program's used
    // registers (every register variable already exists in ctx after
    // symbolic execution).
    t.blockVars = blockingVars(t.ctx, t.program);
    t.formulas.assign(pairs.size(), nullptr);
    t.enums.resize(pairs.size());
    t.dead.assign(pairs.size(), false);
    if (t.oneshot)
        t.oplogs.resize(pairs.size());

    for (int test_i = 0; test_i < cfg.testsPerProgram; ++test_i) {
        const std::uint64_t test_faults0 = faults::injectedCount();
        // Advance to the next live pair.
        std::size_t probe = 0;
        while (probe < pairs.size() && t.dead[t.rr % pairs.size()]) {
            ++t.rr;
            ++probe;
        }
        if (probe == pairs.size())
            break; // all relations exhausted
        TestState test;
        test.pairIdx = t.rr++ % pairs.size();
        test.pair = &pairs[test.pairIdx];

        if (!stageSolve(t, test)) {
            t.reg.counter("pipeline.generation_failures").inc();
            if (faults::injectedCount() == test_faults0) {
                t.faultFailures = 0;
                continue;
            }
            // The test failed because of injected faults, not on its
            // own merits.  A program that keeps losing tests this way
            // is quarantined: its remaining tests are abandoned and
            // it is listed in the campaign report instead of stalling
            // the run.
            if (++t.faultFailures >= cfg.quarantineAfter) {
                t.out.quarantined = true;
                t.reg.counter("pipeline.quarantined").inc();
                t.reg.counter("pipeline.degraded").inc();
                break;
            }
            continue;
        }
        t.faultFailures = 0;
        stageMeasure(t, test);
        stageClassify(t, test);
    }
}

/**
 * Run the whole experiment campaign of one program as the stage list
 * generate → screen → symexec → relations → training, then the
 * per-test stages (runTests).  Pure function of (cfg, task): every
 * stochastic component is seeded from deriveProgramSeed(cfg.seed,
 * task.prog_i), and nothing outside the returned ProgramOutcome is
 * written.
 */
ProgramOutcome
runOneProgram(const PipelineConfig &cfg, bool instrument,
              const ProgramTask &task)
{
    ProgramOutcome out;
    Stopwatch task_watch;

    // Every metric of this task accumulates in a private registry:
    // the instrumented layers below (smt, sat, hw, harness) reach it
    // through metrics::current(), and Pipeline::run() merges the
    // snapshots in program-index order, keeping the campaign metrics
    // independent of task scheduling.
    metrics::Registry reg(clockModeFor(cfg));
    metrics::ScopedRegistry scoped_registry(reg);
    const double task_t0 = reg.now();
    reg.counter("pipeline.programs").inc();
    out.name = "program-" + std::to_string(task.prog_i);

    // Fault plan: install this task's injector (thread-local, like
    // the registry above).  Decisions are pure functions of
    // (cfg.seed, prog_i, site, attempt), so injected campaigns replay
    // byte-identically for any thread count.  With a disabled plan no
    // injector exists and every maybeInject() is a null test.
    faults::Injector injector(cfg.faultPlan, cfg.seed, task.prog_i);
    std::optional<faults::ScopedInjector> scoped_injector;
    if (cfg.faultPlan.enabled())
        scoped_injector.emplace(injector);
    // Injected task death: thrown before any work, caught by the
    // campaign guard (runOneProgramGuarded), which re-counts it.
    if (faults::maybeInject(faults::Site::TaskAbort))
        throw faults::InjectedTaskFault(task.prog_i);

    TaskState t(cfg, task, reg, out, task_t0, task_watch);
    stageGenerate(t, instrument);
    if (!stageScreen(t))
        return out; // screened out, already finished
    stageSymexec(t);
    stageRelations(t);
    stageTrainingPaths(t);
    runTests(t);
    finishTask(t);
    return out;
}

/**
 * Campaign guard around runOneProgram: a task that dies with an
 * exception (injected or genuine) must cost exactly one program, not
 * the campaign.  The failed program is counted in a fresh
 * deterministic registry — the task's own registry died with it — so
 * the merged campaign metrics still account for the program and, for
 * the injected case, for its fault.
 */
ProgramOutcome
runOneProgramGuarded(const PipelineConfig &cfg, bool instrument,
                     const ProgramTask &task)
{
    const int prog_i = task.prog_i;
    ProgramOutcome out;
    bool injected = false;
    try {
        return runOneProgram(cfg, instrument, task);
    } catch (const faults::InjectedTaskFault &e) {
        injected = true;
        warn(std::string("pipeline: ") + e.what());
    } catch (const std::exception &e) {
        warn("pipeline: program task " + std::to_string(prog_i) +
             " failed: " + e.what());
    } catch (...) {
        warn("pipeline: program task " + std::to_string(prog_i) +
             " failed with a non-standard exception");
    }
    out.failed = true;
    out.name = "program-" + std::to_string(prog_i);
    metrics::Registry reg(clockModeFor(cfg));
    reg.counter("pipeline.programs").inc();
    reg.counter("pipeline.program_failures").inc();
    reg.counter("pipeline.degraded").inc();
    if (injected) {
        reg.counter("faults.injected").inc();
        reg.counter(std::string("faults.injected.") +
                    faults::siteName(faults::Site::TaskAbort))
            .inc();
    }
    out.metrics = reg.snapshot();
    return out;
}

/** @return the worker count for a config (0 = auto). */
int
resolveThreads(int configured)
{
    if (configured > 0)
        return configured;
    return static_cast<int>(ThreadPool::defaultThreadCount());
}

/** @return snapshot counter value, or 0 when never touched. */
std::int64_t
counterOr0(const metrics::Snapshot &s, const std::string &name)
{
    auto it = s.counters.find(name);
    return it == s.counters.end()
               ? 0
               : static_cast<std::int64_t>(it->second);
}

/** @return total seconds recorded in a phase histogram, or 0. */
double
histogramSumOr0(const metrics::Snapshot &s, const std::string &name)
{
    auto it = s.histograms.find(name);
    return it == s.histograms.end() ? 0.0 : it->second.sum;
}

/** Resolve SCAMV_SCHEDULE ("uniform" | "adaptive"; unknown warns). */
Schedule
scheduleFromEnv()
{
    const char *v = std::getenv("SCAMV_SCHEDULE");
    if (!v || !*v)
        return Schedule::Uniform;
    const std::string_view s(v);
    if (s == "adaptive")
        return Schedule::Adaptive;
    if (s != "uniform")
        warn("SCAMV_SCHEDULE: unknown schedule '" + std::string(s) +
             "', using uniform");
    return Schedule::Uniform;
}

/**
 * Fold the coverage deltas of programs [first_prog, first_prog+count)
 * into the ledger, in program-index order on this thread — the ledger
 * state at every fold boundary (and hence the exported JSON) is a
 * pure function of the schedule, never of the thread count.  `outs[k]`
 * is program first_prog + k.  Each program's merge runs under its own
 * injector (mirroring the db flush): an injected cover.ledger_merge
 * fault drops that delta.  Empty outcomes — failed tasks, early-
 * stopped or lost programs — are skipped.  @return true when every
 * delta landed.
 */
bool
mergeCoverDeltas(const PipelineConfig &cfg,
                 cover::CoverageLedger &ledger, metrics::Registry &reg,
                 const ProgramOutcome *outs, int first_prog, int count)
{
    const bool cover_faults =
        cfg.faultPlan.enabled() &&
        cfg.faultPlan.covers(faults::Site::CoverLedgerMerge);
    bool ok = true;
    metrics::ScopedRegistry scope(reg);
    for (int k = 0; k < count; ++k) {
        const ProgramOutcome &out = outs[k];
        if (out.failed || out.coverDelta.templ.empty())
            continue; // no delta was produced for this slot
        faults::Injector injector(cfg.faultPlan, cfg.seed,
                                  first_prog + k);
        std::optional<faults::ScopedInjector> inj_scope;
        if (cover_faults)
            inj_scope.emplace(injector);
        if (!ledger.merge(out.coverDelta)) {
            reg.counter("cover.merge_dropped").inc();
            ok = false;
        }
    }
    return ok;
}

/**
 * Execute programs [first, first+budget) of the campaign under the
 * resolved schedule, writing program first+k's outcome into outs[k].
 * Uniform: one embarrassingly parallel batch, templates round-robin
 * by *global* program index, no ledger access (deltas are folded by
 * the merge tail).  Adaptive: deterministic rounds planned from
 * `ledger` (required), folding each round's deltas before planning
 * the next and counting scheduler events into `reg`.
 * @return the number of budget programs skipped by adaptive
 * early-stop (their slots stay empty).
 */
int
runScheduleRange(const PipelineConfig &cfg,
                 cover::CoverageLedger *ledger, metrics::Registry &reg,
                 ProgramOutcome *outs, int first, int budget,
                 bool track_cover)
{
    if (budget <= 0)
        return 0;
    const Schedule sched = cfg.schedule.value_or(Schedule::Uniform);
    const bool instrument = needsSpecInstrumentation(cfg);
    const int n_threads = resolveThreads(cfg.threads);

    // The workload universe: corpus entries when a corpus is loaded
    // (exclusive — corpus campaigns never mix in generated programs),
    // generator templates otherwise.  Both schedules treat a unit the
    // same way: uniform round-robins program indices over the units,
    // adaptive weighs each unit's ledger bucket.
    struct WorkloadUnit {
        gen::TemplateKind templ = gen::TemplateKind::A;
        int corpusIndex = -1;
        std::string name;
    };
    std::vector<WorkloadUnit> units;
    if (cfg.corpus && !cfg.corpus->empty()) {
        for (int c = 0; c < static_cast<int>(cfg.corpus->size()); ++c)
            units.push_back(
                {gen::TemplateKind::A, c,
                 "corpus:" +
                     (*cfg.corpus)[static_cast<std::size_t>(c)].name});
    } else {
        std::vector<gen::TemplateKind> templates = cfg.templateKinds;
        if (templates.empty())
            templates.push_back(cfg.templateKind);
        for (gen::TemplateKind kind : templates)
            units.push_back({kind, -1, gen::templateName(kind)});
    }

    std::optional<ThreadPool> pool;
    if (n_threads > 1 && budget > 1)
        pool.emplace(static_cast<unsigned>(n_threads));

    auto run_batch = [&](const std::vector<ProgramTask> &tasks) {
        if (!pool) {
            // Reference path: plain sequential loop on this thread.
            for (const ProgramTask &task : tasks) {
                outs[task.prog_i - first] =
                    runOneProgramGuarded(cfg, instrument, task);
                if (cfg.progressHook)
                    cfg.progressHook(task.prog_i);
            }
        } else {
            for (const ProgramTask &task : tasks) {
                pool->submit([&cfg, instrument, task, outs, first] {
                    outs[task.prog_i - first] =
                        runOneProgramGuarded(cfg, instrument, task);
                    if (cfg.progressHook)
                        cfg.progressHook(task.prog_i);
                });
            }
            pool->wait();
        }
    };

    if (sched == Schedule::Uniform) {
        // One uniform batch over the whole budget; multi-template
        // campaigns round-robin by program index.
        std::vector<ProgramTask> tasks;
        tasks.reserve(static_cast<std::size_t>(budget));
        for (int k = 0; k < budget; ++k) {
            ProgramTask task;
            task.prog_i = first + k;
            const WorkloadUnit &u =
                units[static_cast<std::size_t>(task.prog_i) %
                      units.size()];
            task.templ = u.templ;
            task.corpusIndex = u.corpusIndex;
            task.collectCover = track_cover;
            tasks.push_back(task);
        }
        run_batch(tasks);
        return 0;
    }

    // Adaptive schedule: spend the budget in deterministic rounds
    // (round size is a pure function of the budget), replanning from
    // a ledger snapshot at every round boundary.
    const int round_size = cover::roundSizeFor(budget);
    const std::uint64_t num_sets = cfg.coverage == Coverage::PcAndLine
                                       ? cfg.modelParams.geom.numSets
                                       : 0;
    std::vector<std::string> names;
    for (const WorkloadUnit &u : units)
        names.push_back(u.name);

    bool degraded = false;
    int next = 0;
    for (int round = 0; next < budget; ++round) {
        const int batch = std::min(round_size, budget - next);
        std::vector<cover::RoundPlan> plans(units.size());
        std::vector<int> assign;
        if (!degraded) {
            const cover::Snapshot snap = ledger->snapshot();
            bool all_saturated = num_sets > 0;
            for (std::size_t i = 0; i < units.size(); ++i) {
                plans[i] = cover::planRound(snap, names[i], cfg.seed,
                                            round, num_sets);
                all_saturated &= plans[i].saturated;
            }
            if (all_saturated) {
                // Every template's class universe is covered or
                // exhausted: stop spending programs on it.
                reg.counter("cover.early_stop").inc();
                reg.counter("cover.skipped_programs")
                    .add(static_cast<std::uint64_t>(budget - next));
                break;
            }
            assign = cover::weightedAssignment(
                cover::templateWeights(snap, names, num_sets), batch);
        } else {
            // Ledger-merge faults poisoned the accounting: degrade
            // to the uniform round-robin draw for the rest of the
            // campaign.
            assign.resize(batch);
            for (int s = 0; s < batch; ++s)
                assign[s] = static_cast<int>(
                    (static_cast<std::size_t>(first + next + s)) %
                    units.size());
        }
        reg.counter("cover.rounds").inc();

        std::vector<ProgramTask> tasks;
        tasks.reserve(static_cast<std::size_t>(batch));
        for (int s = 0; s < batch; ++s) {
            ProgramTask task;
            task.prog_i = first + next + s;
            const WorkloadUnit &u = units[static_cast<std::size_t>(
                assign[static_cast<std::size_t>(s)])];
            task.templ = u.templ;
            task.corpusIndex = u.corpusIndex;
            task.collectCover = true;
            task.plan = degraded
                            ? nullptr
                            : &plans[static_cast<std::size_t>(
                                  assign[static_cast<std::size_t>(s)])];
            task.slot = s;
            task.stride = batch;
            tasks.push_back(task);
        }
        run_batch(tasks);
        if (!mergeCoverDeltas(cfg, *ledger, reg, outs + next,
                              first + next, batch) &&
            !degraded) {
            degraded = true;
            reg.counter("cover.degraded").inc();
        }
        next += batch;
    }
    return budget - next;
}

/**
 * The campaign merge tail shared by Pipeline::run() and the shard
 * coordinator: fold the slots in program-index order into a RunStats.
 * `fold_cover` folds the coverage deltas first (the Uniform path —
 * the adaptive scheduler already folded per round); `export_env`
 * honours the SCAMV_COVERAGE_FILE / SCAMV_METRICS /
 * SCAMV_METRICS_TABLE exporters.
 */
RunStats
mergeTailImpl(const PipelineConfig &cfg,
              std::vector<ProgramOutcome> &slots,
              cover::CoverageLedger *ledger, bool track_cover,
              metrics::Registry &campaign_reg, bool fold_cover,
              int early_stopped, bool export_env)
{
    RunStats stats;
    stats.earlyStopped = early_stopped;

    if (fold_cover && track_cover)
        mergeCoverDeltas(cfg, *ledger, campaign_reg, slots.data(), 0,
                         static_cast<int>(slots.size()));

    // Deterministic in-order merge.  Task snapshots are folded in
    // program-index order, so the campaign snapshot is identical for
    // any thread count; the db_merge phase of the campaign-level
    // registry covers the fold plus the database flush.
    {
        metrics::PhaseTimer phase(campaign_reg, "db_merge");

        // ttcSeconds is rebuilt on the sequential-campaign clock:
        // the sum of the task durations of all earlier programs plus
        // the in-task offset of the first counterexample, so its
        // meaning matches a threads=1 run.
        double clock = 0.0;
        for (const ProgramOutcome &out : slots) {
            stats.metrics.merge(out.metrics);
            if (stats.ttcSeconds < 0 && out.firstCexOffsetSeconds >= 0)
                stats.ttcSeconds = clock + out.firstCexOffsetSeconds;
            clock += out.taskSeconds;
            if (out.quarantined)
                stats.quarantinedPrograms.push_back(out.name);
            if (out.failed)
                stats.failedPrograms.push_back(out.name);
            // Findings concatenate in program-index order, which is
            // what makes the findings export independent of thread
            // and shard count.
            stats.findings.insert(stats.findings.end(),
                                  out.findings.begin(),
                                  out.findings.end());
        }
        if (cfg.database) {
            // Flush sequentially in program-index order so the
            // record sequence — and any injected db_write decision —
            // is independent of the thread count.  The fault plan's
            // DbWrite site can reject a write; rejected writes are
            // retried with backoff and finally dropped (counted, not
            // fatal: the campaign completes with a partial log).
            metrics::ScopedRegistry flush_scope(campaign_reg);
            const bool db_faults =
                cfg.faultPlan.enabled() &&
                cfg.faultPlan.covers(faults::Site::DbWrite);
            const int retry_max = resolveRetryMax(cfg.retryMax);
            for (std::size_t prog_i = 0; prog_i < slots.size();
                 ++prog_i) {
                faults::Injector db_injector(
                    cfg.faultPlan, cfg.seed, static_cast<int>(prog_i));
                std::optional<faults::ScopedInjector> inj_scope;
                if (db_faults)
                    inj_scope.emplace(db_injector);
                for (ExperimentRecord &record :
                     slots[prog_i].records) {
                    bool written = false;
                    retryPolluted(campaign_reg, "db_write", retry_max,
                                  [&](int) {
                        // add() consumes the record, so attempts
                        // that can fail get their own copy.
                        written = db_faults
                                      ? cfg.database->add(record)
                                      : cfg.database->add(
                                            std::move(record));
                        return written;
                    });
                    if (!written)
                        campaign_reg
                            .counter("pipeline.db_write_drops")
                            .inc();
                }
            }
        }
    }
    stats.metrics.merge(campaign_reg.snapshot());

    // The legacy Table-1 counters are views of the merged snapshot:
    // one source of truth, so reports and metrics cannot disagree.
    stats.programs = static_cast<int>(
        counterOr0(stats.metrics, "pipeline.programs"));
    stats.programsWithCex = static_cast<int>(
        counterOr0(stats.metrics, "pipeline.programs_with_cex"));
    stats.experiments =
        counterOr0(stats.metrics, "pipeline.experiments");
    stats.counterexamples =
        counterOr0(stats.metrics, "pipeline.counterexamples");
    stats.inconclusive =
        counterOr0(stats.metrics, "pipeline.inconclusive");
    stats.generationFailures =
        counterOr0(stats.metrics, "pipeline.generation_failures");
    stats.faultsInjected = counterOr0(stats.metrics, "faults.injected");
    stats.retryAttempts = counterOr0(stats.metrics, "retry.attempts");
    stats.quarantined = static_cast<int>(
        counterOr0(stats.metrics, "pipeline.quarantined"));
    stats.degraded = static_cast<int>(
        counterOr0(stats.metrics, "pipeline.degraded"));
    stats.programFailures = static_cast<int>(
        counterOr0(stats.metrics, "pipeline.program_failures"));
    stats.dbWriteDrops =
        counterOr0(stats.metrics, "pipeline.db_write_drops");
    stats.ledgerMergeDrops =
        counterOr0(stats.metrics, "cover.merge_dropped");
    stats.schedulerDegraded =
        counterOr0(stats.metrics, "cover.degraded") > 0;
    stats.screened = counterOr0(stats.metrics, "triage.screened");
    stats.triageDegraded =
        counterOr0(stats.metrics, "triage.degraded");

    if (track_cover) {
        stats.coverageTracked = true;
        stats.coverage = ledger->snapshot();
        for (const auto &[templ, cell] : stats.coverage.templates) {
            stats.coveredClasses += cell.coveredClasses();
            stats.classUniverse += cell.universe;
        }
        const char *cov_env =
            export_env ? std::getenv("SCAMV_COVERAGE_FILE") : nullptr;
        if (cov_env && *cov_env &&
            !cover::writeJson(stats.coverage, cov_env))
            warn("pipeline: cannot write coverage JSON to " +
                 std::string(cov_env));
    }
    stats.totalGenSeconds =
        histogramSumOr0(stats.metrics, "phase.generate_seconds") +
        histogramSumOr0(stats.metrics, "phase.symbolic_exec_seconds") +
        histogramSumOr0(stats.metrics,
                        "phase.relation_synthesis_seconds") +
        histogramSumOr0(stats.metrics, "phase.smt_seconds");
    stats.totalExeSeconds =
        histogramSumOr0(stats.metrics, "phase.hw_run_seconds");

    // Optional exporters (see README): SCAMV_METRICS writes the JSON
    // snapshot, SCAMV_METRICS_TABLE prints the text table to stderr.
    if (export_env) {
        if (const char *path = std::getenv("SCAMV_METRICS");
            path && *path) {
            if (!metrics::writeJson(stats.metrics, path))
                warn("pipeline: cannot write metrics JSON to " +
                     std::string(path));
        }
        if (const char *table = std::getenv("SCAMV_METRICS_TABLE");
            table && *table && *table != '0') {
            std::fputs(
                metrics::toTable(stats.metrics).render().c_str(),
                stderr);
        }
        if (cfg.findingsFile &&
            !triage::writeFindings(stats.findings, *cfg.findingsFile))
            warn("pipeline: cannot write findings JSON to " +
                 *cfg.findingsFile);
    }
    return stats;
}

} // namespace

int
resolveRetryMax(int configured)
{
    if (configured >= 0)
        return configured;
    return static_cast<int>(
        envLong("SCAMV_RETRY_MAX", 0, 64).value_or(2));
}

PipelineConfig
resolveCampaignEnv(PipelineConfig cfg)
{
    // Resolve the failure-model knobs: an explicitly configured plan
    // wins, otherwise the environment is consulted
    // (SCAMV_FAULT_RATE / SCAMV_FAULT_PLAN / SCAMV_RETRY_MAX).
    if (!cfg.faultPlan.enabled())
        cfg.faultPlan = faults::FaultPlan::fromEnv();
    cfg.retryMax = resolveRetryMax(cfg.retryMax);

    // Query cache: an explicitly configured cache wins, otherwise the
    // environment-configured shared cache (SCAMV_QCACHE_MB /
    // SCAMV_QCACHE_FILE).  Fault-injection campaigns bypass the cache
    // entirely: injected-fault decisions are keyed to per-site attempt
    // counters, and skipping solver work on hits would change which
    // attempts exist — byte-identical fault replay beats cache wins.
    if (!cfg.queryCache)
        cfg.queryCache = qcache::QueryCache::sharedFromEnv();
    if (cfg.queryCache && cfg.faultPlan.enabled()) {
        metrics::Registry::global()
            .counter("qcache.bypass_faults")
            .inc();
        cfg.queryCache = nullptr;
    }

    // Schedule: an explicitly configured schedule wins, otherwise
    // SCAMV_SCHEDULE (defaulting to uniform).
    if (!cfg.schedule)
        cfg.schedule = scheduleFromEnv();

    // Triage: pre-screen (SCAMV_TRIAGE), minimizer (SCAMV_MINIMIZE)
    // and findings export (SCAMV_FINDINGS_FILE), each defaulting off.
    if (cfg.triageScreen < 0)
        cfg.triageScreen = static_cast<int>(
            envLong("SCAMV_TRIAGE", 0, 1).value_or(0));
    if (cfg.triageMinimize < 0)
        cfg.triageMinimize = static_cast<int>(
            envLong("SCAMV_MINIMIZE", 0, 1).value_or(0));
    if (!cfg.findingsFile) {
        const char *path = std::getenv("SCAMV_FINDINGS_FILE");
        if (path && *path)
            cfg.findingsFile = path;
    }

    // Corpus workload: an explicitly configured corpus wins, otherwise
    // SCAMV_CORPUS_DIR / SCAMV_PROGRAM_FILE.  Arrays are laid out
    // inside the campaign's experiment region so the relation's
    // region constraints accept corpus addresses.
    if (!cfg.corpus) {
        front::CompileOptions fopts;
        fopts.arrayBase = cfg.region.base;
        fopts.arrayLimit = cfg.region.base + cfg.region.size;
        std::vector<front::CompiledProgram> loaded =
            front::corpusFromEnv(fopts);
        if (!loaded.empty())
            cfg.corpus = std::make_shared<
                const std::vector<front::CompiledProgram>>(
                std::move(loaded));
    }
    return cfg;
}

bool
coverageTracked(const PipelineConfig &cfg)
{
    // Coverage accounting activates only when something consumes it
    // (adaptive rounds, a configured ledger, or a SCAMV_COVERAGE_FILE
    // export) — an untracked uniform campaign takes the exact
    // pre-cover code path.
    const char *cov = std::getenv("SCAMV_COVERAGE_FILE");
    return cfg.schedule.value_or(Schedule::Uniform) ==
               Schedule::Adaptive ||
           cfg.coverageLedger != nullptr || (cov && *cov);
}

ProgramOutcome
runProgramTask(const PipelineConfig &cfg, const ProgramTask &task)
{
    return runOneProgramGuarded(cfg, needsSpecInstrumentation(cfg),
                                task);
}

CampaignSlice
runCampaignSlice(const PipelineConfig &cfg, int first, int count)
{
    CampaignSlice slice;
    slice.first = first;
    slice.count = count > 0 ? count : 0;
    slice.outcomes.resize(static_cast<std::size_t>(slice.count));
    if (slice.count == 0)
        return slice;

    const bool adaptive = cfg.schedule.value_or(Schedule::Uniform) ==
                          Schedule::Adaptive;
    // An adaptive slice plans its rounds locally: a throwaway ledger
    // over the slice's own budget.  Its scheduler counters are scoped
    // to the worker and intentionally discarded — the coordinator
    // re-folds the deltas authoritatively and records the planning
    // deviation as `shard.schedule_local` (see DESIGN.md §12).
    cover::CoverageLedger local_ledger;
    metrics::Registry scratch(clockModeFor(cfg));
    slice.scheduleLocal = adaptive;
    slice.earlyStopped = runScheduleRange(
        cfg, adaptive ? &local_ledger : nullptr, scratch,
        slice.outcomes.data(), first, slice.count,
        coverageTracked(cfg));
    return slice;
}

RunStats
mergeCampaignOutcomes(const PipelineConfig &cfg,
                      std::vector<ProgramOutcome> &slots,
                      const MergeTailOptions &opts)
{
    cover::CoverageLedger local_ledger;
    cover::CoverageLedger *ledger = cfg.coverageLedger;
    const bool track_cover = coverageTracked(cfg);
    if (track_cover && !ledger)
        ledger = &local_ledger;
    metrics::Registry campaign_reg(clockModeFor(cfg));
    return mergeTailImpl(cfg, slots, ledger, track_cover, campaign_reg,
                         /*fold_cover=*/true, opts.earlyStopped,
                         opts.honorEnvExports);
}

RunStats
Pipeline::run()
{
    cfg = resolveCampaignEnv(std::move(cfg));

    cover::CoverageLedger local_ledger;
    cover::CoverageLedger *ledger = cfg.coverageLedger;
    const bool track_cover = coverageTracked(cfg);
    if (track_cover && !ledger)
        ledger = &local_ledger;

    // One slot per program; tasks never touch shared state, so the
    // campaign is embarrassingly parallel and the merge below sees
    // the same slot contents regardless of scheduling.  (Adaptive
    // early-stop may leave trailing slots unused; they merge as empty
    // outcomes.)
    std::vector<ProgramOutcome> slots(
        cfg.programs > 0 ? static_cast<std::size_t>(cfg.programs) : 0);

    // Campaign-level registry: round planning, ledger merging and the
    // final stats/db merge all count into it; it is folded into the
    // campaign snapshot after the per-program snapshots.
    metrics::Registry campaign_reg(clockModeFor(cfg));

    const int early_stopped =
        runScheduleRange(cfg, ledger, campaign_reg, slots.data(), 0,
                         cfg.programs, track_cover);

    // The Uniform path folds its coverage deltas in the tail; the
    // adaptive scheduler already folded per round.
    const bool fold_cover =
        track_cover && *cfg.schedule == Schedule::Uniform;
    return mergeTailImpl(cfg, slots, ledger, track_cover, campaign_reg,
                         fold_cover, early_stopped,
                         /*export_env=*/true);
}

} // namespace scamv::core
