#include "support/qcache/cached_solve.hh"

#include "support/faults.hh"
#include "support/logging.hh"
#include "support/metrics.hh"
#include "support/textcodec.hh"

namespace scamv::qcache {

using expr::Expr;

namespace {

constexpr std::uint64_t kBudgetSalt = 0x5ca77e5700050005ULL;
constexpr std::uint64_t kChainSalt = 0x5ca77e5700060006ULL;

/** Mix the conflict budget into a canonical key: outcomes below the
 *  Sat/Unknown boundary depend on it, so cross-budget reuse is out. */
Key
budgetKey(const Key &base, std::int64_t conflict_budget)
{
    const auto b = static_cast<std::uint64_t>(conflict_budget);
    return Key{mixKey(base.hi, b),
               mixKey(base.lo, mixKey(kBudgetSalt, b))};
}

/** Observe one cache-hit latency into the global registry. */
void
observeHit(double t0)
{
    metrics::Registry &g = metrics::Registry::global();
    g.histogram("qcache.hit_seconds").observe(g.now() - t0);
}

} // namespace

Key
solveKey(const CanonForm &form, std::int64_t conflict_budget)
{
    return budgetKey(form.key, conflict_budget);
}

SolveResult
solveOnce(expr::ExprContext &ctx, Expr formula,
          std::int64_t conflict_budget, QueryCache *cache)
{
    if (!cache) {
        // The uncached reference path: exactly what the pipeline did
        // before the cache existed.
        smt::SmtSolver solver(ctx, formula);
        SolveResult r;
        r.outcome = solver.solve(conflict_budget);
        if (r.outcome == smt::Outcome::Sat)
            r.model = solver.model();
        return r;
    }

    // One SmtUnknown gate per logical query, mirroring solve().  Only
    // consulted when an injector is installed, so cache-on runs touch
    // the querier's clock identically on hits and misses.
    if (faults::current()) {
        const double t0 = metrics::current().now();
        if (faults::maybeInject(faults::Site::SmtUnknown))
            return SolveResult{
                smt::tallyQuery(smt::Outcome::Unknown, t0),
                std::nullopt};
    }

    metrics::Registry &g = metrics::Registry::global();
    const double tg0 = g.now();
    const CanonForm form = canonicalize(formula);
    const Key key = budgetKey(form.key, conflict_budget);

    if (auto hit = cache->lookup(key, form.fingerprint)) {
        if (!hit->sat) {
            metrics::current().merge(hit->delta);
            observeHit(tg0);
            return SolveResult{smt::Outcome::Unsat, std::nullopt};
        }
        expr::Assignment model = toOriginal(form, hit->model);
        if (expr::evalBool(formula, model)) {
            metrics::current().merge(hit->delta);
            observeHit(tg0);
            return SolveResult{smt::Outcome::Sat, std::move(model)};
        }
        // Corrupt or stale entry (possible with a damaged persistence
        // file): drop it and recompute below.
        g.counter("qcache.validation_dropped").inc();
        cache->dropInvalid(key);
    }

    // Miss: solve inside a scratch registry so the metric delta can
    // be captured, merged, and stored for future hits.
    SolveResult r;
    metrics::Registry scratch(metrics::current().clockMode());
    {
        metrics::ScopedRegistry scope(scratch);
        faults::ScopedSuppress suppress;
        smt::SmtSolver solver(ctx, formula);
        r.outcome = solver.solve(conflict_budget);
        if (r.outcome == smt::Outcome::Sat)
            r.model = solver.model();
    }
    metrics::Snapshot delta = scratch.snapshot();
    metrics::current().merge(delta);
    if (r.outcome != smt::Outcome::Unknown) {
        Entry e;
        e.sat = r.outcome == smt::Outcome::Sat;
        e.fingerprint = form.fingerprint;
        if (r.model)
            e.model = toCanonical(form, *r.model);
        e.delta = std::move(delta);
        cache->store(key, std::move(e));
    }
    return r;
}

CachedEnumerator::CachedEnumerator(expr::ExprContext &ctx_,
                                   Expr formula, std::vector<Expr> block_vars,
                                   int block_bits, QueryCache *cache_)
    : ctx(ctx_),
      formula_(formula),
      blockVars(std::move(block_vars)),
      blockBits(block_bits),
      cache(cache_)
{
    if (!cache)
        return;
    form = canonicalize(formula_);
    extendVars(form, blockVars);
    // The chain salt separates enumerations of one formula under
    // different blocking configurations: blocked bits plus the
    // canonical identity of every blocked variable, in order.
    chainSalt = mixKey(kChainSalt,
                       static_cast<std::uint64_t>(blockBits));
    for (Expr v : blockVars)
        chainSalt = mixKey(chainSalt, text::fnv1a(form.toCanon.at(v->name)));
}

Key
CachedEnumerator::stepKey(int step, std::int64_t conflict_budget) const
{
    const std::uint64_t salt =
        mixKey(chainSalt, mixKey(static_cast<std::uint64_t>(step),
                                 static_cast<std::uint64_t>(
                                     conflict_budget)));
    return Key{mixKey(form.key.hi, salt),
               mixKey(form.key.lo, mixKey(kBudgetSalt, salt))};
}

smt::SmtSolver &
CachedEnumerator::materialize()
{
    if (!solver_)
        solver_ = std::make_unique<smt::SmtSolver>(ctx, formula_);
    if (applied_ == history_.size())
        return *solver_;
    // The replay is invisible: the recorded work was already charged
    // to the querier when first performed (or merged from a hit's
    // stored delta), so metrics go to a discarded registry, and fault
    // decisions are suppressed (the original attempt consumed them).
    // A hit is replayed at an unlimited budget: a Sat trajectory
    // within budget B is identical under any budget >= B.
    metrics::Registry mute(metrics::ClockMode::Wall);
    metrics::ScopedRegistry scope(mute);
    faults::ScopedSuppress suppress;
    for (; applied_ < history_.size(); ++applied_) {
        const Op &op = history_[applied_];
        smt::Outcome out = op.outcome;
        switch (op.kind) {
          case Op::Kind::Solve:
            out = solver_->solve(op.budget);
            break;
          case Op::Kind::SolveWith:
            out = solver_->solveWith(op.temporary, op.budget);
            break;
          case Op::Kind::Prepare:
            solver_->prepareTemporary(op.temporary);
            break;
          case Op::Kind::Block:
            solver_->blockCurrentModel(blockVars, blockBits);
            break;
        }
        SCAMV_ASSERT(out == op.outcome,
                     "enumerator: replayed solve diverged from its "
                     "recorded outcome");
    }
    return *solver_;
}

void
CachedEnumerator::rebuild()
{
    solver_.reset();
    applied_ = 0;
    materialize();
}

void
CachedEnumerator::randomizePhases(Rng &rng)
{
    materialize().randomizePhases(rng);
}

void
CachedEnumerator::recordLive(Op op)
{
    history_.push_back(op);
    applied_ = history_.size();
}

CachedEnumerator::Step
CachedEnumerator::solveLive(std::int64_t conflict_budget, Expr temporary)
{
    smt::SmtSolver &solver = materialize();
    const std::uint64_t inj0 = faults::injectedCount();
    const std::uint64_t timeout0 =
        faults::injectedCountAt(faults::Site::SatTimeout);
    Step s;
    s.outcome = temporary ? solver.solveWith(temporary, conflict_budget)
                          : solver.solve(conflict_budget);
    // Record what mutated the solver: a clean call in full (a genuine
    // exhaustion leaves learned clauses behind); an injected
    // SmtUnknown not at all (it returns before touching solver
    // state); an injected SatTimeout under a temporary as a
    // blast-only Prepare (solveWith blasts the temporary before the
    // SAT core cuts the search short).
    if (faults::injectedCount() == inj0)
        recordLive({temporary ? Op::Kind::SolveWith : Op::Kind::Solve,
                    temporary, conflict_budget, s.outcome});
    else if (temporary &&
             faults::injectedCountAt(faults::Site::SatTimeout) != timeout0)
        recordLive({Op::Kind::Prepare, temporary, 0, s.outcome});
    if (s.outcome == smt::Outcome::Sat) {
        s.model = solver.model();
        if (!solver.blockCurrentModel(blockVars, blockBits))
            dead_ = true;
        recordLive({Op::Kind::Block, nullptr, 0, s.outcome});
    }
    return s;
}

CachedEnumerator::Step
CachedEnumerator::step(std::int64_t conflict_budget, Expr temporary)
{
    if (!cache)
        return solveLive(conflict_budget, temporary);
    SCAMV_ASSERT(!temporary,
                 "enumerator: temporaries never go through the cache");

    // One SmtUnknown gate per logical step (cf. solveOnce).
    Step s;
    if (faults::current()) {
        const double t0 = metrics::current().now();
        if (faults::maybeInject(faults::Site::SmtUnknown)) {
            s.outcome = smt::tallyQuery(smt::Outcome::Unknown, t0);
            return s;
        }
    }

    metrics::Registry &g = metrics::Registry::global();
    const double tg0 = g.now();
    const Key key = stepKey(step_, conflict_budget);
    if (auto hit = cache->lookup(key, form.fingerprint)) {
        std::optional<expr::Assignment> model;
        if (hit->sat)
            model = toOriginal(form, hit->model);
        if (!hit->sat || expr::evalBool(formula_, *model)) {
            metrics::current().merge(hit->delta);
            // Recorded, not run: the next miss replays these entries.
            s.outcome = hit->sat ? smt::Outcome::Sat : smt::Outcome::Unsat;
            history_.push_back({Op::Kind::Solve, nullptr, -1, s.outcome});
            if (hit->sat) {
                history_.push_back({Op::Kind::Block, nullptr, 0, s.outcome});
                s.model = std::move(model);
                if (hit->pairDead)
                    dead_ = true;
            }
            ++step_;
            observeHit(tg0);
            return s;
        }
        g.counter("qcache.validation_dropped").inc();
        cache->dropInvalid(key);
    }

    // Miss: solve on the live solver inside a scratch registry, and
    // store the captured step.
    metrics::Registry scratch(metrics::current().clockMode());
    {
        metrics::ScopedRegistry scope(scratch);
        faults::ScopedSuppress suppress;
        s = solveLive(conflict_budget, nullptr);
    }
    metrics::Snapshot delta = scratch.snapshot();
    metrics::current().merge(delta);
    if (s.outcome == smt::Outcome::Unknown)
        return s; // budget-dependent: never cached, step not advanced

    Entry e;
    e.sat = s.outcome == smt::Outcome::Sat;
    e.fingerprint = form.fingerprint;
    e.pairDead = dead_;
    if (s.model)
        e.model = toCanonical(form, *s.model);
    e.delta = std::move(delta);
    cache->store(key, std::move(e));
    ++step_;
    return s;
}

} // namespace scamv::qcache
