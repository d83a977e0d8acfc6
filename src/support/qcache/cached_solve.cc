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
        r.outcome = solver.solveNoInject(conflict_budget);
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

std::function<std::optional<expr::Assignment>(Expr)>
samplerSeedOracle(QueryCache *cache, std::int64_t conflict_budget)
{
    return [cache, conflict_budget](
               Expr formula) -> std::optional<expr::Assignment> {
        if (!cache)
            return std::nullopt;
        const CanonForm form = canonicalize(formula);
        auto hit = cache->lookup(budgetKey(form.key, conflict_budget),
                                 form.fingerprint);
        if (!hit || !hit->sat)
            return std::nullopt;
        return toOriginal(form, hit->model);
    };
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

void
CachedEnumerator::ensureSolverAt(int target)
{
    if (!solver_)
        solver_ = std::make_unique<smt::SmtSolver>(ctx, formula_);
    if (solverStep_ >= target)
        return;
    // Replay the cached prefix to rebuild incremental solver state.
    // Fingerprint gating guarantees the replayed trajectory is the
    // one that produced the cached entries, so an unlimited budget is
    // safe (a Sat trajectory within budget B is identical under any
    // budget >= B).  The work is invisible: metrics go to a discarded
    // scratch registry (hits already merged the original deltas) and
    // fault decisions are suppressed (the original attempt consumed
    // them).
    metrics::Registry mute(metrics::ClockMode::Wall);
    metrics::ScopedRegistry scope(mute);
    faults::ScopedSuppress suppress;
    while (solverStep_ < target) {
        const smt::Outcome out = solver_->solveNoInject(-1);
        SCAMV_ASSERT(out == smt::Outcome::Sat,
                     "qcache: cached enumeration prefix failed to "
                     "replay");
        solver_->blockCurrentModel(blockVars, blockBits);
        ++solverStep_;
    }
}

smt::SmtSolver &
CachedEnumerator::solver()
{
    ensureSolverAt(step_);
    return *solver_;
}

void
CachedEnumerator::discardSolver()
{
    solver_.reset();
    solverStep_ = 0;
}

CachedEnumerator::Step
CachedEnumerator::next(std::int64_t conflict_budget)
{
    Step s;
    if (!cache) {
        ensureSolverAt(step_);
        s.outcome = solver_->solve(conflict_budget);
        if (s.outcome == smt::Outcome::Sat) {
            s.model = solver_->model();
            if (!solver_->blockCurrentModel(blockVars, blockBits))
                dead_ = true;
            ++solverStep_;
            ++step_;
        }
        return s;
    }

    // One SmtUnknown gate per logical step (cf. solveOnce).
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
        if (!hit->sat) {
            metrics::current().merge(hit->delta);
            ++step_;
            s.outcome = smt::Outcome::Unsat;
            observeHit(tg0);
            return s;
        }
        expr::Assignment model = toOriginal(form, hit->model);
        if (expr::evalBool(formula_, model)) {
            metrics::current().merge(hit->delta);
            if (hit->pairDead)
                dead_ = true;
            ++step_;
            s.outcome = smt::Outcome::Sat;
            s.model = std::move(model);
            observeHit(tg0);
            return s;
        }
        g.counter("qcache.validation_dropped").inc();
        cache->dropInvalid(key);
    }

    // Miss: bring the solver up to this step, run it inside a scratch
    // registry, and store the captured step.
    ensureSolverAt(step_);
    bool block_dead = false;
    metrics::Registry scratch(metrics::current().clockMode());
    {
        metrics::ScopedRegistry scope(scratch);
        faults::ScopedSuppress suppress;
        s.outcome = solver_->solveNoInject(conflict_budget);
        if (s.outcome == smt::Outcome::Sat) {
            s.model = solver_->model();
            if (!solver_->blockCurrentModel(blockVars, blockBits))
                block_dead = true;
        }
    }
    metrics::Snapshot delta = scratch.snapshot();
    metrics::current().merge(delta);
    if (s.outcome == smt::Outcome::Unknown)
        return s; // budget-dependent: never cached, step not advanced

    Entry e;
    e.sat = s.outcome == smt::Outcome::Sat;
    e.fingerprint = form.fingerprint;
    e.pairDead = block_dead;
    if (s.model)
        e.model = toCanonical(form, *s.model);
    e.delta = std::move(delta);
    cache->store(key, std::move(e));

    if (s.outcome == smt::Outcome::Sat) {
        if (block_dead)
            dead_ = true;
        ++solverStep_;
    }
    ++step_;
    return s;
}

} // namespace scamv::qcache
