/**
 * @file
 * Cache-aware solving wrappers over smt::SmtSolver.
 *
 * Two shapes of query go through the cache:
 *
 *  - `solveOnce`: one-shot satisfiability + model extraction (sampler
 *    fallback, training-input synthesis).  The canonical key is mixed
 *    with the conflict budget, so a budget change can never turn a
 *    cached Sat into what an uncached run would have reported as
 *    Unknown.
 *
 *  - `CachedEnumerator`: the pipeline's per-pair model-enumeration
 *    solver (solve, extract model, block it, repeat).  With a cache
 *    each step is a distinct logical query keyed by (formula,
 *    blocking config, step index, budget).  Every step, hit or miss,
 *    appends to the pair's one recorded history of solver mutations;
 *    a miss after hits and a oneshot rebuild both replay that history
 *    onto the solver.  Fingerprint gating guarantees that replaying
 *    a hit reproduces the original CDCL trajectory, so the rebuilt
 *    state is exact.
 *
 * Metric discipline: a miss solves inside a scratch registry and the
 * captured delta is both merged into the querier's registry and
 * stored in the entry; a hit merges the stored delta.  Either way the
 * querier's registry sees byte-identical effects, which is what makes
 * warm (resumed) campaigns byte-identical to cold ones.
 *
 * Fault discipline: the wrapper owns exactly one SmtUnknown gate per
 * logical query (mirroring SmtSolver::solve) and suppresses the
 * injector during miss solves and history replays.  The pipeline
 * additionally bypasses the cache entirely when a fault plan is
 * active, keeping fault-injection campaigns byte-identical to PR3.
 */

#ifndef SCAMV_SUPPORT_QCACHE_CACHED_SOLVE_HH
#define SCAMV_SUPPORT_QCACHE_CACHED_SOLVE_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "smt/solver.hh"
#include "support/qcache/qcache.hh"

namespace scamv::qcache {

/** Outcome of a (possibly cached) one-shot solve. */
struct SolveResult {
    smt::Outcome outcome = smt::Outcome::Unknown;
    /** Model in the caller's variable names (Sat only). */
    std::optional<expr::Assignment> model;
};

/**
 * Solve `formula` once, consulting `cache` when non-null.  With a
 * null cache this is exactly `SmtSolver(ctx, formula).solve(budget)`
 * plus model extraction — byte-identical to the uncached pipeline
 * paths it replaces.  Cached Sat models are revalidated by concrete
 * evaluation before use; a failing entry is dropped and recomputed.
 */
SolveResult solveOnce(expr::ExprContext &ctx, expr::Expr formula,
                      std::int64_t conflict_budget, QueryCache *cache);

/**
 * The cache key a one-shot solve of `form` under `conflict_budget`
 * uses: the canonical key mixed with the budget.  Exposed so tests
 * and external tools can inspect or pre-seed cache entries.
 */
Key solveKey(const CanonForm &form, std::int64_t conflict_budget);

/**
 * The one per-pair solver of the pipeline's enumerated strategies:
 * a live incremental SmtSolver over the pair's relation plus the
 * recorded history of every operation that mutated it.
 *
 * Each step records itself as it runs: a solve or solveWith with its
 * budget and outcome, a blast-only Prepare for a solveWith whose
 * search an injected SatTimeout cut short, and the block of a found
 * model.  An injected SmtUnknown returns before touching the solver
 * and records nothing.  With a cache, a hit records the solve (at an
 * unlimited budget) and block it stands for without running them;
 * the next miss replays those entries onto the live solver first.
 * `rebuild()` drops the solver and replays the whole history onto a
 * fresh one (oneshot solver mode).  Replay runs under a muted
 * registry with faults suppressed, and deterministic CDCL makes the
 * rebuilt state exact; every replayed solve must return its recorded
 * outcome.
 */
class CachedEnumerator
{
  public:
    /**
     * @param ctx        expression context of the formula
     * @param formula    relation formula to enumerate models of
     * @param block_vars variables constrained by model blocking
     * @param block_bits low-bit width of the blocking clauses
     * @param cache      query cache, or nullptr for direct solving
     */
    CachedEnumerator(expr::ExprContext &ctx, expr::Expr formula,
                     std::vector<expr::Expr> block_vars,
                     int block_bits, QueryCache *cache);

    /** One enumeration step: solve, then block the found model. */
    struct Step {
        smt::Outcome outcome = smt::Outcome::Unknown;
        std::optional<expr::Assignment> model;
    };

    /**
     * Run the next enumeration step under `conflict_budget`, with
     * `temporary` (a coverage constraint, uncached only) holding for
     * this solve alone.  On Sat the model has been blocked; `dead()`
     * reports whether blocking exhausted the pair.  Cached Unknown
     * steps are never stored and do not advance the cache chain.
     */
    Step step(std::int64_t conflict_budget,
              expr::Expr temporary = nullptr);

    /** Use uniformly random decision polarities from now on (not
     *  recorded: never combined with rebuild()). */
    void randomizePhases(Rng &rng);

    /** Drop the live solver and replay the history onto a fresh one. */
    void rebuild();

    /** @return true once blocking has exhausted the enumeration. */
    bool dead() const { return dead_; }

  private:
    /** One recorded mutation of the live solver. */
    struct Op {
        enum class Kind { Solve, SolveWith, Prepare, Block };
        Kind kind = Kind::Solve;
        expr::Expr temporary = nullptr; ///< SolveWith / Prepare
        std::int64_t budget = 0;
        smt::Outcome outcome = smt::Outcome::Unknown;
    };

    /** Create the solver if absent and replay the unapplied tail. */
    smt::SmtSolver &materialize();
    /** Solve on the live solver, block a found model, record both. */
    Step solveLive(std::int64_t conflict_budget, expr::Expr temporary);
    void recordLive(Op op);
    Key stepKey(int step, std::int64_t conflict_budget) const;

    expr::ExprContext &ctx;
    expr::Expr formula_;
    std::vector<expr::Expr> blockVars;
    int blockBits;
    QueryCache *cache;
    CanonForm form;
    std::uint64_t chainSalt = 0;
    std::unique_ptr<smt::SmtSolver> solver_;
    std::vector<Op> history_;
    std::size_t applied_ = 0; ///< history entries applied to solver_
    int step_ = 0;            ///< next cache-chain step
    bool dead_ = false;
};

} // namespace scamv::qcache

#endif // SCAMV_SUPPORT_QCACHE_CACHED_SOLVE_HH
