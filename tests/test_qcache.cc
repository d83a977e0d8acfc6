/** @file Tests for the semantic SMT query cache (support/qcache). */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/expdb.hh"
#include "core/pipeline.hh"
#include "expr/eval.hh"
#include "expr/expr.hh"
#include "gen/templates.hh"
#include "obs/models.hh"
#include "rel/relation.hh"
#include "smt/solver.hh"
#include "sym/symexec.hh"
#include "support/faults.hh"
#include "support/metrics.hh"
#include "support/qcache/cached_solve.hh"
#include "support/qcache/qcache.hh"

namespace scamv::qcache {
namespace {

using expr::Expr;

std::uint64_t
globalCounter(const char *name)
{
    return metrics::Registry::global().counter(name).value();
}

std::string
tmpPath(const char *tag)
{
    return ::testing::TempDir() + std::string("scamv_qcache_") + tag +
           ".txt";
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

// ---------------------------------------------------------------------
// Canonicalization

TEST(Canon, AlphaRenameSameKeyAndFingerprint)
{
    expr::ExprContext a, b;
    const Expr fa =
        a.land(a.eq(a.add(a.bvVar("x"), a.bvVar("y")), a.bv(5)),
               a.ult(a.bvVar("x"), a.bv(4)));
    const Expr fb =
        b.land(b.eq(b.add(b.bvVar("p"), b.bvVar("q")), b.bv(5)),
               b.ult(b.bvVar("p"), b.bv(4)));
    const CanonForm ca = canonicalize(fa);
    const CanonForm cb = canonicalize(fb);
    EXPECT_EQ(ca.key, cb.key);
    EXPECT_EQ(ca.fingerprint, cb.fingerprint);

    // A genuinely different formula must not collide.
    const Expr fc =
        a.land(a.eq(a.add(a.bvVar("x"), a.bvVar("y")), a.bv(6)),
               a.ult(a.bvVar("x"), a.bv(4)));
    EXPECT_FALSE(canonicalize(fc).key == ca.key);
}

TEST(Canon, CommutativeOperandSwapIsAFullHit)
{
    // Alpha indices follow traversal order, so swapping the operands
    // of a commutative node and the roles of the variables yields the
    // same canonical key *and* the same exactness fingerprint.
    expr::ExprContext ctx;
    const Expr x = ctx.bvVar("x");
    const Expr y = ctx.bvVar("y");
    const Expr f1 = ctx.eq(ctx.add(x, y), ctx.bv(5));
    const Expr f2 = ctx.eq(ctx.add(y, x), ctx.bv(5));
    const CanonForm c1 = canonicalize(f1);
    const CanonForm c2 = canonicalize(f2);
    EXPECT_EQ(c1.key, c2.key);
    EXPECT_EQ(c1.fingerprint, c2.fingerprint);
    // The name maps differ (x is v0 in f1, y is v0 in f2) — exactly
    // what makes the shared model replay correctly for both.
    EXPECT_EQ(c1.toCanon.at("x"), "v0");
    EXPECT_EQ(c2.toCanon.at("y"), "v0");
}

TEST(Canon, ShapeDistinctReorderSharesKeyNotFingerprint)
{
    // Reordering operands of *different shape* keeps the semantic
    // key (same cache slot) but changes the fingerprint: the entry is
    // reachable only by formulas that replay the original solver
    // trajectory exactly.  (`add` does not normalize non-constant
    // operand order, so the two sums really are distinct nodes.)
    expr::ExprContext ctx;
    const Expr x = ctx.bvVar("x");
    const Expr y = ctx.bvVar("y");
    const Expr t1 = ctx.mul(x, y);
    const Expr t2 = ctx.bvAnd(x, ctx.bv(7));
    const CanonForm c1 =
        canonicalize(ctx.eq(ctx.add(t1, t2), ctx.bv(5)));
    const CanonForm c2 =
        canonicalize(ctx.eq(ctx.add(t2, t1), ctx.bv(5)));
    EXPECT_EQ(c1.key, c2.key);
    EXPECT_NE(c1.fingerprint, c2.fingerprint);
}

TEST(Canon, ModelTranslationRoundTrips)
{
    expr::ExprContext ctx;
    const Expr f = ctx.land(ctx.eq(ctx.bvVar("addr"), ctx.bv(5)),
                            ctx.boolVar("flag"));
    const CanonForm form = canonicalize(f);

    expr::Assignment orig;
    orig.bvVars["addr"] = 5;
    orig.boolVars["flag"] = true;
    const expr::Assignment canon = toCanonical(form, orig);
    EXPECT_EQ(canon.bvVars.at("v0"), 5u);
    EXPECT_EQ(canon.boolVars.at("b0"), true);
    const expr::Assignment back = toOriginal(form, canon);
    EXPECT_EQ(back.bvVars.at("addr"), 5u);
    EXPECT_EQ(back.boolVars.at("flag"), true);
}

// ---------------------------------------------------------------------
// Cache semantics

TEST(Cache, AlphaRenamedQueriesShareAnEntry)
{
    QueryCache cache({1 << 20, ""});
    expr::ExprContext a, b;
    const Expr fa =
        a.land(a.eq(a.add(a.bvVar("x"), a.bvVar("y")), a.bv(5)),
               a.ult(a.bvVar("x"), a.bv(4)));
    // Same query in another context: renamed and operand-swapped.
    const Expr fb =
        b.land(b.eq(b.add(b.bvVar("q"), b.bvVar("p")), b.bv(5)),
               b.ult(b.bvVar("q"), b.bv(4)));

    const std::uint64_t h0 = globalCounter("qcache.hit");
    const SolveResult r1 = solveOnce(a, fa, 200000, &cache);
    ASSERT_EQ(r1.outcome, smt::Outcome::Sat);
    ASSERT_TRUE(r1.model);
    EXPECT_TRUE(expr::evalBool(fa, *r1.model));
    EXPECT_EQ(cache.size(), 1u);

    const SolveResult r2 = solveOnce(b, fb, 200000, &cache);
    ASSERT_EQ(r2.outcome, smt::Outcome::Sat);
    ASSERT_TRUE(r2.model);
    EXPECT_TRUE(expr::evalBool(fb, *r2.model));
    EXPECT_EQ(globalCounter("qcache.hit"), h0 + 1);
    EXPECT_EQ(cache.size(), 1u);
}

TEST(Cache, UnsatResultsAreCached)
{
    QueryCache cache({1 << 20, ""});
    expr::ExprContext ctx;
    const Expr f = ctx.ult(ctx.bvVar("x"), ctx.bv(0)); // x < 0: unsat
    const std::uint64_t h0 = globalCounter("qcache.hit");
    EXPECT_EQ(solveOnce(ctx, f, 200000, &cache).outcome,
              smt::Outcome::Unsat);
    const SolveResult r = solveOnce(ctx, f, 200000, &cache);
    EXPECT_EQ(r.outcome, smt::Outcome::Unsat);
    EXPECT_FALSE(r.model);
    EXPECT_EQ(globalCounter("qcache.hit"), h0 + 1);
}

TEST(Cache, FpConflictRecomputesInsteadOfReplaying)
{
    QueryCache cache({1 << 20, ""});
    expr::ExprContext ctx;
    const Expr x = ctx.bvVar("x");
    const Expr y = ctx.bvVar("y");
    const Expr t1 = ctx.mul(x, y);
    const Expr t2 = ctx.bvAnd(x, ctx.bv(7));
    const Expr f1 = ctx.eq(ctx.add(t1, t2), ctx.bv(5));
    const Expr f2 = ctx.eq(ctx.add(t2, t1), ctx.bv(5));

    ASSERT_EQ(solveOnce(ctx, f1, 200000, &cache).outcome,
              smt::Outcome::Sat);
    const std::uint64_t c0 = globalCounter("qcache.fp_conflict");
    const SolveResult r = solveOnce(ctx, f2, 200000, &cache);
    EXPECT_EQ(r.outcome, smt::Outcome::Sat);
    ASSERT_TRUE(r.model);
    EXPECT_TRUE(expr::evalBool(f2, *r.model));
    EXPECT_EQ(globalCounter("qcache.fp_conflict"), c0 + 1);
    // Keep-first: the semantic cousin never displaces the original.
    EXPECT_EQ(cache.size(), 1u);
}

TEST(Cache, CachedModelsAreRevalidatedBeforeUse)
{
    QueryCache cache({1 << 20, ""});
    expr::ExprContext ctx;
    const Expr f = ctx.eq(ctx.bvVar("x"), ctx.bv(5));
    const CanonForm form = canonicalize(f);

    // Plant a poisoned entry (as a damaged persistence file could):
    // right key and fingerprint, wrong model.
    Entry poison;
    poison.sat = true;
    poison.fingerprint = form.fingerprint;
    poison.model.bvVars["v0"] = 6;
    cache.store(solveKey(form, 200000), poison);

    const std::uint64_t d0 = globalCounter("qcache.validation_dropped");
    const SolveResult r = solveOnce(ctx, f, 200000, &cache);
    ASSERT_EQ(r.outcome, smt::Outcome::Sat);
    ASSERT_TRUE(r.model);
    EXPECT_EQ(r.model->bvVars.at("x"), 5u);
    EXPECT_EQ(globalCounter("qcache.validation_dropped"), d0 + 1);

    // The recomputed result replaced the poisoned entry: next query
    // hits and replays the *valid* model.
    const std::uint64_t h0 = globalCounter("qcache.hit");
    const SolveResult r2 = solveOnce(ctx, f, 200000, &cache);
    ASSERT_TRUE(r2.model);
    EXPECT_EQ(r2.model->bvVars.at("x"), 5u);
    EXPECT_EQ(globalCounter("qcache.hit"), h0 + 1);
}

TEST(Cache, EvictionRespectsByteBoundAndLru)
{
    // An empty entry costs 128 estimated bytes: a 300-byte bound
    // holds two entries, never three.
    QueryCache cache({300, ""});
    Entry e;
    e.fingerprint = 7;
    cache.store(Key{1, 1}, e);
    cache.store(Key{2, 2}, e);
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_LE(cache.totalBytes(), cache.maxBytes());

    // Touch {1,1} so {2,2} is the least recently used...
    EXPECT_TRUE(cache.lookup(Key{1, 1}, 7).has_value());
    const std::uint64_t e0 = globalCounter("qcache.evict");
    cache.store(Key{3, 3}, e);
    // ...and gets evicted to make room.
    EXPECT_TRUE(cache.contains(Key{1, 1}));
    EXPECT_FALSE(cache.contains(Key{2, 2}));
    EXPECT_TRUE(cache.contains(Key{3, 3}));
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_LE(cache.totalBytes(), cache.maxBytes());
    EXPECT_EQ(globalCounter("qcache.evict"), e0 + 1);
}

// ---------------------------------------------------------------------
// Persistence

TEST(Persist, RoundTripReplaysWithoutSolving)
{
    const std::string path = tmpPath("roundtrip");
    std::remove(path.c_str());
    expr::ExprContext ctx;
    const Expr sat_f =
        ctx.land(ctx.eq(ctx.add(ctx.bvVar("x"), ctx.bvVar("y")),
                        ctx.bv(5)),
                 ctx.ult(ctx.bvVar("x"), ctx.bv(4)));
    const Expr unsat_f = ctx.ult(ctx.bvVar("x"), ctx.bv(0));
    {
        QueryCache cache({1 << 20, path});
        ASSERT_EQ(solveOnce(ctx, sat_f, 200000, &cache).outcome,
                  smt::Outcome::Sat);
        ASSERT_EQ(solveOnce(ctx, unsat_f, 200000, &cache).outcome,
                  smt::Outcome::Unsat);
        EXPECT_EQ(cache.size(), 2u);
    }

    QueryCache reloaded({1 << 20, path});
    EXPECT_EQ(reloaded.size(), 2u);
    EXPECT_EQ(reloaded.loadDropped(), 0u);

    const std::uint64_t h0 = globalCounter("qcache.hit");
    const SolveResult r = solveOnce(ctx, sat_f, 200000, &reloaded);
    ASSERT_EQ(r.outcome, smt::Outcome::Sat);
    ASSERT_TRUE(r.model);
    EXPECT_TRUE(expr::evalBool(sat_f, *r.model));
    EXPECT_EQ(solveOnce(ctx, unsat_f, 200000, &reloaded).outcome,
              smt::Outcome::Unsat);
    EXPECT_EQ(globalCounter("qcache.hit"), h0 + 2);
    std::remove(path.c_str());
}

TEST(Persist, CorruptRecordsAreDroppedAndCounted)
{
    const std::string path = tmpPath("corrupt");
    std::remove(path.c_str());
    {
        QueryCache cache({1 << 20, path});
        Entry e;
        e.sat = true;
        e.fingerprint = 9;
        e.model.bvVars["v0"] = 5;
        cache.store(Key{10, 11}, e);
    }
    // Damage the file: garbage, a truncated record, a flipped
    // checksum.
    const std::string good = readFile(path);
    {
        std::ofstream out(path, std::ios::app);
        out << "deadbeef this is not a record\n";
        const std::string valid_line =
            good.substr(good.find('\n') + 1); // first real record
        out << valid_line.substr(0, valid_line.size() / 2) << "\n";
        std::string flipped = valid_line;
        flipped[flipped.size() - 2] =
            flipped[flipped.size() - 2] == '0' ? '1' : '0';
        out << flipped; // ends with its own '\n'
    }

    const std::uint64_t d0 = globalCounter("qcache.load_dropped");
    QueryCache reloaded({1 << 20, path});
    EXPECT_EQ(reloaded.size(), 1u);
    EXPECT_TRUE(reloaded.contains(Key{10, 11}));
    EXPECT_GE(reloaded.loadDropped(), 2u);
    EXPECT_GE(globalCounter("qcache.load_dropped") - d0, 2u);
    std::remove(path.c_str());
}

TEST(Persist, ForeignHeaderDisablesPersistence)
{
    const std::string path = tmpPath("foreign");
    {
        std::ofstream out(path);
        out << "somebody-elses-format-v9\n";
    }
    QueryCache cache({1 << 20, path});
    EXPECT_EQ(cache.size(), 0u);
    Entry e;
    e.fingerprint = 1;
    cache.store(Key{1, 2}, e);
    // The store stayed in memory: the foreign file was not touched.
    EXPECT_EQ(readFile(path), "somebody-elses-format-v9\n");
    std::remove(path.c_str());
}

TEST(Persist, ConfigFromEnv)
{
    unsetenv("SCAMV_QCACHE_MB");
    unsetenv("SCAMV_QCACHE_FILE");
    EXPECT_EQ(QueryCache::configFromEnv().maxBytes, 0u);
    EXPECT_TRUE(QueryCache::configFromEnv().filePath.empty());

    setenv("SCAMV_QCACHE_MB", "4", 1);
    setenv("SCAMV_QCACHE_FILE", "/tmp/q.txt", 1);
    CacheConfig c = QueryCache::configFromEnv();
    EXPECT_EQ(c.maxBytes, std::size_t{4} << 20);
    EXPECT_EQ(c.filePath, "/tmp/q.txt");

    setenv("SCAMV_QCACHE_MB", "not-a-number", 1);
    EXPECT_EQ(QueryCache::configFromEnv().maxBytes, 0u);
    setenv("SCAMV_QCACHE_MB", "1048577", 1); // over the 1 TiB cap
    EXPECT_EQ(QueryCache::configFromEnv().maxBytes, 0u);

    unsetenv("SCAMV_QCACHE_MB");
    unsetenv("SCAMV_QCACHE_FILE");
}

// ---------------------------------------------------------------------
// Fault injection

TEST(Faults, QcacheCorruptSiteDropsRecordsOnLoad)
{
    const std::string path = tmpPath("faultsite");
    std::remove(path.c_str());
    expr::ExprContext ctx;
    const Expr f = ctx.eq(ctx.bvVar("x"), ctx.bv(5));
    const Expr g = ctx.ult(ctx.bvVar("x"), ctx.bv(0));
    {
        QueryCache cache({1 << 20, path});
        solveOnce(ctx, f, 200000, &cache);
        solveOnce(ctx, g, 200000, &cache);
        ASSERT_EQ(cache.size(), 2u);
    }

    faults::FaultPlan plan;
    plan.rate = 1.0;
    plan.mask = 1u << static_cast<int>(faults::Site::QcacheCorrupt);
    faults::Injector inj(plan, 1, 0);
    {
        faults::ScopedInjector scope(inj);
        QueryCache damaged({1 << 20, path});
        // Every persisted record was corrupted before parsing...
        EXPECT_EQ(damaged.size(), 0u);
        EXPECT_EQ(damaged.loadDropped(), 2u);
        // ...and the campaign recomputes instead of failing.
        const SolveResult r = solveOnce(ctx, f, 200000, &damaged);
        ASSERT_EQ(r.outcome, smt::Outcome::Sat);
        EXPECT_EQ(r.model->bvVars.at("x"), 5u);
    }
    EXPECT_EQ(inj.injectedCount(), 2u);

    // Without the injector the same file loads cleanly.
    QueryCache clean({1 << 20, path});
    EXPECT_EQ(clean.size(), 2u);
    std::remove(path.c_str());
}

TEST(Faults, QcacheCorruptSiteIsEnvSelectable)
{
    setenv("SCAMV_FAULT_RATE", "0.5", 1);
    setenv("SCAMV_FAULT_PLAN", "qcache_corrupt", 1);
    const faults::FaultPlan plan = faults::FaultPlan::fromEnv();
    EXPECT_TRUE(plan.enabled());
    EXPECT_TRUE(plan.covers(faults::Site::QcacheCorrupt));
    EXPECT_FALSE(plan.covers(faults::Site::SmtUnknown));
    unsetenv("SCAMV_FAULT_RATE");
    unsetenv("SCAMV_FAULT_PLAN");
}

// ---------------------------------------------------------------------
// Enumeration

TEST(Enumerator, ColdWarmAndUncachedStreamsAgree)
{
    expr::ExprContext ctx;
    const Expr x = ctx.bvVar("x");
    const Expr f = ctx.ult(x, ctx.bv(3));
    const std::vector<Expr> bvars{x};

    // Reference: the pre-cache incremental solver loop.
    std::vector<std::uint64_t> ref;
    {
        smt::SmtSolver solver(ctx, f);
        while (solver.solve(200000) == smt::Outcome::Sat) {
            ref.push_back(solver.model().bvVars.at("x"));
            if (!solver.blockCurrentModel(bvars, 12))
                break;
        }
    }
    ASSERT_EQ(ref.size(), 3u);

    auto drain = [&](CachedEnumerator &en) {
        std::vector<std::uint64_t> out;
        for (int i = 0; i < 8; ++i) {
            const CachedEnumerator::Step s = en.step(200000);
            if (s.outcome != smt::Outcome::Sat)
                break;
            out.push_back(s.model->bvVars.at("x"));
            if (en.dead())
                break;
        }
        return out;
    };

    QueryCache cache({1 << 20, ""});
    CachedEnumerator cold(ctx, f, bvars, 12, &cache);
    const std::vector<std::uint64_t> cold_models = drain(cold);
    EXPECT_EQ(cold_models, ref);

    const std::uint64_t h0 = globalCounter("qcache.hit");
    CachedEnumerator warm(ctx, f, bvars, 12, &cache);
    const std::vector<std::uint64_t> warm_models = drain(warm);
    EXPECT_EQ(warm_models, ref);
    EXPECT_EQ(warm.dead(), cold.dead());
    EXPECT_GE(globalCounter("qcache.hit") - h0, ref.size());

    // The uncached enumerator leg reproduces the same stream.
    CachedEnumerator direct(ctx, f, bvars, 12, nullptr);
    EXPECT_EQ(drain(direct), ref);
}

// ---------------------------------------------------------------------
// Recorded history: a rebuild before every step is unobservable

/** The relation of a Stride program's first path pair (Mpart refined
 *  by Mpart'), its register variables and a fixed list of Mline
 *  coverage constraints for it. */
struct StridePair {
    expr::ExprContext ctx;
    Expr formula = nullptr;
    std::vector<Expr> blockVars;
    std::vector<Expr> covers;

    StridePair()
    {
        const bir::Program prog =
            gen::ProgramGenerator(gen::TemplateKind::Stride, 7).next();
        obs::RefinementPair annot(
            obs::makeModel(obs::ModelKind::Mpart),
            obs::makeModel(obs::ModelKind::MpartRefined));
        rel::RelationConfig cfg;
        cfg.refine = true;
        rel::RelationSynthesizer rel(
            ctx, sym::execute(ctx, prog, annot, {"_1"}),
            sym::execute(ctx, prog, annot, {"_2"}), cfg);
        const rel::PathPair &pair = rel.pairs().at(0);
        formula = rel.formulaFor(pair);
        // Block on the relation's own register variables, so every
        // blocking clause shows in the next model.
        for (Expr v : expr::collectVars(formula))
            if (v->kind == expr::Kind::BvVar)
                blockVars.push_back(v);
        Rng rng(11);
        for (int i = 0; i < 12; ++i)
            if (auto cov = rel.lineCoverageConstraint(pair, rng))
                covers.push_back(cov->constraint);
    }
};

/** One scripted enumeration step. */
struct ScriptStep {
    std::int64_t budget = 200000;
    int cover = -1; ///< index into StridePair::covers, -1: none
    /** Site injected on every attempt during the step. */
    std::optional<faults::Site> inject;
};

/** The outcome and model of every step, one line each. */
std::vector<std::string>
runScript(const StridePair &p, CachedEnumerator &en,
          const std::vector<ScriptStep> &script, bool rebuild_each)
{
    std::vector<std::string> out;
    for (const ScriptStep &s : script) {
        if (rebuild_each)
            en.rebuild();
        faults::FaultPlan plan;
        if (s.inject) {
            plan.rate = 1.0;
            plan.mask = 1u << static_cast<int>(*s.inject);
        }
        faults::Injector injector(plan, 1, 0);
        std::optional<faults::ScopedInjector> scope;
        if (s.inject)
            scope.emplace(injector);
        const CachedEnumerator::Step st = en.step(
            s.budget, s.cover >= 0 ? p.covers.at(s.cover) : nullptr);
        std::string line =
            st.outcome == smt::Outcome::Sat     ? "sat"
            : st.outcome == smt::Outcome::Unsat ? "unsat"
                                                : "unknown";
        if (st.model) {
            std::map<std::string, std::uint64_t> sorted(
                st.model->bvVars.begin(), st.model->bvVars.end());
            for (const auto &[mem, words] : st.model->mems)
                for (const auto &[addr, value] : words.entries())
                    sorted[mem + "@" + std::to_string(addr)] = value;
            for (const auto &[name, value] : sorted)
                line += " " + name + "=" + std::to_string(value);
        }
        out.push_back(line);
    }
    return out;
}

std::size_t
countPrefix(const std::vector<std::string> &lines, const char *prefix)
{
    std::size_t n = 0;
    for (const std::string &l : lines)
        n += l.rfind(prefix, 0) == 0;
    return n;
}

TEST(EnumeratorHistory, UncachedRebuildEachStepMatchesLiveSolver)
{
    StridePair p;
    ASSERT_GE(p.covers.size(), 6u);
    const std::vector<ScriptStep> script = {
        {200000, -1, {}},
        {200000, 0, {}},
        {200000, 1, {}},
        {200000, 2, faults::Site::SatTimeout},
        {200000, -1, {}},
        {200000, 3, faults::Site::SmtUnknown},
        {200000, -1, faults::Site::SmtUnknown},
        {0, 4, {}},
        {200000, 2, {}},
        {200000, 5, {}},
        {0, -1, {}},
        {200000, -1, {}},
        {200000, 4, {}},
        {200000, -1, {}},
    };
    CachedEnumerator live(p.ctx, p.formula, p.blockVars, 12, nullptr);
    CachedEnumerator rebuilt(p.ctx, p.formula, p.blockVars, 12, nullptr);
    const std::vector<std::string> want =
        runScript(p, live, script, false);
    EXPECT_EQ(runScript(p, rebuilt, script, true), want);
    EXPECT_EQ(rebuilt.dead(), live.dead());
    // The script reaches every kind of step it was written for: three
    // injected Unknowns, one genuine budget exhaustion under a
    // coverage constraint, infeasible constraints and fresh models.
    EXPECT_EQ(want[3], "unknown");
    EXPECT_EQ(want[5], "unknown");
    EXPECT_EQ(want[6], "unknown");
    EXPECT_EQ(want[7], "unknown");
    EXPECT_EQ(countPrefix(want, "unknown"), 4u);
    EXPECT_EQ(countPrefix(want, "unsat"), 5u);
    EXPECT_EQ(countPrefix(want, "sat"), 5u);
}

TEST(EnumeratorHistory, CachedRebuildEachStepMatchesLiveSolver)
{
    StridePair p;
    // Steps 0-7 at the default budget are cached before each leg; a
    // step at another budget, or past step 7, misses.
    const auto warm = [&](QueryCache &cache) {
        CachedEnumerator en(p.ctx, p.formula, p.blockVars, 12, &cache);
        for (int i = 0; i < 8; ++i)
            ASSERT_EQ(en.step(200000).outcome, smt::Outcome::Sat);
    };
    const std::vector<ScriptStep> script = {
        {200000, -1, {}},                       // hit
        {200000, -1, {}},                       // hit
        {100000, -1, {}},                       // miss after hits
        {200000, -1, {}},                       // hit after a miss
        {200000, -1, faults::Site::SmtUnknown}, // gate: no step
        {200000, -1, {}},                       // hit
        {0, -1, {}},                            // miss
        {200000, -1, {}},                       // hit
        {200000, -1, {}},                       // hit
        {200000, -1, {}},                       // miss
        {200000, -1, {}},                       // miss
    };
    QueryCache live_cache({1 << 20, ""});
    QueryCache rebuilt_cache({1 << 20, ""});
    warm(live_cache);
    warm(rebuilt_cache);
    const std::uint64_t h0 = globalCounter("qcache.hit");
    const std::uint64_t m0 = globalCounter("qcache.miss");
    CachedEnumerator live(p.ctx, p.formula, p.blockVars, 12, &live_cache);
    const std::vector<std::string> want =
        runScript(p, live, script, false);
    EXPECT_EQ(globalCounter("qcache.hit") - h0, 6u);
    EXPECT_EQ(globalCounter("qcache.miss") - m0, 4u);
    CachedEnumerator rebuilt(p.ctx, p.formula, p.blockVars, 12,
                             &rebuilt_cache);
    EXPECT_EQ(runScript(p, rebuilt, script, true), want);
    // Hits and misses together enumerate exactly what the uncached
    // solver does.
    CachedEnumerator direct(p.ctx, p.formula, p.blockVars, 12, nullptr);
    EXPECT_EQ(runScript(p, direct, script, false), want);
    EXPECT_EQ(countPrefix(want, "sat"), script.size() - 1);
    EXPECT_EQ(want[4], "unknown");
}

// ---------------------------------------------------------------------
// Campaign-level determinism

core::PipelineConfig
campaignConfig()
{
    core::PipelineConfig cfg;
    cfg.templateKind = gen::TemplateKind::A;
    cfg.model = obs::ModelKind::Mct;
    cfg.refinement = obs::ModelKind::Mspec;
    cfg.train = true;
    cfg.programs = 4;
    cfg.testsPerProgram = 5;
    cfg.seed = 42;
    cfg.deterministicMetricsTiming = true;
    return cfg;
}

std::string
runCampaign(const core::PipelineConfig &base, int threads,
            QueryCache *qc, core::ExperimentDb *db)
{
    core::PipelineConfig cfg = base;
    cfg.threads = threads;
    cfg.queryCache = qc;
    cfg.database = db;
    return metrics::toJson(core::Pipeline(cfg).run().metrics);
}

std::string
dbCsv(const core::ExperimentDb &db, const char *tag)
{
    const std::string path = tmpPath(tag);
    EXPECT_TRUE(db.exportCsv(path));
    const std::string text = readFile(path);
    std::remove(path.c_str());
    return text;
}

TEST(Campaign, WarmPersistedCacheIsThreadCountByteIdentical)
{
    const core::PipelineConfig cfg = campaignConfig();
    const std::string path = tmpPath("campaign");
    std::remove(path.c_str());

    core::ExperimentDb db_cold, db_warm1, db_warm4;
    std::string j_cold, j_warm1, j_warm4;
    {
        QueryCache cold({8 << 20, path});
        j_cold = runCampaign(cfg, 1, &cold, &db_cold);
    }
    const std::uint64_t h0 = globalCounter("qcache.hit");
    {
        QueryCache warm({8 << 20, path});
        j_warm1 = runCampaign(cfg, 1, &warm, &db_warm1);
    }
    EXPECT_GT(globalCounter("qcache.hit") - h0, 0u);
    {
        QueryCache warm({8 << 20, path});
        j_warm4 = runCampaign(cfg, 4, &warm, &db_warm4);
    }

    EXPECT_EQ(j_cold, j_warm1);
    EXPECT_EQ(j_warm1, j_warm4);
    EXPECT_EQ(dbCsv(db_cold, "db_cold"), dbCsv(db_warm1, "db_warm1"));
    EXPECT_EQ(dbCsv(db_warm1, "db_warm1b"),
              dbCsv(db_warm4, "db_warm4"));
    std::remove(path.c_str());
}

TEST(Campaign, ResumeAfterTruncatedCheckpointMatchesCold)
{
    const core::PipelineConfig cfg = campaignConfig();
    const std::string path = tmpPath("resume");
    std::remove(path.c_str());

    core::ExperimentDb db_cold, db_resumed;
    std::string j_cold, j_resumed;
    {
        QueryCache cold({8 << 20, path});
        j_cold = runCampaign(cfg, 1, &cold, &db_cold);
    }

    // Simulate a campaign killed mid-write: keep the first half of
    // the checkpoint and cut the last surviving record in two.
    const std::string full = readFile(path);
    {
        std::ofstream out(path, std::ios::trunc);
        out << full.substr(0, full.size() / 2);
    }

    const std::uint64_t d0 = globalCounter("qcache.load_dropped");
    {
        QueryCache resumed({8 << 20, path});
        j_resumed = runCampaign(cfg, 1, &resumed, &db_resumed);
    }
    // The torn record was dropped, not trusted...
    EXPECT_GE(globalCounter("qcache.load_dropped") - d0, 1u);
    // ...and the resumed campaign is byte-identical to the cold one.
    EXPECT_EQ(j_cold, j_resumed);
    EXPECT_EQ(dbCsv(db_cold, "db_cold2"),
              dbCsv(db_resumed, "db_resumed"));
    std::remove(path.c_str());
}

TEST(Campaign, FaultPlansBypassTheCache)
{
    // A fault-injection campaign must not consult the cache (replay
    // would change which sites fire): run() nulls the cache and
    // counts the bypass.
    core::PipelineConfig cfg = campaignConfig();
    cfg.programs = 2;
    cfg.testsPerProgram = 3;
    cfg.faultPlan.rate = 0.05;
    cfg.faultPlan.mask = faults::FaultPlan::maskAll();

    QueryCache cache({8 << 20, ""});
    cfg.queryCache = &cache;
    const std::uint64_t b0 = globalCounter("qcache.bypass_faults");
    core::Pipeline(cfg).run();
    EXPECT_EQ(globalCounter("qcache.bypass_faults"), b0 + 1);
    EXPECT_EQ(cache.size(), 0u);
}

} // namespace
} // namespace scamv::qcache
