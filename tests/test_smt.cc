/** @file Unit tests for the SMT-lite facade (reads, models, blocking). */

#include <gtest/gtest.h>

#include <set>

#include "expr/eval.hh"
#include "smt/solver.hh"

namespace scamv::smt {
namespace {

using expr::Expr;
using expr::ExprContext;

TEST(Smt, TrivialSatAndUnsat)
{
    ExprContext ctx;
    EXPECT_EQ(checkSat(ctx, ctx.tru()), Outcome::Sat);
    EXPECT_EQ(checkSat(ctx, ctx.fls()), Outcome::Unsat);
}

TEST(Smt, ModelSatisfiesFormula)
{
    ExprContext ctx;
    Expr x = ctx.bvVar("x");
    Expr y = ctx.bvVar("y");
    Expr f = ctx.land(ctx.eq(ctx.add(x, y), ctx.bv(100)),
                      ctx.ult(x, ctx.bv(20)));
    SmtSolver s(ctx, f);
    ASSERT_EQ(s.solve(), Outcome::Sat);
    auto model = s.model();
    EXPECT_TRUE(expr::evalBool(f, model));
    EXPECT_EQ(model.bv("x") + model.bv("y"), 100u);
    EXPECT_LT(model.bv("x"), 20u);
}

TEST(Smt, MemoryReadProducesInitialMemory)
{
    ExprContext ctx;
    Expr mem = ctx.memVar("mem_1");
    Expr x = ctx.bvVar("x0_1");
    Expr f = ctx.land(ctx.eq(ctx.read(mem, x), ctx.bv(0xAB)),
                      ctx.eq(x, ctx.bv(0x1000)));
    SmtSolver s(ctx, f);
    ASSERT_EQ(s.solve(), Outcome::Sat);
    auto model = s.model();
    ASSERT_TRUE(model.mems.count("mem_1"));
    EXPECT_EQ(model.mems["mem_1"].load(0x1000), 0xABu);
    EXPECT_TRUE(expr::evalBool(f, model));
}

TEST(Smt, AckermannConsistencySameAddressSameValue)
{
    // read(m, a) != read(m, b) && a == b must be unsat.
    ExprContext ctx;
    Expr mem = ctx.memVar("m");
    Expr a = ctx.bvVar("a");
    Expr b = ctx.bvVar("b");
    Expr f = ctx.land(ctx.neq(ctx.read(mem, a), ctx.read(mem, b)),
                      ctx.eq(a, b));
    EXPECT_EQ(checkSat(ctx, f), Outcome::Unsat);
}

TEST(Smt, DistinctAddressesMayDiffer)
{
    ExprContext ctx;
    Expr mem = ctx.memVar("m");
    Expr a = ctx.bvVar("a");
    Expr b = ctx.bvVar("b");
    Expr f = ctx.neq(ctx.read(mem, a), ctx.read(mem, b));
    SmtSolver s(ctx, f);
    ASSERT_EQ(s.solve(), Outcome::Sat);
    auto model = s.model();
    EXPECT_NE(model.bv("a"), model.bv("b"));
    EXPECT_TRUE(expr::evalBool(f, model));
}

/**
 * The corpus contract's shape: words 0..n-1 at kBase pinned equal
 * across mem_1 and mem_2, plus mem_1's words 0 and 1 forced apart.
 */
constexpr std::uint64_t kBase = 0x80000;

Expr
pinnedWords(ExprContext &ctx, int n)
{
    Expr m1 = ctx.memVar("mem_1"), m2 = ctx.memVar("mem_2");
    std::vector<Expr> conjuncts;
    for (int i = 0; i < n; ++i) {
        Expr w = ctx.bv(kBase + 8 * i);
        conjuncts.push_back(ctx.eq(ctx.read(m1, w), ctx.read(m2, w)));
    }
    conjuncts.push_back(ctx.neq(ctx.read(m1, ctx.bv(kBase)),
                                ctx.read(m1, ctx.bv(kBase + 8))));
    return ctx.conj(conjuncts);
}

TEST(Smt, ConstantAddressReadsAckermannizeLinearly)
{
    // Distinct constant addresses never alias, so the functional-
    // consistency constraints must cost O(N) nodes, not one
    // eq(fresh_i, fresh_j) per pair of reads (~N^2/2 per memory).
    constexpr int kN = 512;
    ExprContext ctx;
    const Expr f = pinnedWords(ctx, kN);
    const std::size_t before = ctx.size();
    SmtSolver s(ctx, f);
    EXPECT_LT(ctx.size() - before, 16u * kN);

    // Two distinct constants stay independent.
    ASSERT_EQ(s.solve(), Outcome::Sat);
    auto model = s.model();
    EXPECT_TRUE(expr::evalBool(f, model));
    EXPECT_NE(model.mems["mem_1"].load(kBase),
              model.mems["mem_1"].load(kBase + 8));
}

TEST(Smt, SymbolicReadStaysConsistentWithConstantReads)
{
    // A symbolic address forced onto word 7 still reads word 7's
    // value: pairs with a symbolic side keep their constraint.
    ExprContext ctx;
    Expr m1 = ctx.memVar("mem_1");
    Expr a = ctx.bvVar("a");
    Expr w7 = ctx.bv(kBase + 8 * 7);
    const Expr f = ctx.conj({pinnedWords(ctx, 16), ctx.eq(a, w7),
                             ctx.eq(ctx.read(m1, a), ctx.bv(0xAB))});
    SmtSolver s(ctx, f);
    ASSERT_EQ(s.solve(), Outcome::Sat);
    auto model = s.model();
    EXPECT_TRUE(expr::evalBool(f, model));
    EXPECT_EQ(model.mems["mem_1"].load(kBase + 8 * 7), 0xABu);
    EXPECT_EQ(model.mems["mem_2"].load(kBase + 8 * 7), 0xABu);

    s.require(ctx.neq(ctx.read(m1, a), ctx.read(m1, w7)));
    EXPECT_EQ(s.solve(), Outcome::Unsat);
}

TEST(Smt, ReadOverStoreChainLowered)
{
    // mem' = store(m, a, 7); read(mem', b) == 9 with a == b is unsat.
    ExprContext ctx;
    Expr m = ctx.memVar("m");
    Expr a = ctx.bvVar("a");
    Expr b = ctx.bvVar("b");
    Expr chain = ctx.store(m, a, ctx.bv(7));
    Expr f = ctx.land(ctx.eq(ctx.read(chain, b), ctx.bv(9)),
                      ctx.eq(a, b));
    EXPECT_EQ(checkSat(ctx, f), Outcome::Unsat);
    // Without the alias it is satisfiable.
    Expr g = ctx.eq(ctx.read(chain, b), ctx.bv(9));
    SmtSolver s(ctx, g);
    ASSERT_EQ(s.solve(), Outcome::Sat);
    auto model = s.model();
    EXPECT_NE(model.bv("a"), model.bv("b"));
}

TEST(Smt, NestedReadAddressing)
{
    // mem[mem[x]] == 5 with mem[x] constrained into a region.
    ExprContext ctx;
    Expr mem = ctx.memVar("mem_1");
    Expr x = ctx.bvVar("x");
    Expr inner = ctx.read(mem, x);
    Expr f = ctx.conj({ctx.eq(ctx.read(mem, inner), ctx.bv(5)),
                       ctx.ule(ctx.bv(0x1000), inner),
                       ctx.ult(inner, ctx.bv(0x2000)),
                       ctx.eq(x, ctx.bv(0x500))});
    SmtSolver s(ctx, f);
    ASSERT_EQ(s.solve(), Outcome::Sat);
    auto model = s.model();
    EXPECT_TRUE(expr::evalBool(f, model));
    const std::uint64_t ptr = model.mems["mem_1"].load(0x500);
    EXPECT_GE(ptr, 0x1000u);
    EXPECT_LT(ptr, 0x2000u);
    EXPECT_EQ(model.mems["mem_1"].load(ptr), 5u);
}

TEST(Smt, RequireConjoinsConstraints)
{
    ExprContext ctx;
    Expr x = ctx.bvVar("x");
    SmtSolver s(ctx, ctx.ult(x, ctx.bv(10)));
    ASSERT_EQ(s.solve(), Outcome::Sat);
    s.require(ctx.ult(ctx.bv(3), x));
    ASSERT_EQ(s.solve(), Outcome::Sat);
    auto model = s.model();
    EXPECT_GT(model.bv("x"), 3u);
    EXPECT_LT(model.bv("x"), 10u);
    s.require(ctx.ult(x, ctx.bv(2)));
    EXPECT_EQ(s.solve(), Outcome::Unsat);
}

TEST(Smt, SolveWithIsTemporary)
{
    ExprContext ctx;
    Expr x = ctx.bvVar("x");
    SmtSolver s(ctx, ctx.ult(x, ctx.bv(100)));
    EXPECT_EQ(s.solveWith(ctx.eq(x, ctx.bv(200))), Outcome::Unsat);
    // The temporary constraint must not stick.
    EXPECT_EQ(s.solve(), Outcome::Sat);
    EXPECT_EQ(s.solveWith(ctx.eq(x, ctx.bv(42))), Outcome::Sat);
    EXPECT_EQ(s.model().bv("x"), 42u);
}

TEST(Smt, BlockCurrentModelEnumeratesDistinctModels)
{
    ExprContext ctx;
    Expr x = ctx.bvVar("x");
    SmtSolver s(ctx, ctx.ult(x, ctx.bv(4))); // 4 models
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 4; ++i) {
        ASSERT_EQ(s.solve(), Outcome::Sat) << i;
        seen.insert(s.model().bv("x"));
        ASSERT_TRUE(s.blockCurrentModel({x}) || i == 3);
    }
    EXPECT_EQ(seen.size(), 4u);
    EXPECT_EQ(s.solve(), Outcome::Unsat);
}

TEST(Smt, CanonicalModelsAreMinimal)
{
    // With default phases unconstrained bits settle to 0 — the
    // "boring Z3 model" behaviour the paper's baseline exhibits.
    ExprContext ctx;
    Expr x = ctx.bvVar("x");
    SmtSolver s(ctx, ctx.ule(ctx.bv(0), x));
    ASSERT_EQ(s.solve(), Outcome::Sat);
    EXPECT_EQ(s.model().bv("x"), 0u);
}

TEST(Smt, RandomPhasesDiversifyModels)
{
    ExprContext ctx;
    Rng rng(5);
    Expr x = ctx.bvVar("x");
    SmtSolver s(ctx, ctx.ult(ctx.bv(100), x));
    s.randomizePhases(rng);
    ASSERT_EQ(s.solve(), Outcome::Sat);
    const std::uint64_t v1 = s.model().bv("x");
    s.randomizePhases(rng);
    ASSERT_EQ(s.solve(), Outcome::Sat);
    const std::uint64_t v2 = s.model().bv("x");
    EXPECT_NE(v1, v2); // astronomically unlikely to collide
}

TEST(Smt, RelationShapedFormula)
{
    // A miniature of the Mct relation for "ldr x2,[x0]": path conds
    // trivially true, base obs equal (x0_1 == x0_2), refined obs
    // differ (mem values differ).
    ExprContext ctx;
    Expr x0_1 = ctx.bvVar("x0_1"), x0_2 = ctx.bvVar("x0_2");
    Expr m1 = ctx.memVar("mem_1"), m2 = ctx.memVar("mem_2");
    Expr f = ctx.conj({
        ctx.eq(x0_1, x0_2),
        ctx.neq(ctx.read(m1, x0_1), ctx.read(m2, x0_2)),
        ctx.ule(ctx.bv(0x80000), x0_1),
        ctx.ult(x0_1, ctx.bv(0x100000)),
    });
    SmtSolver s(ctx, f);
    ASSERT_EQ(s.solve(), Outcome::Sat);
    auto model = s.model();
    EXPECT_TRUE(expr::evalBool(f, model));
    EXPECT_EQ(model.bv("x0_1"), model.bv("x0_2"));
    EXPECT_NE(model.mems["mem_1"].load(model.bv("x0_1")),
              model.mems["mem_2"].load(model.bv("x0_2")));
}

TEST(Smt, UnknownOnTinyBudget)
{
    // Multiplication circuit with a 1-conflict budget: Unknown.
    ExprContext ctx;
    Expr x = ctx.bvVar("x");
    Expr y = ctx.bvVar("y");
    Expr f = ctx.land(
        ctx.eq(ctx.mul(x, y), ctx.bv(0x123456789abcdefULL)),
        ctx.land(ctx.ult(ctx.bv(1), x), ctx.ult(ctx.bv(1), y)));
    SmtSolver s(ctx, f);
    const Outcome o = s.solve(1);
    EXPECT_TRUE(o == Outcome::Unknown || o == Outcome::Sat);
}

} // namespace
} // namespace scamv::smt
