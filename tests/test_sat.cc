/** @file Unit tests for the CDCL SAT solver. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "sat/solver.hh"
#include "support/rng.hh"

namespace scamv::sat {
namespace {

using Cnf = std::vector<std::vector<Lit>>;

/** @return whether the bit assignment `bits` satisfies literal l. */
bool
holds(std::uint32_t bits, Lit l)
{
    return ((bits >> var(l)) & 1u) != static_cast<std::uint32_t>(sign(l));
}

/** Exhaustive check: some assignment of n vars satisfies cnf + units. */
bool
bruteForceSat(int n, const Cnf &cnf, const std::vector<Lit> &units)
{
    for (std::uint32_t bits = 0; bits < (1u << n); ++bits) {
        auto sat_lit = [&](Lit l) { return holds(bits, l); };
        auto sat_clause = [&](const std::vector<Lit> &c) {
            return std::any_of(c.begin(), c.end(), sat_lit);
        };
        if (std::all_of(units.begin(), units.end(), sat_lit) &&
            std::all_of(cnf.begin(), cnf.end(), sat_clause))
            return true;
    }
    return false;
}

/** @return whether the solver's model satisfies every clause and unit. */
bool
modelSatisfies(const Solver &s, const Cnf &cnf,
               const std::vector<Lit> &units = {})
{
    auto sat_lit = [&](Lit l) { return s.modelValue(var(l)) != sign(l); };
    for (const auto &c : cnf)
        if (!std::any_of(c.begin(), c.end(), sat_lit))
            return false;
    return std::all_of(units.begin(), units.end(), sat_lit);
}

TEST(Sat, EmptyFormulaIsSat)
{
    Solver s;
    EXPECT_EQ(s.solve(), Result::Sat);
}

TEST(Sat, UnitClause)
{
    Solver s;
    Var v = s.newVar();
    EXPECT_TRUE(s.addUnit(mkLit(v)));
    EXPECT_EQ(s.solve(), Result::Sat);
    EXPECT_TRUE(s.modelValue(v));
}

TEST(Sat, ContradictoryUnitsAreUnsat)
{
    Solver s;
    Var v = s.newVar();
    EXPECT_TRUE(s.addUnit(mkLit(v)));
    EXPECT_FALSE(s.addUnit(~mkLit(v)));
    EXPECT_EQ(s.solve(), Result::Unsat);
}

TEST(Sat, SimpleImplicationChain)
{
    Solver s;
    Var a = s.newVar(), b = s.newVar(), c = s.newVar();
    // a, a->b, b->c
    s.addUnit(mkLit(a));
    s.addBinary(~mkLit(a), mkLit(b));
    s.addBinary(~mkLit(b), mkLit(c));
    ASSERT_EQ(s.solve(), Result::Sat);
    EXPECT_TRUE(s.modelValue(a));
    EXPECT_TRUE(s.modelValue(b));
    EXPECT_TRUE(s.modelValue(c));
}

TEST(Sat, TautologicalClauseIgnored)
{
    Solver s;
    Var a = s.newVar();
    EXPECT_TRUE(s.addBinary(mkLit(a), ~mkLit(a)));
    EXPECT_EQ(s.solve(), Result::Sat);
}

TEST(Sat, DuplicateLiteralsDeduplicated)
{
    Solver s;
    Var a = s.newVar();
    EXPECT_TRUE(s.addClause({mkLit(a), mkLit(a), mkLit(a)}));
    ASSERT_EQ(s.solve(), Result::Sat);
    EXPECT_TRUE(s.modelValue(a));
}

TEST(Sat, PigeonholeTwoInOneIsUnsat)
{
    // 2 pigeons, 1 hole.
    Solver s;
    Var p00 = s.newVar(); // pigeon 0 in hole 0
    Var p10 = s.newVar(); // pigeon 1 in hole 0
    s.addUnit(mkLit(p00));
    s.addUnit(mkLit(p10));
    s.addBinary(~mkLit(p00), ~mkLit(p10));
    EXPECT_EQ(s.solve(), Result::Unsat);
}

TEST(Sat, PigeonholeFourInThreeIsUnsat)
{
    // Classic PHP(4,3): needs real conflict analysis to refute.
    Solver s;
    const int P = 4, H = 3;
    Var v[4][3];
    for (int p = 0; p < P; ++p)
        for (int h = 0; h < H; ++h)
            v[p][h] = s.newVar();
    for (int p = 0; p < P; ++p) {
        std::vector<Lit> c;
        for (int h = 0; h < H; ++h)
            c.push_back(mkLit(v[p][h]));
        s.addClause(c);
    }
    for (int h = 0; h < H; ++h)
        for (int p1 = 0; p1 < P; ++p1)
            for (int p2 = p1 + 1; p2 < P; ++p2)
                s.addBinary(~mkLit(v[p1][h]), ~mkLit(v[p2][h]));
    EXPECT_EQ(s.solve(), Result::Unsat);
}

TEST(Sat, XorChainSat)
{
    // x1 xor x2 = 1, x2 xor x3 = 1, x1 xor x3 = 0: satisfiable.
    Solver s;
    Var x1 = s.newVar(), x2 = s.newVar(), x3 = s.newVar();
    auto add_xor = [&](Var a, Var b, bool value) {
        if (value) {
            s.addBinary(mkLit(a), mkLit(b));
            s.addBinary(~mkLit(a), ~mkLit(b));
        } else {
            s.addBinary(~mkLit(a), mkLit(b));
            s.addBinary(mkLit(a), ~mkLit(b));
        }
    };
    add_xor(x1, x2, true);
    add_xor(x2, x3, true);
    add_xor(x1, x3, false);
    ASSERT_EQ(s.solve(), Result::Sat);
    EXPECT_NE(s.modelValue(x1), s.modelValue(x2));
    EXPECT_NE(s.modelValue(x2), s.modelValue(x3));
    EXPECT_EQ(s.modelValue(x1), s.modelValue(x3));
}

TEST(Sat, XorChainUnsatParity)
{
    // Odd cycle parity: x1^x2=1, x2^x3=1, x1^x3=1 is unsat.
    Solver s;
    Var x1 = s.newVar(), x2 = s.newVar(), x3 = s.newVar();
    auto add_xor1 = [&](Var a, Var b) {
        s.addBinary(mkLit(a), mkLit(b));
        s.addBinary(~mkLit(a), ~mkLit(b));
    };
    add_xor1(x1, x2);
    add_xor1(x2, x3);
    add_xor1(x1, x3);
    EXPECT_EQ(s.solve(), Result::Unsat);
}

TEST(Sat, ModelSatisfiesAllClauses)
{
    // Random 3-SAT at low clause density: should be satisfiable and
    // every model returned must satisfy every clause.
    Rng rng(99);
    for (int round = 0; round < 10; ++round) {
        Solver s;
        const int n = 30;
        std::vector<Var> vars;
        for (int i = 0; i < n; ++i)
            vars.push_back(s.newVar());
        std::vector<std::vector<Lit>> clauses;
        for (int c = 0; c < 60; ++c) {
            std::vector<Lit> clause;
            for (int k = 0; k < 3; ++k)
                clause.push_back(
                    mkLit(vars[rng.below(n)], rng.chance(0.5)));
            clauses.push_back(clause);
            s.addClause(clause);
        }
        ASSERT_EQ(s.solve(), Result::Sat) << "round " << round;
        for (const auto &clause : clauses) {
            bool satisfied = false;
            for (Lit l : clause)
                satisfied |= s.modelValue(var(l)) != sign(l);
            EXPECT_TRUE(satisfied);
        }
    }
}

TEST(Sat, AssumptionsDoNotPersist)
{
    Solver s;
    Var a = s.newVar();
    EXPECT_EQ(s.solveAssuming({mkLit(a)}), Result::Sat);
    EXPECT_TRUE(s.modelValue(a));
    EXPECT_EQ(s.solveAssuming({~mkLit(a)}), Result::Sat);
    EXPECT_FALSE(s.modelValue(a));
}

TEST(Sat, ConflictingAssumptionUnsatButInstanceAlive)
{
    Solver s;
    Var a = s.newVar(), b = s.newVar();
    s.addUnit(mkLit(a));
    s.addBinary(~mkLit(a), mkLit(b)); // a -> b
    EXPECT_EQ(s.solveAssuming({~mkLit(b)}), Result::Unsat);
    EXPECT_EQ(s.solve(), Result::Sat); // instance itself still sat
}

TEST(Sat, PhaseSettingBiasesModel)
{
    Solver s;
    Var a = s.newVar();
    // Unconstrained variable takes its saved phase.
    s.setPhase(a, true);
    ASSERT_EQ(s.solve(), Result::Sat);
    EXPECT_TRUE(s.modelValue(a));
}

TEST(Sat, DefaultPhaseIsFalse)
{
    Solver s;
    Var a = s.newVar();
    ASSERT_EQ(s.solve(), Result::Sat);
    EXPECT_FALSE(s.modelValue(a)); // canonical "zero" models
}

TEST(Sat, IncrementalClauseAddition)
{
    Solver s;
    Var a = s.newVar(), b = s.newVar();
    s.addBinary(mkLit(a), mkLit(b));
    ASSERT_EQ(s.solve(), Result::Sat);
    // Block the current model repeatedly; eventually unsat.
    int models = 0;
    while (s.solve() == Result::Sat && models < 10) {
        ++models;
        std::vector<Lit> blocking;
        for (Var v : {a, b})
            blocking.push_back(s.modelValue(v) ? ~mkLit(v) : mkLit(v));
        if (!s.addClause(blocking))
            break;
    }
    EXPECT_GE(models, 2); // at least two distinct models of (a | b)
    EXPECT_LE(models, 3); // exactly three exist
}

TEST(Sat, ConflictBudgetReturnsUnknown)
{
    // A hard instance (PHP(7,6)) with a tiny budget must time out.
    Solver s;
    const int P = 7, H = 6;
    std::vector<std::vector<Var>> v(P, std::vector<Var>(H));
    for (int p = 0; p < P; ++p)
        for (int h = 0; h < H; ++h)
            v[p][h] = s.newVar();
    for (int p = 0; p < P; ++p) {
        std::vector<Lit> c;
        for (int h = 0; h < H; ++h)
            c.push_back(mkLit(v[p][h]));
        s.addClause(c);
    }
    for (int h = 0; h < H; ++h)
        for (int p1 = 0; p1 < P; ++p1)
            for (int p2 = p1 + 1; p2 < P; ++p2)
                s.addBinary(~mkLit(v[p1][h]), ~mkLit(v[p2][h]));
    EXPECT_EQ(s.solve(1), Result::Unknown);
}

TEST(Sat, StatisticsAdvance)
{
    Solver s;
    Var a = s.newVar(), b = s.newVar();
    s.addBinary(mkLit(a), mkLit(b));
    s.addBinary(~mkLit(a), mkLit(b));
    s.addBinary(mkLit(a), ~mkLit(b));
    ASSERT_EQ(s.solve(), Result::Sat);
    EXPECT_GT(s.decisions() + s.propagations(), 0u);
}

TEST(Sat, RandomCnfMatchesBruteForceIncrementally)
{
    // Seeded random CNF (widths 1..4, duplicate and complementary
    // literals allowed) grown between solves, each solve also run
    // under random assumptions; every verdict is checked against
    // exhaustive enumeration and every model against every clause.
    Rng rng(2024);
    int sat_verdicts = 0, unsat_verdicts = 0;
    for (int round = 0; round < 40; ++round) {
        const int n = 4 + static_cast<int>(rng.below(9)); // 4..12 vars
        Solver s;
        for (int i = 0; i < n; ++i)
            s.newVar();
        Cnf cnf;
        for (int step = 0; step < 5; ++step) {
            const int add = step == 0 ? 2 * n : n / 2 + 1;
            for (int c = 0; c < add; ++c) {
                std::vector<Lit> clause;
                const int width = 1 + static_cast<int>(rng.below(4));
                for (int k = 0; k < width; ++k)
                    clause.push_back(mkLit(static_cast<Var>(rng.below(n)),
                                           rng.chance(0.5)));
                cnf.push_back(clause);
                s.addClause(clause);
            }
            const bool expect = bruteForceSat(n, cnf, {});
            const Result r = s.solve();
            ASSERT_EQ(r, expect ? Result::Sat : Result::Unsat)
                << "round " << round << " step " << step;
            if (r == Result::Sat) {
                EXPECT_TRUE(modelSatisfies(s, cnf));
            }
            (r == Result::Sat ? sat_verdicts : unsat_verdicts)++;

            std::vector<Lit> assume;
            for (int k = static_cast<int>(rng.below(3)); k >= 0; --k)
                assume.push_back(mkLit(static_cast<Var>(rng.below(n)),
                                       rng.chance(0.5)));
            const bool expect_a = bruteForceSat(n, cnf, assume);
            const Result ra = s.solveAssuming(assume);
            ASSERT_EQ(ra, expect_a ? Result::Sat : Result::Unsat)
                << "round " << round << " step " << step << " (assuming)";
            if (ra == Result::Sat) {
                EXPECT_TRUE(modelSatisfies(s, cnf, assume));
            }
        }
    }
    // The generator must exercise both verdicts.
    EXPECT_GT(sat_verdicts, 20);
    EXPECT_GT(unsat_verdicts, 20);
}

TEST(Sat, LearntClauseReductionKeepsSearchSound)
{
    // PHP(8,7) with every at-least-one clause guarded by a selector
    // `sel`, plus a planted (satisfiable) random 3-SAT part.  With
    // sel decided false first, refuting the pigeonhole core takes
    // well over the 4096-learnt limit, so reduceDB compacts the
    // clause arena mid-search; the search must still end in a model
    // of every original clause.
    Solver s;
    Cnf cnf;
    auto add = [&](std::vector<Lit> c) {
        cnf.push_back(c);
        s.addClause(c);
    };
    const Var sel = s.newVar();
    const int P = 8, H = 7;
    std::vector<std::vector<Var>> v(P, std::vector<Var>(H));
    for (auto &row : v)
        for (Var &x : row)
            x = s.newVar();
    for (int p = 0; p < P; ++p) {
        std::vector<Lit> c{mkLit(sel)};
        for (int h = 0; h < H; ++h)
            c.push_back(mkLit(v[p][h]));
        add(c);
    }
    for (int h = 0; h < H; ++h)
        for (int p1 = 0; p1 < P; ++p1)
            for (int p2 = p1 + 1; p2 < P; ++p2)
                add({~mkLit(v[p1][h]), ~mkLit(v[p2][h])});

    Rng rng(7);
    const int n = 60;
    std::vector<Var> xs;
    std::vector<bool> hidden;
    for (int i = 0; i < n; ++i) {
        xs.push_back(s.newVar());
        hidden.push_back(rng.chance(0.5));
    }
    for (int added = 0; added < 4 * n;) {
        std::vector<Lit> c;
        bool planted_ok = false;
        for (int k = 0; k < 3; ++k) {
            const int i = static_cast<int>(rng.below(n));
            const bool neg = rng.chance(0.5);
            c.push_back(mkLit(xs[i], neg));
            planted_ok |= hidden[i] != neg;
        }
        if (planted_ok) {
            add(c);
            ++added;
        }
    }

    ASSERT_EQ(s.solve(), Result::Sat);
    EXPECT_GT(s.conflicts(), 4096u); // reduceDB ran at least once
    EXPECT_TRUE(s.modelValue(sel));
    EXPECT_TRUE(modelSatisfies(s, cnf));

    // The compacted database keeps answering incremental queries.
    EXPECT_EQ(s.solveAssuming({~mkLit(sel)}), Result::Unsat);
    std::vector<Lit> assume;
    for (int i = 0; i < 8; ++i)
        assume.push_back(mkLit(xs[i], !hidden[i]));
    ASSERT_EQ(s.solveAssuming(assume), Result::Sat);
    EXPECT_TRUE(modelSatisfies(s, cnf, assume));
}

} // namespace
} // namespace scamv::sat
