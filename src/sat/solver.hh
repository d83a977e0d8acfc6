/**
 * @file
 * CDCL SAT solver (MiniSat-style).
 *
 * Backend for the SMT-lite bitvector solver in src/smt, which replaces
 * Z3 in the Scam-V pipeline (see DESIGN.md).  The solver implements
 * two-watched-literal propagation, 1-UIP conflict analysis, VSIDS
 * branching with an indexed max-heap, phase saving with configurable
 * default polarity, and Luby restarts.
 *
 * Clauses live in one flat literal arena: a clause is a header
 * {start, size, learnt, activity} indexing a contiguous run of
 * `arena`, so adding, learning and propagating allocate nothing per
 * clause.  reduceDB compacts the arena in place, keeping clause order.
 *
 * The default polarity is `false`, so unconstrained variables settle
 * to zero: extracted bitvector models are "canonical" (small, often
 * equal across the two states) exactly like the unguided Z3 baseline
 * the paper argues against — the behaviour refinement is designed to
 * overcome.  Randomized polarities are available for diversification.
 */

#ifndef SCAMV_SAT_SOLVER_HH
#define SCAMV_SAT_SOLVER_HH

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <vector>

#include "support/rng.hh"

namespace scamv::sat {

/** Variable index, 0-based. */
using Var = std::int32_t;

/** Literal: variable with sign, encoded as 2*var + (negated ? 1 : 0). */
struct Lit {
    std::int32_t x = -2;

    bool operator==(const Lit &o) const { return x == o.x; }
    bool operator!=(const Lit &o) const { return x != o.x; }
};

inline Lit
mkLit(Var v, bool negated = false)
{
    return Lit{2 * v + (negated ? 1 : 0)};
}

inline Lit operator~(Lit l) { return Lit{l.x ^ 1}; }
inline Var var(Lit l) { return l.x >> 1; }
inline bool sign(Lit l) { return l.x & 1; }
/** Undefined literal sentinel. */
constexpr Lit kLitUndef{-2};

/** Tri-state assignment value. */
enum class LBool : std::int8_t { False = 0, True = 1, Undef = 2 };

/** Outcome of a solve() call. */
enum class Result { Sat, Unsat, Unknown };

/** CDCL solver. */
class Solver
{
  public:
    Solver();

    /** Allocate a fresh variable. @return its index. */
    Var newVar();

    /** @return number of allocated variables. */
    int numVars() const { return static_cast<int>(assigns.size()); }

    /**
     * Add the clause lits[0..n) (empty clause makes the instance
     * unsat).  The literals are copied; the caller keeps ownership.
     * @return false iff the instance became trivially unsat.
     */
    bool addClause(const Lit *lits, std::size_t n);
    bool addClause(const std::vector<Lit> &lits)
    {
        return addClause(lits.data(), lits.size());
    }
    bool addClause(std::initializer_list<Lit> lits)
    {
        return addClause(lits.begin(), lits.size());
    }

    /** Convenience single/binary/ternary clause adders (no heap). */
    bool addUnit(Lit a) { return addClause(&a, 1); }
    bool addBinary(Lit a, Lit b) { return addClause({a, b}); }
    bool addTernary(Lit a, Lit b, Lit c) { return addClause({a, b, c}); }

    /**
     * Solve the current formula.
     * @param conflict_budget max conflicts before Unknown (-1: none).
     */
    Result solve(std::int64_t conflict_budget = -1);

    /**
     * Solve under assumptions (checked before deciding).  Assumptions
     * do not persist; state is reset for the next call.
     */
    Result solveAssuming(const std::vector<Lit> &assumptions,
                         std::int64_t conflict_budget = -1);

    /** @return model value of v after Result::Sat. */
    bool modelValue(Var v) const;

    /** Set the saved phase (initial polarity) of a variable. */
    void setPhase(Var v, bool value);

    /** Randomize all saved phases using rng. */
    void randomizePhases(Rng &rng);

    /** Statistics. */
    std::uint64_t conflicts() const { return nConflicts; }
    std::uint64_t decisions() const { return nDecisions; }
    std::uint64_t propagations() const { return nPropagations; }

  private:
    /** Clause header: literals are arena[start, start + size). */
    struct Clause {
        std::uint32_t start = 0;
        std::uint32_t size = 0;
        bool learnt = false;
        double activity = 0.0;
    };
    using ClauseRef = std::int32_t;
    static constexpr ClauseRef kRefUndef = -1;

    struct Watcher {
        ClauseRef cref;
        Lit blocker;
    };

    // ---- Core state --------------------------------------------------
    std::vector<Clause> clauses;
    std::vector<Lit> arena;                    // all clause literals
    std::vector<std::vector<Watcher>> watches; // indexed by Lit::x
    std::vector<LBool> assigns;
    std::vector<bool> savedPhase;
    std::vector<int> levels;
    std::vector<ClauseRef> reasons;
    std::vector<Lit> trail;
    std::vector<int> trailLim;
    std::size_t qhead = 0;
    bool okay = true;

    // ---- VSIDS heap ---------------------------------------------------
    std::vector<double> activity;
    std::vector<int> heap;      // heap of vars ordered by activity
    std::vector<int> heapIndex; // var -> position in heap (-1: absent)
    double varInc = 1.0;
    double claInc = 1.0;
    std::uint64_t nLearnt = 0;

    // ---- Conflict-analysis scratch, reused across conflicts ----------
    std::vector<char> seen;     // var -> marked in the current analyze
    std::vector<Lit> learntBuf; // clause being learnt

    // ---- Statistics ----------------------------------------------------
    std::uint64_t nConflicts = 0;
    std::uint64_t nDecisions = 0;
    std::uint64_t nPropagations = 0;

    // ---- Helpers --------------------------------------------------------
    LBool value(Lit l) const;
    Lit *litsOf(const Clause &c) { return arena.data() + c.start; }
    /** Make the arena's tail, from `start` on, a clause; attach it. */
    ClauseRef commitClause(std::size_t start, bool learnt);
    int decisionLevel() const { return static_cast<int>(trailLim.size()); }
    void uncheckedEnqueue(Lit l, ClauseRef from);
    ClauseRef propagate();
    void analyze(ClauseRef confl, std::vector<Lit> &out_learnt,
                 int &out_btlevel);
    void cancelUntil(int level);
    Lit pickBranchLit();
    void attachClause(ClauseRef cref);
    void varBumpActivity(Var v);
    void varDecayActivity();
    void claBumpActivity(Clause &c);
    void reduceDB();

    // heap ops
    void heapInsert(Var v);
    Var heapPop();
    bool heapEmpty() const { return heap.empty(); }
    void percolateUp(int i);
    void percolateDown(int i);

    Result search(std::int64_t conflict_budget,
                  const std::vector<Lit> &assumptions);
};

} // namespace scamv::sat

#endif // SCAMV_SAT_SOLVER_HH
