/**
 * @file
 * Tseitin bit-blaster: expression DAG -> CNF over the CDCL solver.
 *
 * All bitvector terms are 64 bits wide (LSB-first literal vectors).
 * Memory reads must have been eliminated before blasting (the SMT
 * facade Ackermannizes them into fresh variables); encountering a
 * Read/Store/MemVar node is a programming error.
 *
 * Supported operators: add/sub/mul/neg, and/or/xor/not, shifts by a
 * variable amount (barrel shifter, amount taken mod 64 like the
 * concrete evaluator), unsigned/signed comparisons, equality, ite, and
 * the boolean connectives.
 */

#ifndef SCAMV_BV_BITBLAST_HH
#define SCAMV_BV_BITBLAST_HH

#include <unordered_map>
#include <vector>

#include "expr/expr.hh"
#include "sat/solver.hh"

namespace scamv::bv {

/** Bit width of all bitvector terms. */
constexpr int kWidth = 64;

/** Expression-to-CNF encoder bound to one sat::Solver. */
class BitBlaster
{
  public:
    explicit BitBlaster(sat::Solver &solver);

    /** Assert a boolean-sorted expression at the top level. */
    void assertTrue(expr::Expr e);

    /** @return the literal encoding a boolean-sorted expression. */
    sat::Lit boolLit(expr::Expr e);

    /** @return the LSB-first literal vector of a bv-sorted term. */
    const std::vector<sat::Lit> &bvBits(expr::Expr e);

    /** @return concrete value of a bv term under the solver model. */
    std::uint64_t bvModel(expr::Expr e);

    /** @return concrete value of a bool term under the solver model. */
    bool boolModel(expr::Expr e);

    /** Constant-true literal of this encoder. */
    sat::Lit litTrue() const { return trueLit; }

    sat::Solver &solver() { return sat; }

  private:
    sat::Lit freshLit();
    sat::Lit litConst(bool b) { return b ? trueLit : ~trueLit; }

    // Gate encoders (return output literal, adding Tseitin clauses).
    sat::Lit gateAnd(sat::Lit a, sat::Lit b);
    sat::Lit gateOr(sat::Lit a, sat::Lit b);
    sat::Lit gateXor(sat::Lit a, sat::Lit b);
    sat::Lit gateMux(sat::Lit s, sat::Lit t, sat::Lit f);
    sat::Lit gateMaj(sat::Lit a, sat::Lit b, sat::Lit c);
    sat::Lit andReduce(const std::vector<sat::Lit> &ls);

    using Bits = std::vector<sat::Lit>;
    /** a + b + cin; if carry_out non-null, receives the carry. */
    Bits adder(const Bits &a, const Bits &b, sat::Lit cin,
               sat::Lit *carry_out = nullptr);
    Bits negate(const Bits &a);
    Bits shifter(const Bits &a, const Bits &amount, bool left,
                 bool arithmetic);
    sat::Lit ultLit(const Bits &a, const Bits &b);
    sat::Lit sltLit(const Bits &a, const Bits &b);
    sat::Lit eqLit(const Bits &a, const Bits &b);

    sat::Solver &sat;
    sat::Lit trueLit;
    std::unordered_map<expr::Expr, Bits> bvCache;
    std::unordered_map<expr::Expr, sat::Lit> boolCache;
};

} // namespace scamv::bv

#endif // SCAMV_BV_BITBLAST_HH
