#include "smt/solver.hh"

#include <functional>

#include "support/faults.hh"
#include "support/logging.hh"
#include "support/metrics.hh"

namespace scamv::smt {

using expr::Expr;
using expr::ExprContext;
using expr::Kind;

SmtSolver::SmtSolver(ExprContext &ctx, Expr formula)
    : ctx(ctx), blaster(sat)
{
    require(formula);
}

SmtSolver::~SmtSolver() = default;

Expr
SmtSolver::lowerReads(Expr e)
{
    auto hit = lowerCache.find(e);
    if (hit != lowerCache.end())
        return hit->second;

    Expr result;
    if (e->kids.empty()) {
        result = e;
    } else {
        std::vector<Expr> ks;
        ks.reserve(e->kids.size());
        for (Expr k : e->kids)
            ks.push_back(lowerReads(k));

        if (e->kind == Kind::Read) {
            // Expand read-over-write chains into ite cascades so that
            // every remaining Read has a MemVar base.
            Expr addr = ks[1];
            std::function<Expr(Expr)> chain = [&](Expr m) -> Expr {
                if (m->kind == Kind::Store) {
                    Expr hit_val = m->kids[2];
                    Expr rest = chain(m->kids[0]);
                    return ctx.ite(ctx.eq(m->kids[1], addr), hit_val,
                                   rest);
                }
                SCAMV_ASSERT(m->kind == Kind::MemVar,
                             "read chain must end in a memory variable");
                return ctx.read(m, addr);
            };
            result = chain(ks[0]);
        } else {
            // Rebuild with lowered children, by kind (substitute()
            // would re-walk the subtree).
            switch (e->kind) {
              case Kind::Add: result = ctx.add(ks[0], ks[1]); break;
              case Kind::Sub: result = ctx.sub(ks[0], ks[1]); break;
              case Kind::Mul: result = ctx.mul(ks[0], ks[1]); break;
              case Kind::BvAnd: result = ctx.bvAnd(ks[0], ks[1]); break;
              case Kind::BvOr: result = ctx.bvOr(ks[0], ks[1]); break;
              case Kind::BvXor: result = ctx.bvXor(ks[0], ks[1]); break;
              case Kind::BvNot: result = ctx.bvNot(ks[0]); break;
              case Kind::Neg: result = ctx.neg(ks[0]); break;
              case Kind::Shl: result = ctx.shl(ks[0], ks[1]); break;
              case Kind::Lshr: result = ctx.lshr(ks[0], ks[1]); break;
              case Kind::Ashr: result = ctx.ashr(ks[0], ks[1]); break;
              case Kind::Ite:
                result = ctx.ite(ks[0], ks[1], ks[2]);
                break;
              case Kind::Store:
                result = ctx.store(ks[0], ks[1], ks[2]);
                break;
              case Kind::Eq: result = ctx.eq(ks[0], ks[1]); break;
              case Kind::Ult: result = ctx.ult(ks[0], ks[1]); break;
              case Kind::Ule: result = ctx.ule(ks[0], ks[1]); break;
              case Kind::Slt: result = ctx.slt(ks[0], ks[1]); break;
              case Kind::Sle: result = ctx.sle(ks[0], ks[1]); break;
              case Kind::And: result = ctx.land(ks[0], ks[1]); break;
              case Kind::Or: result = ctx.lor(ks[0], ks[1]); break;
              case Kind::Not: result = ctx.lnot(ks[0]); break;
              case Kind::Implies:
                result = ctx.implies(ks[0], ks[1]);
                break;
              default:
                SCAMV_PANIC("lowerReads: unexpected kind");
            }
        }
    }
    lowerCache.emplace(e, result);
    return result;
}

Expr
SmtSolver::lowerAndAckermannize(Expr e)
{
    Expr lowered = lowerReads(e);

    // Bottom-up replacement of read(MemVar, addr) by fresh variables.
    std::function<Expr(Expr)> ack = [&](Expr n) -> Expr {
        auto hit = readCache.find(n);
        if (hit != readCache.end())
            return hit->second;
        Expr result;
        if (n->kids.empty()) {
            result = n;
        } else {
            std::vector<Expr> ks;
            bool changed = false;
            for (Expr k : n->kids) {
                Expr nk = ack(k);
                changed |= nk != k;
                ks.push_back(nk);
            }
            Expr rebuilt = n;
            if (changed) {
                std::unordered_map<Expr, Expr> map;
                for (std::size_t i = 0; i < ks.size(); ++i)
                    map.emplace(n->kids[i], ks[i]);
                rebuilt = expr::substitute(ctx, n, map);
            }
            if (rebuilt->kind == Kind::Read) {
                Expr mem = rebuilt->kids[0];
                Expr addr = rebuilt->kids[1];
                Expr fresh = ctx.bvVar(mem->name + "!rd" +
                                       std::to_string(freshCounter++));
                // Functional consistency with all previous reads of
                // the same memory that may alias this one.  Distinct
                // constant addresses never do, so their constraint is
                // `true` and is skipped before any node is interned.
                for (const ReadInfo &prev : reads) {
                    if (prev.memVar != mem)
                        continue;
                    if (prev.addr->kind == Kind::BvConst &&
                        addr->kind == Kind::BvConst &&
                        prev.addr->value != addr->value)
                        continue;
                    blaster.assertTrue(ctx.implies(
                        ctx.eq(prev.addr, addr),
                        ctx.eq(prev.fresh, fresh)));
                }
                reads.push_back({mem, addr, fresh});
                result = fresh;
            } else {
                result = rebuilt;
            }
        }
        readCache.emplace(n, result);
        return result;
    };
    return ack(lowered);
}

void
SmtSolver::require(Expr constraint)
{
    SCAMV_ASSERT(constraint->sort == expr::Sort::Bool,
                 "require: non-boolean constraint");
    for (Expr v : expr::collectVars(constraint)) {
        if (v->kind == Kind::MemVar)
            continue;
        if (!seenVarSet.count(v)) {
            seenVarSet.emplace(v, true);
            seenVars.push_back(v);
        }
    }
    blaster.assertTrue(lowerAndAckermannize(constraint));
}

Outcome
tallyQuery(Outcome outcome, double start_time)
{
    metrics::Registry &reg = metrics::current();
    reg.histogram("smt.solve_seconds").observe(reg.now() - start_time);
    reg.counter("smt.queries").inc();
    switch (outcome) {
      case Outcome::Sat: reg.counter("smt.sat").inc(); break;
      case Outcome::Unsat: reg.counter("smt.unsat").inc(); break;
      case Outcome::Unknown: reg.counter("smt.unknown").inc(); break;
    }
    return outcome;
}

Outcome
SmtSolver::solve(std::int64_t conflict_budget)
{
    const double t0 = metrics::current().now();
    // Injected solver timeout: report Unknown without searching.
    if (faults::maybeInject(faults::Site::SmtUnknown))
        return tallyQuery(Outcome::Unknown, t0);
    switch (sat.solve(conflict_budget)) {
      case sat::Result::Sat: return tallyQuery(Outcome::Sat, t0);
      case sat::Result::Unsat: return tallyQuery(Outcome::Unsat, t0);
      case sat::Result::Unknown: return tallyQuery(Outcome::Unknown, t0);
    }
    return tallyQuery(Outcome::Unknown, t0);
}

Outcome
SmtSolver::solveNoInject(std::int64_t conflict_budget)
{
    const double t0 = metrics::current().now();
    switch (sat.solve(conflict_budget)) {
      case sat::Result::Sat: return tallyQuery(Outcome::Sat, t0);
      case sat::Result::Unsat: return tallyQuery(Outcome::Unsat, t0);
      case sat::Result::Unknown: return tallyQuery(Outcome::Unknown, t0);
    }
    return tallyQuery(Outcome::Unknown, t0);
}

Outcome
SmtSolver::solveWith(Expr temporary, std::int64_t conflict_budget)
{
    SCAMV_ASSERT(temporary->sort == expr::Sort::Bool,
                 "solveWith: non-boolean constraint");
    const double t0 = metrics::current().now();
    // Injected solver timeout: report Unknown without searching.
    if (faults::maybeInject(faults::Site::SmtUnknown))
        return tallyQuery(Outcome::Unknown, t0);
    const sat::Lit l = blaster.boolLit(lowerAndAckermannize(temporary));
    switch (sat.solveAssuming({l}, conflict_budget)) {
      case sat::Result::Sat: return tallyQuery(Outcome::Sat, t0);
      case sat::Result::Unsat: return tallyQuery(Outcome::Unsat, t0);
      case sat::Result::Unknown: return tallyQuery(Outcome::Unknown, t0);
    }
    return tallyQuery(Outcome::Unknown, t0);
}

void
SmtSolver::prepareTemporary(Expr temporary)
{
    SCAMV_ASSERT(temporary->sort == expr::Sort::Bool,
                 "prepareTemporary: non-boolean constraint");
    blaster.boolLit(lowerAndAckermannize(temporary));
}

expr::Assignment
SmtSolver::model()
{
    expr::Assignment a;
    for (Expr v : seenVars) {
        if (v->kind == Kind::BvVar)
            a.bvVars[v->name] = blaster.bvModel(v);
        else if (v->kind == Kind::BoolVar)
            a.boolVars[v->name] = blaster.boolModel(v);
    }
    for (const ReadInfo &r : reads) {
        const std::uint64_t addr = blaster.bvModel(r.addr);
        const std::uint64_t val = blaster.bvModel(r.fresh);
        a.mems[r.memVar->name].storeWord(addr, val);
    }
    return a;
}

bool
SmtSolver::blockCurrentModel(const std::vector<Expr> &vars, int bits)
{
    SCAMV_ASSERT(bits > 0 && bits <= bv::kWidth,
                 "blockCurrentModel: bad bit count");
    std::vector<sat::Lit> clause;
    auto block_bits = [&](Expr v) {
        const auto &lits = blaster.bvBits(v);
        for (int i = 0; i < bits; ++i) {
            const sat::Lit l = lits[i];
            bool value = sat.modelValue(sat::var(l));
            if (sat::sign(l))
                value = !value;
            clause.push_back(value ? ~l : l);
        }
    };
    for (Expr v : vars) {
        SCAMV_ASSERT(v->kind == Kind::BvVar, "block on non-bv-var");
        block_bits(v);
    }
    for (const ReadInfo &r : reads)
        block_bits(r.fresh);
    return sat.addClause(std::move(clause));
}

void
SmtSolver::randomizePhases(Rng &rng)
{
    sat.randomizePhases(rng);
}

Outcome
checkSat(ExprContext &ctx, Expr formula, std::int64_t conflict_budget)
{
    SmtSolver s(ctx, formula);
    return s.solve(conflict_budget);
}

} // namespace scamv::smt
