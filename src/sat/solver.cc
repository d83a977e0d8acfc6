#include "sat/solver.hh"

#include <algorithm>
#include <cmath>

#include "support/faults.hh"
#include "support/logging.hh"
#include "support/metrics.hh"

namespace scamv::sat {

namespace {

/** Luby restart sequence (MiniSat's formulation), value for index x. */
std::int64_t
lubyValue(std::int64_t x)
{
    std::int64_t size = 1;
    std::int64_t seq = 0;
    while (size < x + 1) {
        ++seq;
        size = 2 * size + 1;
    }
    while (size - 1 != x) {
        size = (size - 1) >> 1;
        --seq;
        x = x % size;
    }
    return 1LL << seq;
}

constexpr double kVarDecay = 0.95;
constexpr double kClauseDecay = 0.999;
constexpr std::int64_t kRestartBase = 128;

} // namespace

Solver::Solver() = default;

Var
Solver::newVar()
{
    const Var v = numVars();
    assigns.push_back(LBool::Undef);
    savedPhase.push_back(false);
    levels.push_back(0);
    reasons.push_back(kRefUndef);
    activity.push_back(0.0);
    heapIndex.push_back(-1);
    seen.push_back(0);
    watches.emplace_back();
    watches.emplace_back();
    heapInsert(v);
    return v;
}

LBool
Solver::value(Lit l) const
{
    LBool v = assigns[var(l)];
    if (v == LBool::Undef)
        return LBool::Undef;
    const bool b = (v == LBool::True) != sign(l);
    return b ? LBool::True : LBool::False;
}

bool
Solver::addClause(const Lit *lits, std::size_t n)
{
    if (!okay)
        return false;
    SCAMV_ASSERT(decisionLevel() == 0, "addClause above level 0");

    // Sort/dedup in place at the arena's tail; drop satisfied clauses
    // and false literals.
    const std::size_t start = arena.size();
    arena.insert(arena.end(), lits, lits + n);
    std::sort(arena.begin() + start, arena.end(),
              [](Lit a, Lit b) { return a.x < b.x; });
    std::size_t end = start;
    Lit prev = kLitUndef;
    for (std::size_t i = start; i < start + n; ++i) {
        const Lit l = arena[i];
        SCAMV_ASSERT(var(l) >= 0 && var(l) < numVars(),
                     "literal for unallocated variable");
        if (value(l) == LBool::True || l == ~prev) {
            arena.resize(start);
            return true; // clause satisfied or tautological
        }
        if (value(l) != LBool::False && l != prev)
            arena[end++] = l;
        prev = l;
    }
    arena.resize(end);

    if (end == start) {
        okay = false;
        return false;
    }
    if (end - start == 1) {
        const Lit unit = arena[start];
        arena.resize(start);
        uncheckedEnqueue(unit, kRefUndef);
        okay = (propagate() == kRefUndef);
        return okay;
    }

    commitClause(start, false);
    return true;
}

Solver::ClauseRef
Solver::commitClause(std::size_t start, bool learnt)
{
    const ClauseRef cref = static_cast<ClauseRef>(clauses.size());
    clauses.push_back({static_cast<std::uint32_t>(start),
                       static_cast<std::uint32_t>(arena.size() - start),
                       learnt, 0.0});
    attachClause(cref);
    return cref;
}

void
Solver::attachClause(ClauseRef cref)
{
    const Clause &c = clauses[cref];
    SCAMV_ASSERT(c.size >= 2, "attach of short clause");
    const Lit *ls = litsOf(c);
    watches[(~ls[0]).x].push_back({cref, ls[1]});
    watches[(~ls[1]).x].push_back({cref, ls[0]});
}

void
Solver::uncheckedEnqueue(Lit l, ClauseRef from)
{
    SCAMV_ASSERT(value(l) == LBool::Undef, "enqueue of assigned literal");
    assigns[var(l)] = sign(l) ? LBool::False : LBool::True;
    levels[var(l)] = decisionLevel();
    reasons[var(l)] = from;
    trail.push_back(l);
}

Solver::ClauseRef
Solver::propagate()
{
    while (qhead < trail.size()) {
        const Lit p = trail[qhead++];
        ++nPropagations;
        std::vector<Watcher> &ws = watches[p.x];
        std::size_t i = 0, j = 0;
        while (i < ws.size()) {
            Watcher w = ws[i];
            if (value(w.blocker) == LBool::True) {
                ws[j++] = ws[i++];
                continue;
            }
            const Clause &c = clauses[w.cref];
            Lit *ls = litsOf(c);
            // Normalize so that the false watched literal is ls[1].
            const Lit false_lit = ~p;
            if (ls[0] == false_lit)
                std::swap(ls[0], ls[1]);
            ++i;

            const Lit first = ls[0];
            if (first != w.blocker && value(first) == LBool::True) {
                ws[j++] = {w.cref, first};
                continue;
            }

            // Look for a new literal to watch.
            bool found = false;
            for (std::uint32_t k = 2; k < c.size; ++k) {
                if (value(ls[k]) != LBool::False) {
                    std::swap(ls[1], ls[k]);
                    watches[(~ls[1]).x].push_back({w.cref, first});
                    found = true;
                    break;
                }
            }
            if (found)
                continue;

            // Unit or conflicting.
            ws[j++] = {w.cref, first};
            if (value(first) == LBool::False) {
                // Conflict: copy remaining watchers and bail out.
                while (i < ws.size())
                    ws[j++] = ws[i++];
                ws.resize(j);
                qhead = trail.size();
                return w.cref;
            }
            uncheckedEnqueue(first, w.cref);
        }
        ws.resize(j);
    }
    return kRefUndef;
}

void
Solver::varBumpActivity(Var v)
{
    activity[v] += varInc;
    if (activity[v] > 1e100) {
        for (double &a : activity)
            a *= 1e-100;
        varInc *= 1e-100;
    }
    if (heapIndex[v] != -1)
        percolateUp(heapIndex[v]);
}

void
Solver::varDecayActivity()
{
    varInc /= kVarDecay;
}

void
Solver::claBumpActivity(Clause &c)
{
    c.activity += claInc;
    if (c.activity > 1e20) {
        for (auto &cl : clauses)
            if (cl.learnt)
                cl.activity *= 1e-20;
        claInc *= 1e-20;
    }
}

void
Solver::analyze(ClauseRef confl, std::vector<Lit> &out_learnt,
                int &out_btlevel)
{
    out_learnt.clear();
    out_learnt.push_back(kLitUndef); // reserve slot for asserting literal

    int path_count = 0;
    Lit p = kLitUndef;
    std::size_t index = trail.size();

    do {
        SCAMV_ASSERT(confl != kRefUndef, "analyze: missing reason");
        Clause &c = clauses[confl];
        if (c.learnt)
            claBumpActivity(c);
        const Lit *ls = litsOf(c);
        const std::uint32_t start = (p == kLitUndef) ? 0 : 1;
        for (std::uint32_t k = start; k < c.size; ++k) {
            const Lit q = ls[k];
            if (!seen[var(q)] && levels[var(q)] > 0) {
                varBumpActivity(var(q));
                seen[var(q)] = true;
                if (levels[var(q)] >= decisionLevel())
                    ++path_count;
                else
                    out_learnt.push_back(q);
            }
        }
        // Select next literal on the trail to expand.
        while (!seen[var(trail[index - 1])])
            --index;
        p = trail[index - 1];
        confl = reasons[var(p)];
        seen[var(p)] = false;
        --path_count;
    } while (path_count > 0);
    out_learnt[0] = ~p;
    // Every current-level mark was cleared on the trail walk; the rest
    // are exactly the learnt clause's other literals.
    for (std::size_t k = 1; k < out_learnt.size(); ++k)
        seen[var(out_learnt[k])] = 0;

    // Compute backtrack level (second-highest level in the clause).
    if (out_learnt.size() == 1) {
        out_btlevel = 0;
    } else {
        std::size_t max_i = 1;
        for (std::size_t k = 2; k < out_learnt.size(); ++k)
            if (levels[var(out_learnt[k])] >
                levels[var(out_learnt[max_i])])
                max_i = k;
        std::swap(out_learnt[1], out_learnt[max_i]);
        out_btlevel = levels[var(out_learnt[1])];
    }
}

void
Solver::cancelUntil(int level)
{
    if (decisionLevel() <= level)
        return;
    for (std::size_t c = trail.size(); c >
         static_cast<std::size_t>(trailLim[level]); --c) {
        const Var v = var(trail[c - 1]);
        savedPhase[v] = assigns[v] == LBool::True;
        assigns[v] = LBool::Undef;
        reasons[v] = kRefUndef;
        if (heapIndex[v] == -1)
            heapInsert(v);
    }
    trail.resize(trailLim[level]);
    trailLim.resize(level);
    qhead = trail.size();
}

Lit
Solver::pickBranchLit()
{
    while (!heapEmpty()) {
        const Var v = heapPop();
        if (assigns[v] == LBool::Undef) {
            ++nDecisions;
            return mkLit(v, !savedPhase[v]);
        }
    }
    return kLitUndef;
}

void
Solver::reduceDB()
{
    // Remove the least active half of the learnt clauses (keeping
    // reasons).  Simplicity over peak performance: rebuild watches.
    std::vector<bool> is_reason(clauses.size(), false);
    for (Var v = 0; v < numVars(); ++v)
        if (assigns[v] != LBool::Undef && reasons[v] != kRefUndef)
            is_reason[reasons[v]] = true;

    std::vector<double> acts;
    for (std::size_t i = 0; i < clauses.size(); ++i)
        if (clauses[i].learnt && !is_reason[i])
            acts.push_back(clauses[i].activity);
    if (acts.size() < 64)
        return;
    std::nth_element(acts.begin(), acts.begin() + acts.size() / 2,
                     acts.end());
    const double median = acts[acts.size() / 2];

    // Compact headers and literals in place, keeping clause order.
    std::vector<ClauseRef> remap(clauses.size(), kRefUndef);
    std::size_t kept = 0;
    std::uint32_t top = 0;
    for (std::size_t i = 0; i < clauses.size(); ++i) {
        Clause c = clauses[i];
        if (c.learnt && !is_reason[i] && c.activity < median)
            continue;
        if (c.start != top)
            std::copy(arena.begin() + c.start,
                      arena.begin() + c.start + c.size,
                      arena.begin() + top);
        c.start = top;
        top += c.size;
        remap[i] = static_cast<ClauseRef>(kept);
        clauses[kept++] = c;
    }
    clauses.resize(kept);
    arena.resize(top);
    nLearnt = 0;
    for (const auto &c : clauses)
        nLearnt += c.learnt;
    for (auto &ws : watches)
        ws.clear();
    for (std::size_t i = 0; i < clauses.size(); ++i)
        attachClause(static_cast<ClauseRef>(i));
    for (Var v = 0; v < numVars(); ++v)
        if (reasons[v] != kRefUndef)
            reasons[v] = remap[reasons[v]];
}

Result
Solver::search(std::int64_t conflict_budget,
               const std::vector<Lit> &assumptions)
{
    std::int64_t restart_count = 0;
    std::int64_t conflicts_until_restart =
        kRestartBase * lubyValue(restart_count);
    std::int64_t conflicts_this_restart = 0;
    std::uint64_t learnt_limit = std::max<std::uint64_t>(
        4096, clauses.size() * 2);

    while (true) {
        const ClauseRef confl = propagate();
        if (confl != kRefUndef) {
            ++nConflicts;
            ++conflicts_this_restart;
            if (decisionLevel() == 0) {
                okay = false;
                return Result::Unsat;
            }
            int bt_level = 0;
            analyze(confl, learntBuf, bt_level);
            cancelUntil(bt_level);
            if (learntBuf.size() == 1) {
                uncheckedEnqueue(learntBuf[0], kRefUndef);
            } else {
                const std::size_t start = arena.size();
                arena.insert(arena.end(), learntBuf.begin(),
                             learntBuf.end());
                const ClauseRef cref = commitClause(start, true);
                ++nLearnt;
                claBumpActivity(clauses[cref]);
                uncheckedEnqueue(learntBuf[0], cref);
            }
            varDecayActivity();
            claInc /= kClauseDecay;

            if (conflict_budget >= 0 &&
                nConflicts >= static_cast<std::uint64_t>(conflict_budget))
                return Result::Unknown;
            continue;
        }

        if (conflicts_this_restart >= conflicts_until_restart) {
            cancelUntil(0);
            ++restart_count;
            conflicts_this_restart = 0;
            conflicts_until_restart =
                kRestartBase * lubyValue(restart_count);
        }

        if (nLearnt > learnt_limit) {
            reduceDB();
            learnt_limit = learnt_limit * 3 / 2;
        }

        // Apply assumptions before free decisions.
        Lit next = kLitUndef;
        while (decisionLevel() < static_cast<int>(assumptions.size())) {
            const Lit a = assumptions[decisionLevel()];
            if (value(a) == LBool::True) {
                trailLim.push_back(static_cast<int>(trail.size()));
            } else if (value(a) == LBool::False) {
                return Result::Unsat; // conflicting assumption
            } else {
                next = a;
                break;
            }
        }
        if (next == kLitUndef)
            next = pickBranchLit();
        if (next == kLitUndef)
            return Result::Sat; // all variables assigned
        trailLim.push_back(static_cast<int>(trail.size()));
        uncheckedEnqueue(next, kRefUndef);
    }
}

Result
Solver::solve(std::int64_t conflict_budget)
{
    return solveAssuming({}, conflict_budget);
}

Result
Solver::solveAssuming(const std::vector<Lit> &assumptions,
                      std::int64_t conflict_budget)
{
    metrics::current().counter("sat.solve_calls").inc();
    if (!okay)
        return Result::Unsat;
    // Injected conflict-budget exhaustion: answer Unknown without
    // searching, exactly as a timed-out query would.
    if (faults::maybeInject(faults::Site::SatTimeout))
        return Result::Unknown;
    const std::uint64_t conflicts0 = nConflicts;
    const std::uint64_t decisions0 = nDecisions;
    const std::uint64_t propagations0 = nPropagations;
    const std::int64_t budget =
        conflict_budget < 0 ? -1 : conflict_budget +
        static_cast<std::int64_t>(nConflicts);
    const Result r = search(budget, assumptions);
    if (r == Result::Sat) {
        // Freeze the model into savedPhase so it survives backtracking.
        for (Var v = 0; v < numVars(); ++v)
            if (assigns[v] != LBool::Undef)
                savedPhase[v] = assigns[v] == LBool::True;
    }
    cancelUntil(0);

    metrics::Registry &reg = metrics::current();
    reg.counter("sat.conflicts").add(nConflicts - conflicts0);
    reg.counter("sat.decisions").add(nDecisions - decisions0);
    reg.counter("sat.propagations").add(nPropagations - propagations0);
    return r;
}

bool
Solver::modelValue(Var v) const
{
    SCAMV_ASSERT(v >= 0 && v < numVars(), "modelValue out of range");
    return savedPhase[v];
}

void
Solver::setPhase(Var v, bool value)
{
    SCAMV_ASSERT(v >= 0 && v < numVars(), "setPhase out of range");
    savedPhase[v] = value;
}

void
Solver::randomizePhases(Rng &rng)
{
    for (Var v = 0; v < numVars(); ++v)
        savedPhase[v] = rng.chance(0.5);
}

// ---- Indexed binary max-heap on activity -------------------------------

void
Solver::heapInsert(Var v)
{
    heapIndex[v] = static_cast<int>(heap.size());
    heap.push_back(v);
    percolateUp(heapIndex[v]);
}

Var
Solver::heapPop()
{
    const Var top = heap[0];
    heapIndex[top] = -1;
    if (heap.size() > 1) {
        heap[0] = heap.back();
        heapIndex[heap[0]] = 0;
        heap.pop_back();
        percolateDown(0);
    } else {
        heap.pop_back();
    }
    return top;
}

void
Solver::percolateUp(int i)
{
    const Var v = heap[i];
    while (i > 0) {
        const int parent = (i - 1) / 2;
        if (activity[heap[parent]] >= activity[v])
            break;
        heap[i] = heap[parent];
        heapIndex[heap[i]] = i;
        i = parent;
    }
    heap[i] = v;
    heapIndex[v] = i;
}

void
Solver::percolateDown(int i)
{
    const Var v = heap[i];
    const int n = static_cast<int>(heap.size());
    while (true) {
        int child = 2 * i + 1;
        if (child >= n)
            break;
        if (child + 1 < n &&
            activity[heap[child + 1]] > activity[heap[child]])
            ++child;
        if (activity[heap[child]] <= activity[v])
            break;
        heap[i] = heap[child];
        heapIndex[heap[i]] = i;
        i = child;
    }
    heap[i] = v;
    heapIndex[v] = i;
}

} // namespace scamv::sat
