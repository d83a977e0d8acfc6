#include "triage/absdom.hh"

#include <algorithm>
#include <bit>

#include "bir/cfg.hh"
#include "support/textcodec.hh"

namespace scamv::triage {
namespace {

/** Smallest all-ones mask covering x (0 -> 0, 2^63.. -> ~0). */
std::uint64_t
maskAbove(std::uint64_t x)
{
    if (x == 0)
        return 0;
    const int w = std::bit_width(x);
    return w >= 64 ? ~0ULL : (1ULL << w) - 1;
}

/** Concrete wrapping ALU semantics (mirrors hw/sym evaluation). */
std::uint64_t
concrete(bir::AluOp op, std::uint64_t a, std::uint64_t b)
{
    switch (op) {
    case bir::AluOp::Add: return a + b;
    case bir::AluOp::Sub: return a - b;
    case bir::AluOp::And: return a & b;
    case bir::AluOp::Orr: return a | b;
    case bir::AluOp::Eor: return a ^ b;
    case bir::AluOp::Lsl: return b >= 64 ? 0 : a << b;
    case bir::AluOp::Lsr: return b >= 64 ? 0 : a >> b;
    case bir::AluOp::Asr:
        if (b >= 64)
            return static_cast<std::uint64_t>(
                static_cast<std::int64_t>(a) >> 63);
        return static_cast<std::uint64_t>(
            static_cast<std::int64_t>(a) >> b);
    case bir::AluOp::Mul: return a * b;
    }
    return 0;
}

} // namespace

AbsValue
AbsValue::top()
{
    return AbsValue{};
}

AbsValue
AbsValue::constant(std::uint64_t c)
{
    AbsValue v;
    v.kind = Kind::Set;
    v.elems = {c};
    return v;
}

AbsValue
AbsValue::interval(std::uint64_t lo, std::uint64_t hi)
{
    if (lo > hi)
        return top();
    if (lo == hi)
        return constant(lo);
    AbsValue v;
    v.kind = Kind::Interval;
    v.lo = lo;
    v.hi = hi;
    return v;
}

AbsValue
AbsValue::setOf(std::vector<std::uint64_t> members)
{
    if (members.empty())
        return top(); // no information: never a reachable case
    std::sort(members.begin(), members.end());
    members.erase(std::unique(members.begin(), members.end()),
                  members.end());
    if (members.size() > kSetCap)
        return interval(members.front(), members.back());
    AbsValue v;
    v.kind = Kind::Set;
    v.elems = std::move(members);
    return v;
}

std::optional<std::uint64_t>
AbsValue::asConstant() const
{
    if (kind == Kind::Set && elems.size() == 1)
        return elems.front();
    return std::nullopt;
}

bool
AbsValue::contains(std::uint64_t v) const
{
    switch (kind) {
    case Kind::Top: return true;
    case Kind::Set:
        return std::binary_search(elems.begin(), elems.end(), v);
    case Kind::Interval: return v >= lo && v <= hi;
    }
    return true;
}

bool
AbsValue::subsumes(const AbsValue &other) const
{
    if (kind == Kind::Top)
        return true;
    if (other.kind == Kind::Top)
        return kind == Kind::Interval && lo == 0 && hi == ~0ULL;
    if (other.kind == Kind::Set) {
        for (std::uint64_t v : other.elems)
            if (!contains(v))
                return false;
        return true;
    }
    // other is an interval.
    if (kind == Kind::Interval)
        return lo <= other.lo && other.hi <= hi;
    // Set vs interval: only a small interval can fit in a set.
    if (other.hi - other.lo >= kSetCap)
        return false;
    for (std::uint64_t v = other.lo;; ++v) {
        if (!contains(v))
            return false;
        if (v == other.hi)
            break;
    }
    return true;
}

AbsValue
AbsValue::hull() const
{
    if (kind != Kind::Set)
        return *this;
    return interval(elems.front(), elems.back());
}

std::string
AbsValue::toString() const
{
    switch (kind) {
    case Kind::Top: return "T";
    case Kind::Set: {
        std::string out = "{";
        for (std::size_t i = 0; i < elems.size(); ++i)
            out += (i ? "," : "") + text::hex(elems[i]);
        return out + "}";
    }
    case Kind::Interval:
        return "[" + text::hex(lo) + "," + text::hex(hi) + "]";
    }
    return "T";
}

AbsValue
join(const AbsValue &a, const AbsValue &b)
{
    if (a.isTop() || b.isTop())
        return AbsValue::top();
    if (a.kind == AbsValue::Kind::Set &&
        b.kind == AbsValue::Kind::Set) {
        std::vector<std::uint64_t> merged = a.elems;
        merged.insert(merged.end(), b.elems.begin(), b.elems.end());
        return AbsValue::setOf(std::move(merged));
    }
    // Note: hull() of a singleton set canonicalizes back to Set kind,
    // so bounds must come from elems there, not the lo/hi fields.
    const auto lo_of = [](const AbsValue &v) {
        return v.kind == AbsValue::Kind::Set ? v.elems.front() : v.lo;
    };
    const auto hi_of = [](const AbsValue &v) {
        return v.kind == AbsValue::Kind::Set ? v.elems.back() : v.hi;
    };
    return AbsValue::interval(std::min(lo_of(a), lo_of(b)),
                              std::max(hi_of(a), hi_of(b)));
}

AbsValue
widen(const AbsValue &prev, const AbsValue &next)
{
    return prev.subsumes(next) ? prev : AbsValue::top();
}

AbsValue
transfer(bir::AluOp op, const AbsValue &a, const AbsValue &b)
{
    // Exact cartesian evaluation while both operands are small sets:
    // concrete wrapping arithmetic on every pair is sound because the
    // simulated machine wraps the same way.
    if (a.kind == AbsValue::Kind::Set &&
        b.kind == AbsValue::Kind::Set &&
        a.elems.size() * b.elems.size() <= 64) {
        std::vector<std::uint64_t> out;
        out.reserve(a.elems.size() * b.elems.size());
        for (std::uint64_t x : a.elems)
            for (std::uint64_t y : b.elems)
                out.push_back(concrete(op, x, y));
        return AbsValue::setOf(std::move(out));
    }

    // Interval arithmetic over [lo, hi] bounds (a singleton set is a
    // one-point interval here).
    struct Bounds {
        bool known;
        std::uint64_t lo, hi;
    };
    const auto bounds_of = [](const AbsValue &v) -> Bounds {
        switch (v.kind) {
        case AbsValue::Kind::Top: return {false, 0, ~0ULL};
        case AbsValue::Kind::Set:
            return {true, v.elems.front(), v.elems.back()};
        case AbsValue::Kind::Interval: return {true, v.lo, v.hi};
        }
        return {false, 0, ~0ULL};
    };
    const Bounds A = bounds_of(a);
    const Bounds B = bounds_of(b);
    const auto k = b.asConstant(); // shift amounts come as immediates

    switch (op) {
    case bir::AluOp::Add:
        if (A.known && B.known && A.hi <= ~0ULL - B.hi)
            return AbsValue::interval(A.lo + B.lo, A.hi + B.hi);
        return AbsValue::top();
    case bir::AluOp::Sub:
        if (A.known && B.known && A.lo >= B.hi)
            return AbsValue::interval(A.lo - B.hi, A.hi - B.lo);
        return AbsValue::top();
    case bir::AluOp::And:
        // x & y <= min(x, y): one bounded operand bounds the result.
        if (A.known || B.known)
            return AbsValue::interval(
                0, std::min(A.known ? A.hi : ~0ULL,
                            B.known ? B.hi : ~0ULL));
        return AbsValue::top();
    case bir::AluOp::Orr:
        if (A.known && B.known)
            return AbsValue::interval(std::max(A.lo, B.lo),
                                      maskAbove(A.hi | B.hi));
        return AbsValue::top();
    case bir::AluOp::Eor:
        if (A.known && B.known)
            return AbsValue::interval(0, maskAbove(A.hi | B.hi));
        return AbsValue::top();
    case bir::AluOp::Lsl:
        if (A.known && k && *k < 64 &&
            (*k == 0 || A.hi <= (~0ULL >> *k)))
            return AbsValue::interval(A.lo << *k, A.hi << *k);
        return AbsValue::top();
    case bir::AluOp::Lsr:
        if (k && *k < 64) {
            if (A.known)
                return AbsValue::interval(A.lo >> *k, A.hi >> *k);
            if (*k > 0)
                return AbsValue::interval(0, ~0ULL >> *k);
        }
        return AbsValue::top();
    case bir::AluOp::Asr:
        // For values below 2^63 an arithmetic shift is a logical one.
        if (A.known && k && *k < 64 && A.hi < (1ULL << 63))
            return AbsValue::interval(A.lo >> *k, A.hi >> *k);
        return AbsValue::top();
    case bir::AluOp::Mul:
        if (A.known && B.known &&
            (A.hi == 0 || B.hi <= ~0ULL / A.hi))
            return AbsValue::interval(A.lo * B.lo, A.hi * B.hi);
        return AbsValue::top();
    }
    return AbsValue::top();
}

std::vector<bool>
classBound(const AbsValue &addr, const obs::CacheGeometry &geom)
{
    std::vector<bool> mask(geom.numSets, false);
    const int shift = geom.lineShift();
    switch (addr.kind) {
    case AbsValue::Kind::Top:
        mask.assign(geom.numSets, true);
        break;
    case AbsValue::Kind::Set:
        for (std::uint64_t v : addr.elems)
            mask[geom.setOf(v)] = true;
        break;
    case AbsValue::Kind::Interval: {
        const std::uint64_t lo_line = addr.lo >> shift;
        const std::uint64_t hi_line = addr.hi >> shift;
        if (hi_line - lo_line >= geom.numSets) {
            mask.assign(geom.numSets, true);
            break;
        }
        for (std::uint64_t l = lo_line;; ++l) {
            mask[l & (geom.numSets - 1)] = true;
            if (l == hi_line)
                break;
        }
        break;
    }
    }
    return mask;
}

bool
AbstractResult::allArchConstant() const
{
    for (const AccessBound &a : accesses)
        if (!a.transient && !a.addr.asConstant())
            return false;
    return true;
}

bool
AbstractResult::allConstant() const
{
    for (const AccessBound &a : accesses)
        if (!a.addr.asConstant())
            return false;
    return true;
}

std::vector<bool>
AbstractResult::archClassMask(const obs::CacheGeometry &geom) const
{
    std::vector<bool> mask(geom.numSets, false);
    for (const AccessBound &a : accesses) {
        if (a.transient)
            continue;
        const std::vector<bool> b = classBound(a.addr, geom);
        for (std::size_t c = 0; c < mask.size(); ++c)
            if (b[c])
                mask[c] = true;
    }
    return mask;
}

namespace {

using State = std::vector<AbsValue>;

AbsValue
operand2(const State &s, const bir::Instr &ins)
{
    return ins.useImm ? AbsValue::constant(ins.imm) : s[ins.rm];
}

/** Architectural transfer of one instruction (shadow instrs skipped
 *  by the caller — they never touch architectural registers). */
void
applyArch(const bir::Instr &ins, State &s)
{
    switch (ins.kind) {
    case bir::InstrKind::Alu:
        s[ins.rd] = transfer(ins.aluOp, s[ins.rn], operand2(s, ins));
        break;
    case bir::InstrKind::MovImm:
        s[ins.rd] = AbsValue::constant(ins.imm);
        break;
    case bir::InstrKind::Load:
        s[ins.rd] = AbsValue::top(); // memory is not modeled
        break;
    case bir::InstrKind::Store:
    case bir::InstrKind::Branch:
    case bir::InstrKind::Jump:
    case bir::InstrKind::Halt:
        break;
    }
}

/**
 * Scan one block with a fixed in-state, recording access bounds.
 * Shadow semantics mirror sym/symexec.cc: the first transient
 * instruction of a run snapshots the architectural registers, any
 * architectural instruction ends the run, transient stores never
 * write, transient load destinations become Top.  A block *starting*
 * mid-run (a branch target spliced into a shadow sequence) has an
 * unknown snapshot point, so its shadow state starts at Top.
 */
void
scanBlock(const bir::Program &p, const bir::BasicBlock &bb, State s,
          std::vector<AccessBound> &out)
{
    bool in_shadow = false;
    State shadow;
    if (p[static_cast<std::size_t>(bb.first)].transient) {
        in_shadow = true;
        shadow.assign(s.size(), AbsValue::top());
    }
    for (int i = bb.first; i <= bb.last; ++i) {
        const bir::Instr &ins = p[static_cast<std::size_t>(i)];
        if (ins.transient) {
            if (!in_shadow) {
                in_shadow = true;
                shadow = s;
            }
            switch (ins.kind) {
            case bir::InstrKind::Alu:
                shadow[ins.rd] = transfer(ins.aluOp, shadow[ins.rn],
                                          operand2(shadow, ins));
                break;
            case bir::InstrKind::MovImm:
                shadow[ins.rd] = AbsValue::constant(ins.imm);
                break;
            case bir::InstrKind::Load:
                out.push_back({i, true, true,
                               transfer(bir::AluOp::Add,
                                        shadow[ins.rn],
                                        operand2(shadow, ins))});
                shadow[ins.rd] = AbsValue::top();
                break;
            case bir::InstrKind::Store:
                out.push_back({i, true, false,
                               transfer(bir::AluOp::Add,
                                        shadow[ins.rn],
                                        operand2(shadow, ins))});
                break;
            default:
                break; // transient control flow never occurs
            }
            continue;
        }
        in_shadow = false;
        if (ins.isMemAccess())
            out.push_back({i, false, ins.kind == bir::InstrKind::Load,
                           transfer(bir::AluOp::Add, s[ins.rn],
                                    operand2(s, ins))});
        applyArch(ins, s);
    }
}

} // namespace

AbstractResult
analyzeProgram(const bir::Program &p)
{
    AbstractResult res;
    if (p.empty())
        return res;
    const bir::Cfg cfg(p);
    const std::vector<bir::BasicBlock> &blocks = cfg.blocks();
    const std::size_t nb = blocks.size();

    const State top_state(bir::kNumRegs, AbsValue::top());
    std::vector<State> in(nb);
    std::vector<bool> has_in(nb, false), queued(nb, false);
    std::vector<int> joins(nb, 0);

    std::size_t entry = nb;
    for (std::size_t b = 0; b < nb; ++b)
        if (blocks[b].first == 0) {
            entry = b;
            break;
        }
    if (entry == nb)
        return res;

    in[entry] = top_state;
    has_in[entry] = true;
    std::vector<std::size_t> worklist{entry};
    queued[entry] = true;
    while (!worklist.empty()) {
        const std::size_t b = worklist.back();
        worklist.pop_back();
        queued[b] = false;

        // Out-state: architectural transfers only (shadow statements
        // never write architectural registers).
        State s = in[b];
        for (int i = blocks[b].first; i <= blocks[b].last; ++i) {
            const bir::Instr &ins = p[static_cast<std::size_t>(i)];
            if (!ins.transient)
                applyArch(ins, s);
        }

        for (int succ : blocks[b].succs) {
            const auto t = static_cast<std::size_t>(succ);
            State next;
            if (!has_in[t]) {
                next = s;
            } else {
                next = in[t];
                for (int r = 0; r < bir::kNumRegs; ++r)
                    next[r] = join(next[r], s[r]);
                if (++joins[t] > kWidenAfter)
                    for (int r = 0; r < bir::kNumRegs; ++r)
                        next[r] = widen(in[t][r], next[r]);
            }
            if (!has_in[t] || next != in[t]) {
                in[t] = std::move(next);
                has_in[t] = true;
                if (!queued[t]) {
                    queued[t] = true;
                    worklist.push_back(t);
                }
            }
        }
    }

    // Blocks are in instruction order, so appending per reachable
    // block yields accesses in instruction order.
    for (std::size_t b = 0; b < nb; ++b)
        if (has_in[b])
            scanBlock(p, blocks[b], in[b], res.accesses);
    return res;
}

} // namespace scamv::triage
