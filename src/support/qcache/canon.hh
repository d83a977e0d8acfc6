/**
 * @file
 * Semantic canonicalization of SMT query formulas.
 *
 * The query cache must recognize when two formulas — possibly built in
 * different ExprContexts, with different variable names and different
 * variable-creation orders — pose the *same* question to the solver.
 * Within one context the hash-consed expression layer already
 * identifies commutative reorderings (builders order operands by
 * creation id), but across contexts the same relation can intern as a
 * differently-shaped DAG.  This module computes, per formula:
 *
 *  - a 128-bit **semantic key** (two independent splitmix64 Merkle
 *    lanes): variables are alpha-renamed to per-kind indices assigned
 *    by first encounter in a *shape-sorted* traversal (commutative
 *    operands stable-sorted by a name-blind structural hash), so the
 *    key is invariant under variable renaming and under commutative
 *    operand reorderings;
 *
 *  - a 64-bit **exactness fingerprint**: the same alpha-renaming idea,
 *    but with indices assigned in *original* operand order and hashed
 *    over the original order.  Two formulas with equal keys and equal
 *    fingerprints are structurally identical up to variable names —
 *    they bit-blast to the same CNF, so one's solver trajectory (and
 *    model, after name translation) is an exact replay of the other's.
 *    Equal keys with different fingerprints mark "semantic cousins"
 *    whose CDCL trajectories could diverge; the cache treats those as
 *    misses, which keeps hit-vs-miss from ever changing results.
 *
 * Name translation between the original formula and the canonical
 * namespace (`v<i>`/`b<i>`/`m<i>` for bv/bool/mem variables) is
 * captured in the returned CanonForm so cached models can be stored
 * canonically and replayed into any alpha-equivalent formula.
 */

#ifndef SCAMV_SUPPORT_QCACHE_CANON_HH
#define SCAMV_SUPPORT_QCACHE_CANON_HH

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "expr/eval.hh"
#include "expr/expr.hh"

namespace scamv::qcache {

/** 128-bit semantic cache key (two independent hash lanes). */
struct Key {
    std::uint64_t hi = 0;
    std::uint64_t lo = 0;

    bool operator==(const Key &) const = default;
};

/** Hash functor for Key (unordered_map). */
struct KeyHash {
    std::size_t
    operator()(const Key &k) const
    {
        return static_cast<std::size_t>(k.hi ^ (k.lo * 0x9e3779b97f4a7c15ULL));
    }
};

/** splitmix64 step: the campaign-stable scrambler used repo-wide. */
std::uint64_t splitmix64(std::uint64_t x);

/** Order-sensitive combination of two words (splitmix64-based). */
std::uint64_t mixKey(std::uint64_t a, std::uint64_t b);

/** Canonical form of one formula: key, fingerprint, name maps. */
struct CanonForm {
    Key key;
    std::uint64_t fingerprint = 0;
    /** Original variable name -> canonical name (v<i>/b<i>/m<i>). */
    std::unordered_map<std::string, std::string> toCanon;
    /** Canonical name -> original variable name. */
    std::unordered_map<std::string, std::string> toOrig;
    /** Next free canonical index per variable kind (see extendVars). */
    int nextBv = 0;
    int nextBool = 0;
    int nextMem = 0;
};

/** Compute the canonical form of a boolean formula. */
CanonForm canonicalize(expr::Expr formula);

/**
 * Assign canonical names to variables not reachable from the
 * canonicalized formula (e.g. blocking variables supplied by the
 * pipeline), in list order.  Variables already mapped are untouched,
 * so the extension is deterministic given a deterministic list.
 */
void extendVars(CanonForm &form, const std::vector<expr::Expr> &vars);

/** Translate an assignment into the canonical namespace.  Names
 *  without a mapping are kept verbatim. */
expr::Assignment toCanonical(const CanonForm &form,
                             const expr::Assignment &a);

/** Translate a canonical assignment back to original names. */
expr::Assignment toOriginal(const CanonForm &form,
                            const expr::Assignment &a);

} // namespace scamv::qcache

#endif // SCAMV_SUPPORT_QCACHE_CANON_HH
