/**
 * @file
 * Set-associative L1 data cache with LRU replacement.
 *
 * Models the Cortex-A53 L1D of the evaluation platform (32 KiB,
 * 4-way, 64-byte lines, 128 set indexes).  The experiment harness
 * snapshots the final cache state the way the paper's TrustZone
 * platform module inspects it with privileged debug instructions:
 * per set, the set of valid line tags.
 */

#ifndef SCAMV_HW_CACHE_HH
#define SCAMV_HW_CACHE_HH

#include <cstdint>
#include <vector>

#include "obs/layout.hh"

namespace scamv::hw {

/**
 * Snapshot of a set range, flat: `ways` slots per set, set-major.
 * Each set's slots hold its valid tags in ascending order, then
 * kNoTag in every unused slot, so two snapshots are equal exactly
 * when every set holds the same tag set.
 */
using CacheState = std::vector<std::uint64_t>;

/** Padding of an unused snapshot slot; never a tag (see Cache). */
inline constexpr std::uint64_t kNoTag = ~0ULL;

/** LRU set-associative cache. */
class Cache
{
  public:
    explicit Cache(const obs::CacheGeometry &geom = {});

    /**
     * Invalidate every line (the platform clears before each run).
     * Only the sets allocated into since the last reset are wiped.
     */
    void reset();

    /**
     * Demand access (read or write, read-allocate policy).
     * @return true on hit.
     */
    bool access(std::uint64_t addr);

    /** Non-allocating presence check (no LRU update). */
    bool probe(std::uint64_t addr) const;

    /** Invalidate the line containing addr if present. */
    void flushLine(std::uint64_t addr);

    /**
     * Snapshot sets [lo_set, hi_set] inclusive into `out`, reusing
     * its capacity: `(hi_set - lo_set + 1) * ways` slots.
     */
    void snapshot(std::uint64_t lo_set, std::uint64_t hi_set,
                  CacheState &out) const;

    /** @return snapshot of sets [lo_set, hi_set] inclusive. */
    CacheState
    snapshot(std::uint64_t lo_set, std::uint64_t hi_set) const
    {
        CacheState out;
        snapshot(lo_set, hi_set, out);
        return out;
    }

    /** @return snapshot of the whole cache. */
    CacheState snapshot() const { return snapshot(0, geom.numSets - 1); }

    const obs::CacheGeometry &geometry() const { return geom; }

    /** Statistics. */
    std::uint64_t hits() const { return nHits; }
    std::uint64_t misses() const { return nMisses; }

  private:
    struct Line {
        bool valid = false;
        std::uint64_t tag = 0;
        std::uint64_t lru = 0; ///< higher = more recently used
    };

    Line &line(std::uint64_t set, std::uint64_t way)
    {
        return lines[set * geom.ways + way];
    }
    const Line &line(std::uint64_t set, std::uint64_t way) const
    {
        return lines[set * geom.ways + way];
    }

    obs::CacheGeometry geom;
    /** Flat set-major line array: index `set * ways + way`.  A single
     * contiguous allocation instead of one vector per set — the hot
     * access() scan walks `ways` adjacent elements. */
    std::vector<Line> lines;
    /** Sets allocated into since the last reset, each listed once;
     *  `setDirty` flags membership.  Every other set is all-invalid
     *  with zero LRU stamps, so reset() leaves it alone. */
    std::vector<std::uint32_t> dirtySets;
    std::vector<std::uint8_t> setDirty;
    std::uint64_t lruClock = 0;
    std::uint64_t nHits = 0;
    std::uint64_t nMisses = 0;
};

} // namespace scamv::hw

#endif // SCAMV_HW_CACHE_HH
