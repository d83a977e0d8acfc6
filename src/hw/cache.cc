#include "hw/cache.hh"

#include <algorithm>

#include "support/logging.hh"

namespace scamv::hw {

Cache::Cache(const obs::CacheGeometry &geom)
    : geom(geom),
      lines(static_cast<std::size_t>(geom.numSets) * geom.ways),
      setDirty(geom.numSets, 0)
{
    // A tag has 64 - lineShift - setShift bits, so it can equal the
    // snapshot padding only when a line maps one byte to one set.
    SCAMV_ASSERT(geom.lineShift() + geom.setShift() > 0,
                 "cache needs more than one byte per set");
    dirtySets.reserve(geom.numSets);
}

void
Cache::reset()
{
    for (const std::uint32_t s : dirtySets) {
        Line *const set = &line(s, 0);
        std::fill(set, set + geom.ways, Line{});
        setDirty[s] = 0;
    }
    dirtySets.clear();
    lruClock = 0;
}

bool
Cache::access(std::uint64_t addr)
{
    const std::uint64_t set_idx = geom.setOf(addr);
    const std::uint64_t tag = geom.tagOf(addr);
    Line *const set = &line(set_idx, 0);
    ++lruClock;

    for (std::uint64_t w = 0; w < geom.ways; ++w) {
        Line &l = set[w];
        if (l.valid && l.tag == tag) {
            l.lru = lruClock;
            ++nHits;
            return true;
        }
    }
    ++nMisses;
    // Allocate: pick an invalid way, else the LRU way.
    Line *victim = &set[0];
    for (std::uint64_t w = 0; w < geom.ways; ++w) {
        Line &l = set[w];
        if (!l.valid) {
            victim = &l;
            break;
        }
        if (l.lru < victim->lru)
            victim = &l;
    }
    victim->valid = true;
    victim->tag = tag;
    victim->lru = lruClock;
    if (!setDirty[set_idx]) {
        setDirty[set_idx] = 1;
        dirtySets.push_back(static_cast<std::uint32_t>(set_idx));
    }
    return false;
}

bool
Cache::probe(std::uint64_t addr) const
{
    const std::uint64_t set_idx = geom.setOf(addr);
    const std::uint64_t tag = geom.tagOf(addr);
    for (std::uint64_t w = 0; w < geom.ways; ++w) {
        const Line &l = line(set_idx, w);
        if (l.valid && l.tag == tag)
            return true;
    }
    return false;
}

void
Cache::flushLine(std::uint64_t addr)
{
    const std::uint64_t set_idx = geom.setOf(addr);
    const std::uint64_t tag = geom.tagOf(addr);
    for (std::uint64_t w = 0; w < geom.ways; ++w) {
        Line &l = line(set_idx, w);
        if (l.valid && l.tag == tag)
            l = Line{};
    }
}

void
Cache::snapshot(std::uint64_t lo_set, std::uint64_t hi_set,
                CacheState &out) const
{
    SCAMV_ASSERT(lo_set <= hi_set && hi_set < geom.numSets,
                 "snapshot range out of bounds");
    // A set outside the dirty list holds no valid line: its slots
    // stay padding.
    out.assign((hi_set - lo_set + 1) * geom.ways, kNoTag);
    for (const std::uint64_t s : dirtySets) {
        if (s < lo_set || s > hi_set)
            continue;
        std::uint64_t *const first = &out[(s - lo_set) * geom.ways];
        std::uint64_t *slot = first;
        for (std::uint64_t w = 0; w < geom.ways; ++w) {
            const Line &l = line(s, w);
            if (l.valid)
                *slot++ = l.tag;
        }
        std::sort(first, slot);
    }
}

} // namespace scamv::hw
