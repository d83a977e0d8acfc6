/** @file Unit tests for the set-associative LRU cache. */

#include <gtest/gtest.h>

#include <algorithm>

#include "hw/cache.hh"
#include "support/rng.hh"

namespace scamv::hw {
namespace {

/** Valid tags in set `i` of a flat snapshot (non-padding slots). */
std::size_t
tagsIn(const CacheState &snap, std::size_t i, std::uint64_t ways)
{
    std::size_t n = 0;
    for (std::uint64_t w = 0; w < ways; ++w)
        n += snap[i * ways + w] != kNoTag;
    return n;
}

TEST(Cache, MissThenHit)
{
    Cache c;
    EXPECT_FALSE(c.access(0x80000));
    EXPECT_TRUE(c.access(0x80000));
    EXPECT_EQ(c.misses(), 1u);
    EXPECT_EQ(c.hits(), 1u);
}

TEST(Cache, SameLineDifferentOffsetHits)
{
    Cache c;
    c.access(0x80000);
    EXPECT_TRUE(c.access(0x80000 + 63)); // same 64-byte line
    EXPECT_FALSE(c.access(0x80000 + 64)); // next line
}

TEST(Cache, ProbeDoesNotAllocate)
{
    Cache c;
    EXPECT_FALSE(c.probe(0x80000));
    EXPECT_FALSE(c.access(0x80000)); // still a miss
    EXPECT_TRUE(c.probe(0x80000));
}

TEST(Cache, FlushLineRemoves)
{
    Cache c;
    c.access(0x80000);
    c.flushLine(0x80000);
    EXPECT_FALSE(c.probe(0x80000));
}

TEST(Cache, ResetClearsEverything)
{
    Cache c;
    c.access(0x80000);
    c.access(0x90000);
    c.reset();
    EXPECT_FALSE(c.probe(0x80000));
    EXPECT_FALSE(c.probe(0x90000));
}

TEST(Cache, AssociativityHoldsConflictingTags)
{
    Cache c; // 4 ways
    const obs::CacheGeometry g = c.geometry();
    const std::uint64_t set_stride = g.lineBytes * g.numSets; // same set
    for (int i = 0; i < 4; ++i)
        c.access(0x80000 + i * set_stride);
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(c.probe(0x80000 + i * set_stride)) << i;
}

TEST(Cache, LruEviction)
{
    Cache c;
    const obs::CacheGeometry g = c.geometry();
    const std::uint64_t stride = g.lineBytes * g.numSets;
    for (int i = 0; i < 4; ++i)
        c.access(0x80000 + i * stride);
    c.access(0x80000); // refresh way 0: way 1 is now LRU
    c.access(0x80000 + 4 * stride); // evicts tag 1
    EXPECT_TRUE(c.probe(0x80000));
    EXPECT_FALSE(c.probe(0x80000 + 1 * stride));
    EXPECT_TRUE(c.probe(0x80000 + 2 * stride));
    EXPECT_TRUE(c.probe(0x80000 + 4 * stride));
}

TEST(Cache, SnapshotReflectsContents)
{
    Cache c;
    c.access(0x80000);          // set 0 (0x80000 is set-aligned)
    c.access(0x80000 + 5 * 64); // set 5
    const CacheState snap = c.snapshot();
    const auto g = c.geometry();
    ASSERT_EQ(snap.size(), 128u * g.ways);
    EXPECT_EQ(tagsIn(snap, g.setOf(0x80000), g.ways), 1u);
    EXPECT_EQ(tagsIn(snap, g.setOf(0x80000 + 5 * 64), g.ways), 1u);
}

TEST(Cache, SnapshotRangeRestricts)
{
    Cache c;
    const auto g = c.geometry();
    // Addresses with set index 10 and 100.
    c.access(0x80000 + 10 * 64);
    c.access(0x80000 + 100 * 64);
    ASSERT_EQ(g.setOf(0x80000 + 10 * 64), 10u);
    const CacheState snap = c.snapshot(61, 127);
    ASSERT_EQ(snap.size(), 67u * g.ways);
    EXPECT_EQ(tagsIn(snap, 100 - 61, g.ways), 1u);
    // Set 10 excluded entirely.
    std::size_t total = 0;
    for (std::size_t i = 0; i < 67; ++i)
        total += tagsIn(snap, i, g.ways);
    EXPECT_EQ(total, 1u);
}

TEST(Cache, SnapshotSlotsAreSortedTagsThenPadding)
{
    Cache c;
    const auto g = c.geometry();
    const std::uint64_t stride = g.lineBytes * g.numSets; // same set
    c.access(0x80000 + 7 * stride + 64);
    c.access(0x80000 + 64);
    c.access(0x80000 + 3 * stride + 64);
    CacheState snap = {1, 2, 3}; // stale contents are overwritten
    c.snapshot(1, 2, snap);
    const std::uint64_t t0 = g.tagOf(0x80000);
    EXPECT_EQ(snap, (CacheState{t0, t0 + 3, t0 + 7, kNoTag, // set 1
                                kNoTag, kNoTag, kNoTag, kNoTag}));
    EXPECT_EQ(c.snapshot(1, 2), snap);
}

TEST(Cache, SnapshotsAreOrderCanonical)
{
    Cache a, b;
    const auto g = a.geometry();
    const std::uint64_t stride = g.lineBytes * g.numSets;
    a.access(0x80000);
    a.access(0x80000 + stride);
    b.access(0x80000 + stride);
    b.access(0x80000);
    EXPECT_EQ(a.snapshot(), b.snapshot());
}

TEST(Cache, DifferentContentsDetected)
{
    Cache a, b;
    a.access(0x80000);
    b.access(0x80000 + 64);
    EXPECT_NE(a.snapshot(), b.snapshot());
}

TEST(Cache, CustomGeometry)
{
    obs::CacheGeometry g;
    g.lineBytes = 32;
    g.numSets = 16;
    g.ways = 2;
    Cache c(g);
    EXPECT_FALSE(c.access(0));
    EXPECT_FALSE(c.access(32 * 16)); // same set, different tag
    EXPECT_TRUE(c.probe(0));
    EXPECT_FALSE(c.access(2 * 32 * 16)); // evicts LRU (tag 0)
    EXPECT_FALSE(c.probe(0));
}

/** Address with the given tag and set index in geometry g. */
std::uint64_t
addrOf(const obs::CacheGeometry &g, std::uint64_t tag, std::uint64_t set)
{
    return (tag << (g.lineShift() + g.setShift())) |
           (set << g.lineShift());
}

/** A random line biased toward a few sets, so sets fill and evict. */
std::uint64_t
randomLine(const obs::CacheGeometry &g, Rng &rng)
{
    const std::uint64_t set =
        rng.chance(0.5) ? rng.below(std::min<std::uint64_t>(g.numSets, 4))
                        : rng.below(g.numSets);
    return addrOf(g, 0x40 + rng.below(g.ways + 3), set) +
           rng.below(g.lineBytes);
}

TEST(Cache, DirtySetResetMatchesFreshCache)
{
    // reset() wipes only the sets allocated into since the previous
    // reset; the cache it leaves must be indistinguishable from a new
    // one, in its snapshot and in the hits and victims of whatever
    // access stream follows.
    obs::CacheGeometry custom;
    custom.lineBytes = 32;
    custom.numSets = 16;
    custom.ways = 3;
    for (const obs::CacheGeometry &g : {obs::CacheGeometry{}, custom}) {
        Rng rng(4242 + g.ways);
        Cache reused(g);
        for (int round = 0; round < 60; ++round) {
            // Dirty the cache: accesses, flushes and mid-stream resets.
            const int ops = static_cast<int>(rng.below(120));
            for (int op = 0; op < ops; ++op) {
                const std::uint64_t roll = rng.below(100);
                if (roll < 75)
                    reused.access(randomLine(g, rng));
                else if (roll < 97)
                    reused.flushLine(randomLine(g, rng));
                else
                    reused.reset();
            }
            reused.reset();
            Cache fresh(g);
            ASSERT_EQ(reused.snapshot(), fresh.snapshot())
                << "geometry ways=" << g.ways << " round " << round;

            for (int a = 0; a < 200; ++a) {
                const std::uint64_t addr = randomLine(g, rng);
                const std::uint64_t set = g.setOf(addr);
                ASSERT_EQ(reused.access(addr), fresh.access(addr))
                    << "round " << round << " access " << a;
                ASSERT_EQ(reused.snapshot(set, set),
                          fresh.snapshot(set, set))
                    << "round " << round << " access " << a;
                if (rng.chance(0.1)) {
                    const std::uint64_t victim = randomLine(g, rng);
                    reused.flushLine(victim);
                    fresh.flushLine(victim);
                }
            }
            ASSERT_EQ(reused.snapshot(), fresh.snapshot());
        }
    }
}

} // namespace
} // namespace scamv::hw
