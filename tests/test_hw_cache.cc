/** @file Unit tests for the set-associative LRU cache. */

#include <gtest/gtest.h>

#include "hw/cache.hh"

namespace scamv::hw {
namespace {

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
    ASSERT_EQ(snap.size(), 128u);
    const auto g = c.geometry();
    EXPECT_EQ(snap[g.setOf(0x80000)].size(), 1u);
    EXPECT_EQ(snap[g.setOf(0x80000 + 5 * 64)].size(), 1u);
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
    ASSERT_EQ(snap.size(), 67u);
    EXPECT_EQ(snap[100 - 61].size(), 1u);
    // Set 10 excluded entirely.
    std::size_t total = 0;
    for (const auto &s : snap)
        total += s.size();
    EXPECT_EQ(total, 1u);
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

} // namespace
} // namespace scamv::hw
