/** @file Unit tests for the support library (rng, tables, stats,
 * validated environment parsing, the text codec and the artifact
 * writers built on it). */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <set>

#include "cover/ledger.hh"
#include "support/env.hh"
#include "support/metrics.hh"
#include "support/rng.hh"
#include "support/stopwatch.hh"
#include "support/table.hh"
#include "support/textcodec.hh"
#include "triage/findings.hh"

namespace scamv {
namespace {

TEST(Rng, DeterministicFromSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 4);
}

TEST(Rng, BelowRespectsBound)
{
    Rng r(7);
    for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(r.below(bound), bound);
    }
}

TEST(Rng, BelowOneIsAlwaysZero)
{
    Rng r(3);
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(r.below(1), 0u);
}

TEST(Rng, RangeInclusive)
{
    Rng r(9);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 500; ++i) {
        const std::uint64_t v = r.range(5, 8);
        EXPECT_GE(v, 5u);
        EXPECT_LE(v, 8u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 4u); // all four values hit
}

TEST(Rng, ChanceExtremes)
{
    Rng r(11);
    for (int i = 0; i < 50; ++i) {
        EXPECT_FALSE(r.chance(0.0));
        EXPECT_TRUE(r.chance(1.0));
    }
}

TEST(Rng, ChanceApproximatesProbability)
{
    Rng r(13);
    int hits = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        hits += r.chance(0.25);
    EXPECT_NEAR(hits / static_cast<double>(n), 0.25, 0.02);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(17);
    for (int i = 0; i < 1000; ++i) {
        const double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, ShuffleIsPermutation)
{
    Rng r(19);
    std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8, 9};
    auto sorted = v;
    r.shuffle(v);
    std::sort(v.begin(), v.end());
    EXPECT_EQ(v, sorted);
}

TEST(Rng, SplitProducesIndependentStream)
{
    Rng a(23);
    Rng child = a.split();
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == child.next();
    EXPECT_LT(same, 4);
}

TEST(Rng, PickReturnsElement)
{
    Rng r(29);
    const std::vector<int> v{10, 20, 30};
    for (int i = 0; i < 50; ++i) {
        const int x = r.pick(v);
        EXPECT_TRUE(x == 10 || x == 20 || x == 30);
    }
}

TEST(RunningStat, Accumulates)
{
    RunningStat s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    s.add(2.0);
    s.add(4.0);
    s.add(6.0);
    EXPECT_EQ(s.count(), 3u);
    EXPECT_DOUBLE_EQ(s.mean(), 4.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 6.0);
    EXPECT_DOUBLE_EQ(s.total(), 12.0);
}

TEST(Stopwatch, MeasuresNonNegative)
{
    Stopwatch w;
    EXPECT_GE(w.seconds(), 0.0);
    EXPECT_GE(w.milliseconds(), 0.0);
}

TEST(TextTable, RendersAlignedColumns)
{
    TextTable t;
    t.setHeader({"name", "value"});
    t.addRow({"alpha", "1"});
    t.addRow({"b", "22"});
    const std::string out = t.render();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(TextTable, CsvEscapesSpecials)
{
    TextTable t;
    t.addRow({"a,b", "say \"hi\"", "plain"});
    const std::string csv = t.renderCsv();
    EXPECT_NE(csv.find("\"a,b\""), std::string::npos);
    EXPECT_NE(csv.find("\"say \"\"hi\"\"\""), std::string::npos);
    EXPECT_NE(csv.find("plain"), std::string::npos);
}

TEST(Format, FmtDouble)
{
    EXPECT_EQ(fmtDouble(3.14159, 2), "3.14");
    EXPECT_EQ(fmtDouble(2.0, 0), "2");
}

TEST(Format, FmtRatioHandlesZeroDenominator)
{
    EXPECT_EQ(fmtRatio(10.0, 0.0), "-");
    EXPECT_EQ(fmtRatio(10.0, 5.0), "2.0x");
}

TEST(Env, UnsetVariableIsNullopt)
{
    unsetenv("SCAMV_TEST_ENV");
    EXPECT_FALSE(envLong("SCAMV_TEST_ENV").has_value());
    EXPECT_FALSE(envDouble("SCAMV_TEST_ENV").has_value());
}

TEST(Env, ParsesWellFormedValues)
{
    setenv("SCAMV_TEST_ENV", "42", 1);
    EXPECT_EQ(envLong("SCAMV_TEST_ENV").value(), 42);
    setenv("SCAMV_TEST_ENV", "-7", 1);
    EXPECT_EQ(envLong("SCAMV_TEST_ENV").value(), -7);
    setenv("SCAMV_TEST_ENV", "0.125", 1);
    EXPECT_DOUBLE_EQ(envDouble("SCAMV_TEST_ENV").value(), 0.125);
    setenv("SCAMV_TEST_ENV", "1e3", 1);
    EXPECT_DOUBLE_EQ(envDouble("SCAMV_TEST_ENV").value(), 1000.0);
    // Trailing whitespace is tolerated (a quoted "4 " in a shell).
    setenv("SCAMV_TEST_ENV", "4 ", 1);
    EXPECT_EQ(envLong("SCAMV_TEST_ENV").value(), 4);
    unsetenv("SCAMV_TEST_ENV");
}

TEST(Env, RejectsTrailingGarbage)
{
    // atoi-style truncation ("4x" -> 4) silently mangles the user's
    // setting; the validated layer must reject the value instead.
    setenv("SCAMV_TEST_ENV", "4x", 1);
    EXPECT_FALSE(envLong("SCAMV_TEST_ENV").has_value());
    setenv("SCAMV_TEST_ENV", "1.5threads", 1);
    EXPECT_FALSE(envDouble("SCAMV_TEST_ENV").has_value());
    setenv("SCAMV_TEST_ENV", "abc", 1);
    EXPECT_FALSE(envLong("SCAMV_TEST_ENV").has_value());
    EXPECT_FALSE(envDouble("SCAMV_TEST_ENV").has_value());
    setenv("SCAMV_TEST_ENV", "", 1);
    EXPECT_FALSE(envLong("SCAMV_TEST_ENV").has_value());
    unsetenv("SCAMV_TEST_ENV");
}

TEST(Env, RejectsOutOfRangeMagnitudes)
{
    // strtol saturates to LONG_MAX with ERANGE; saturation is not
    // what the user asked for, so the value is rejected.
    setenv("SCAMV_TEST_ENV", "99999999999999999999999999", 1);
    EXPECT_FALSE(envLong("SCAMV_TEST_ENV").has_value());
    setenv("SCAMV_TEST_ENV", "1e400", 1);
    EXPECT_FALSE(envDouble("SCAMV_TEST_ENV").has_value());
    setenv("SCAMV_TEST_ENV", "inf", 1);
    EXPECT_FALSE(envDouble("SCAMV_TEST_ENV").has_value());
    unsetenv("SCAMV_TEST_ENV");
}

TEST(Env, BoundedOverloadsEnforceRange)
{
    setenv("SCAMV_TEST_ENV", "5", 1);
    EXPECT_EQ(envLong("SCAMV_TEST_ENV", 1, 10).value(), 5);
    EXPECT_FALSE(envLong("SCAMV_TEST_ENV", 6, 10).has_value());
    setenv("SCAMV_TEST_ENV", "0.5", 1);
    EXPECT_DOUBLE_EQ(envDouble("SCAMV_TEST_ENV", 0.0, 1.0).value(),
                     0.5);
    EXPECT_FALSE(envDouble("SCAMV_TEST_ENV", 0.6, 1.0).has_value());
    unsetenv("SCAMV_TEST_ENV");
}

TEST(Env, WarningsNameTheVariable)
{
    // A rejected setting must be traceable to its variable.
    setenv("SCAMV_TEST_ENV", "4x", 1);
    ::testing::internal::CaptureStderr();
    EXPECT_FALSE(envLong("SCAMV_TEST_ENV").has_value());
    const std::string out =
        ::testing::internal::GetCapturedStderr();
    EXPECT_NE(out.find("SCAMV_TEST_ENV"), std::string::npos) << out;
    EXPECT_NE(out.find("4x"), std::string::npos) << out;
    unsetenv("SCAMV_TEST_ENV");
}

TEST(TextCodec, EscapeRoundTripsEveryByte)
{
    std::string all;
    for (int c = 0; c < 256; ++c)
        all += static_cast<char>(c);
    for (const std::string &s :
         {all, std::string(), std::string("-"), std::string("a b%c")}) {
        const std::string e = text::esc(s);
        EXPECT_FALSE(e.empty());
        EXPECT_EQ(e.find_first_of(" \n\r"), std::string::npos) << e;
        EXPECT_EQ(text::unesc(e), s) << e;
    }
    for (int c = 0; c < 256; ++c) {
        const std::string one(1, static_cast<char>(c));
        EXPECT_EQ(text::unesc(text::esc(one)), one) << c;
    }
    EXPECT_EQ(text::esc(""), "-");
    EXPECT_EQ(text::esc("-"), "%2D");
    EXPECT_EQ(text::unesc("%2d"), "-"); // either hex case decodes
    for (const char *bad : {"%", "%2", "%G0", "%-1", "%+1", "a%"})
        EXPECT_FALSE(text::unesc(bad).has_value()) << bad;
}

TEST(TextCodec, ChecksumLineRejectsAnySingleByteFlip)
{
    for (const text::SumWidth w :
         {text::SumWidth::Fixed, text::SumWidth::Minimal}) {
        const std::string line =
            text::withChecksum("P 3 1 Template%20A#3 0.5 -", w);
        ASSERT_EQ(text::checkLine(line, w),
                  std::string_view("P 3 1 Template%20A#3 0.5 -"));
        for (std::size_t i = 0; i < line.size(); ++i) {
            for (int flip = 1; flip < 256; ++flip) {
                std::string bad = line;
                bad[i] = static_cast<char>(
                    static_cast<unsigned char>(bad[i]) ^ flip);
                EXPECT_FALSE(text::checkLine(bad, w).has_value())
                    << "byte " << i << " ^ " << flip;
            }
        }
    }
    // A missing or trailing-space-shifted checksum field is malformed.
    EXPECT_FALSE(text::checkLine(text::withChecksum("x") + " ")
                     .has_value());
    EXPECT_FALSE(text::checkLine("nochecksum").has_value());
    EXPECT_FALSE(text::checkLine("").has_value());
}

TEST(TextCodec, StrictNumberParserTable)
{
    struct Case {
        const char *text;
        bool u64, i64;
    };
    const Case cases[] = {
        {"0", true, true},
        {"42", true, true},
        {"010", true, true}, // decimal, never octal
        {"-1", false, true},
        {"-0", false, true},
        {"+7", false, false},
        {" 3", false, false},
        {"\t5", false, false},
        {"3 ", false, false},
        {"5x", false, false},
        {"0x10", false, false},
        {"", false, false},
        {"-", false, false},
        {"18446744073709551615", true, false},
        {"18446744073709551616", false, false},
        {"99999999999999999999", false, false},
        {"9223372036854775807", true, true},
        {"-9223372036854775808", false, true},
        {"-9223372036854775809", false, false},
        {"000000000000000000001", false, false}, // 21 characters
    };
    for (const Case &c : cases) {
        std::uint64_t u = 77;
        std::int64_t i = 77;
        EXPECT_EQ(text::parseNum(c.text, u), c.u64) << '"' << c.text << '"';
        EXPECT_EQ(text::parseNum(c.text, i), c.i64) << '"' << c.text << '"';
        if (!c.u64) {
            EXPECT_EQ(u, 77u) << "a failed parse must not write";
        }
    }
    int narrow = 0;
    EXPECT_TRUE(text::parseNum("010", narrow));
    EXPECT_EQ(narrow, 10);
    EXPECT_FALSE(text::parseNum("2147483648", narrow));
    EXPECT_TRUE(text::parseNum("-2147483648", narrow));

    std::uint64_t h = 0;
    EXPECT_TRUE(text::parseNum("ffffffffffffffff", h, 16));
    EXPECT_EQ(h, std::numeric_limits<std::uint64_t>::max());
    for (const char *bad : {"FF", "0x1f", "-1", "1ffffffffffffffff", ""})
        EXPECT_FALSE(text::parseNum(bad, h, 16)) << bad;

    double d = 0;
    for (const char *bad : {"", " 1", "+1", "1.5x", "0x1p3", "1e400",
                            "1e-400", "."})
        EXPECT_FALSE(text::parseNum(bad, d)) << bad;
    EXPECT_TRUE(text::parseNum("-2.5e-3", d));
    EXPECT_EQ(d, -2.5e-3);
    EXPECT_EQ(text::parseInRange("5", 1, 10), 5);
    EXPECT_FALSE(text::parseInRange("11", 1, 10).has_value());
    EXPECT_FALSE(text::parseInRange("nan", 0.0, 1.0).has_value());
}

TEST(TextCodec, G17RoundTripsBinary64Exactly)
{
    const double lim_min = std::numeric_limits<double>::min();
    const double values[] = {
        0.0,
        -0.0,
        0.1,
        1.0 / 3.0,
        -2.2250738585072014e-308,
        std::numeric_limits<double>::denorm_min(),
        lim_min / 3.0,
        -lim_min / 7.0,
        std::numeric_limits<double>::max(),
        std::numeric_limits<double>::lowest(),
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        123456789.123456789,
    };
    for (const double v : values) {
        double back = 1.0;
        ASSERT_TRUE(text::parseNum(text::g17(v), back)) << text::g17(v);
        EXPECT_EQ(std::signbit(back), std::signbit(v)) << text::g17(v);
        EXPECT_EQ(back, v) << text::g17(v);
    }
    double nan = 0.0;
    ASSERT_TRUE(text::parseNum(
        text::g17(std::numeric_limits<double>::quiet_NaN()), nan));
    EXPECT_TRUE(std::isnan(nan));
    Rng rng(7);
    for (int k = 0; k < 2000; ++k) {
        const std::uint64_t bits = rng.next();
        double v;
        std::memcpy(&v, &bits, sizeof v);
        if (std::isnan(v))
            continue;
        double back = 0.0;
        ASSERT_TRUE(text::parseNum(text::g17(v), back));
        EXPECT_EQ(std::memcmp(&back, &v, sizeof v), 0) << text::g17(v);
    }
}

TEST(TextCodec, FileRoundTripAndMissingFile)
{
    const std::string path =
        (std::filesystem::temp_directory_path() / "scamv_textcodec.bin")
            .string();
    const std::string bytes("a\0b\n\xff", 5);
    ASSERT_TRUE(text::writeFile(path, bytes));
    EXPECT_EQ(text::readFile(path), bytes);
    std::filesystem::remove(path);
    EXPECT_FALSE(text::readFile(path).has_value());
    EXPECT_FALSE(text::writeFile("/nonexistent-dir/x", "x"));
}

TEST(TextCodec, ArtifactWritersReportAFullDisk)
{
    // Every writer buffers less than one block here, so the failure
    // surfaces only at the final flush — which must be checked.
    if (!std::filesystem::exists("/dev/full"))
        GTEST_SKIP() << "no /dev/full on this host";
    metrics::Snapshot snap;
    snap.counters["c"] = 1;
    EXPECT_FALSE(metrics::writeJson(snap, "/dev/full"));
    EXPECT_FALSE(cover::writeJson(cover::Snapshot{}, "/dev/full"));
    EXPECT_FALSE(triage::writeFindings({}, "/dev/full"));
    TextTable t;
    t.addRow({"a", "b"});
    EXPECT_FALSE(t.writeCsv("/dev/full"));
    EXPECT_FALSE(text::writeFile("/dev/full", "x"));
}

} // namespace
} // namespace scamv
