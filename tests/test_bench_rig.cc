/** @file Tests for the bench rig (bench/rig.hh): the byte-compare
 *  every determinism gate rests on, and gate evaluation. */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>

#include "rig.hh"

namespace scamv::bench {
namespace {

std::string
tempPath(const std::string &name)
{
    return (std::filesystem::temp_directory_path() /
            ("scamv_test_bench_rig_" + name))
        .string();
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary);
    out << text;
}

TEST(BenchRig, SameBytesNeedsTwoNonEmptyEqualSides)
{
    EXPECT_TRUE(sameBytes(std::string("a,b\n"), std::string("a,b\n")));
    EXPECT_FALSE(sameBytes(std::string("a,b\n"), std::string("a,c\n")));
    // Failed reads or exports never agree, not even with each other.
    EXPECT_FALSE(sameBytes(std::nullopt, std::nullopt));
    EXPECT_FALSE(sameBytes(std::string(), std::string()));
    EXPECT_FALSE(sameBytes(std::string("x"), std::nullopt));
    EXPECT_FALSE(sameBytes(std::nullopt, std::string("x")));
    EXPECT_FALSE(sameBytes(std::string(), std::string("x")));
}

TEST(BenchRig, SlurpReadsBytesAndReportsMissingFiles)
{
    const std::string path = tempPath("slurp.txt");
    writeFile(path, std::string("a\0b\n", 4));
    EXPECT_EQ(slurp(path), std::string("a\0b\n", 4));
    std::remove(path.c_str());
    EXPECT_EQ(slurp(path), std::nullopt);
}

TEST(BenchRig, FailedCsvExportsDoNotAgree)
{
    core::ExperimentDb a, b;
    const std::string bad = tempPath("no_such_dir") + "/db.csv";
    EXPECT_EQ(exportedCsv(a, bad), std::nullopt);
    EXPECT_FALSE(sameBytes(exportedCsv(a, bad), exportedCsv(b, bad)));
    // A real export round-trips and removes its file.
    const std::string good = tempPath("db.csv");
    const std::optional<std::string> csv = exportedCsv(a, good);
    ASSERT_TRUE(csv.has_value());
    EXPECT_TRUE(sameBytes(csv, exportedCsv(b, good)));
    EXPECT_FALSE(std::filesystem::exists(good));
}

TEST(BenchRig, SameCampaignArtifactsRejectsMissingFiles)
{
    namespace fs = std::filesystem;
    const std::string a = tempPath("artifacts_a");
    const std::string b = tempPath("artifacts_b");
    fs::remove_all(a);
    fs::remove_all(b);
    fs::create_directories(a);
    fs::create_directories(b);
    for (const char *f : {shard::kMetricsFile, shard::kCoverageFile,
                          shard::kDbFile, shard::kStatsFile}) {
        writeFile(a + "/" + f, f);
        writeFile(b + "/" + f, f);
    }
    EXPECT_TRUE(sameCampaignArtifacts(a, b));
    fs::remove(b + "/" + shard::kDbFile);
    EXPECT_FALSE(sameCampaignArtifacts(a, b));
    EXPECT_FALSE(sameCampaignArtifacts(b, a));
    fs::remove_all(a);
    fs::remove_all(b);
}

TEST(BenchRig, CheckOps)
{
    EXPECT_TRUE((Check{"g", 1.5, Op::Ge, 1.5}.ok()));
    EXPECT_FALSE((Check{"g", 1.49, Op::Ge, 1.5}.ok()));
    EXPECT_TRUE((Check{"l", 3, Op::Le, 3}.ok()));
    EXPECT_FALSE((Check{"l", 4, Op::Le, 3}.ok()));
    EXPECT_TRUE((Check{"e", 1, Op::Eq, 1}.ok()));
    EXPECT_FALSE((Check{"e", 0, Op::Eq, 1}.ok()));
    const double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_FALSE((Check{"n", nan, Op::Ge, 0}.ok()));
    EXPECT_FALSE((Check{"n", nan, Op::Le, 0}.ok()));
    EXPECT_FALSE((Check{"n", nan, Op::Eq, nan}.ok()));
}

TEST(BenchRig, PassNeedsEveryGate)
{
    Report none("none");
    EXPECT_FALSE(none.pass()); // a report without gates proves nothing

    Report r("demo");
    r.gate("speedup", 2.0, Op::Ge, 1.5);
    r.gate("deterministic", true, Op::Eq, 1);
    EXPECT_TRUE(r.pass());
    r.gate("misses", 20, Op::Le, 10);
    EXPECT_FALSE(r.pass());
}

TEST(BenchRig, AnyOfNeedsOneMember)
{
    Report one("one");
    one.anyOf({{"speedup", 1.1, Op::Ge, 1.5},
               {"smt_avoided", 0.9, Op::Ge, 0.3}});
    EXPECT_TRUE(one.pass());

    Report neither("neither");
    neither.anyOf({{"speedup", 1.1, Op::Ge, 1.5},
                   {"smt_avoided", 0.1, Op::Ge, 0.3}});
    EXPECT_FALSE(neither.pass());
}

TEST(BenchRig, JsonCarriesFullPrecisionAndVerdict)
{
    Report r("demo");
    r.workload("template", "stride");
    r.workload("programs", 16);
    r.leg("single", {{"seconds", 0.1}});
    r.gate("merge_seconds", 0.1, Op::Le, 0.3);
    r.anyOf({{"speedup", 1.0 / 3.0, Op::Ge, 1.5},
             {"smt_avoided", std::nan(""), Op::Ge, 0.3}});
    EXPECT_EQ(r.path(), "BENCH_demo.json");
    const std::string json = r.json();
    EXPECT_NE(json.find("\"schema\": \"scamv-bench-v1\""),
              std::string::npos);
    EXPECT_NE(json.find("\"template\": \"stride\", \"programs\": 16"),
              std::string::npos);
    EXPECT_NE(json.find("\"seconds\": 0.10000000000000001"),
              std::string::npos);
    EXPECT_NE(json.find("{\"any_of\": [{\"name\": \"speedup\", "
                        "\"value\": 0.33333333333333331, \"op\": "
                        "\">=\", \"bound\": 1.5}, {\"name\": "
                        "\"smt_avoided\", \"value\": null"),
              std::string::npos);
    EXPECT_NE(json.find("\"pass\": false"), std::string::npos);
}

} // namespace
} // namespace scamv::bench
