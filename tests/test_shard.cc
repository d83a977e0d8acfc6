/**
 * @file
 * Sharded campaign tests: planner partition laws, artifact round
 * trip, and the determinism contract — a coordinator merge of N
 * shard outputs is byte-identical to a 1-process, 1-thread run
 * (ARCHITECTURE.md, invariant 8) across cold, qcache-warm and
 * fault-plan-all campaigns, with drop-and-count handling of corrupt,
 * truncated and missing shard artifacts and `--rerun-missing`
 * recovery.
 */

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/pipeline.hh"
#include "shard/shard.hh"
#include "support/env.hh"
#include "support/faults.hh"
#include "support/metrics.hh"
#include "support/rng.hh"
#include "support/qcache/qcache.hh"

namespace fs = std::filesystem;
using namespace scamv;

namespace {

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return in ? ss.str() : std::string("<unreadable:" + path + ">");
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os << text;
}

/** Fresh per-test scratch directory under the gtest temp root. */
std::string
freshDir(const std::string &name)
{
    const std::string dir = testing::TempDir() + "scamv_shard_" + name;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

std::uint64_t
globalCounter(const std::string &name)
{
    const metrics::Snapshot snap =
        metrics::Registry::global().snapshot();
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0 : it->second;
}

core::PipelineConfig
testCfg(int programs, bool adaptive = false, bool line = false)
{
    return shard::defaultWorkload(programs, /*tests=*/3, /*seed=*/7,
                                  adaptive, line);
}

/** 1-process, 1-thread reference run writing the campaign artifact
 *  set (and optionally a qcache checkpoint) into `dir`. */
core::RunStats
runReference(core::PipelineConfig cfg, const std::string &dir,
             std::size_t qcache_mb = 0)
{
    fs::create_directories(dir);
    cover::CoverageLedger ledger;
    core::ExperimentDb db;
    cfg.coverageLedger = &ledger;
    cfg.database = &db;
    std::unique_ptr<qcache::QueryCache> cache;
    if (qcache_mb) {
        qcache::CacheConfig qc;
        qc.maxBytes = qcache_mb << 20;
        qc.filePath = dir + "/" + shard::kQcacheFile;
        cache = std::make_unique<qcache::QueryCache>(qc);
        cfg.queryCache = cache.get();
    }
    core::Pipeline pipeline(cfg);
    const core::RunStats stats = pipeline.run();
    EXPECT_TRUE(shard::writeCampaignArtifacts(stats, &db, dir));
    return stats;
}

std::vector<shard::WorkerResult>
runWorkers(const core::PipelineConfig &cfg, int n,
           const std::string &root)
{
    std::vector<shard::WorkerResult> out;
    for (int i = 0; i < n; ++i) {
        core::PipelineConfig wcfg = cfg;
        cover::CoverageLedger ledger;
        wcfg.coverageLedger = &ledger;
        out.push_back(shard::runWorker(wcfg, shard::ShardSpec{i, n},
                                       shard::shardDir(root, i)));
        EXPECT_TRUE(out.back().ok);
    }
    return out;
}

shard::MergeResult
runMerge(core::PipelineConfig cfg, int n, const std::string &root,
         const shard::MergeOptions &opts = {})
{
    cover::CoverageLedger ledger;
    core::ExperimentDb db;
    cfg.coverageLedger = &ledger;
    cfg.database = &db;
    return shard::mergeCampaign(cfg, n, root, opts);
}

void
expectArtifactsEqual(const std::string &root, const std::string &ref,
                     bool with_qcache)
{
    std::vector<std::string> files = {
        shard::kMetricsFile, shard::kCoverageFile, shard::kDbFile,
        shard::kStatsFile};
    if (with_qcache)
        files.push_back(shard::kQcacheFile);
    for (const std::string &f : files)
        EXPECT_EQ(readFile(root + "/" + f), readFile(ref + "/" + f))
            << "artifact " << f << " differs between " << root
            << " and " << ref;
}

class ShardTest : public testing::Test
{
  protected:
    void
    SetUp() override
    {
        // The byte-identity contract assumes workers, coordinator and
        // reference answer environment questions identically; scrub
        // every knob resolveCampaignEnv and the worker consult.
        for (const char *var :
             {"SCAMV_QCACHE_MB", "SCAMV_QCACHE_FILE",
              "SCAMV_FAULT_RATE", "SCAMV_FAULT_PLAN",
              "SCAMV_SCHEDULE", "SCAMV_COVERAGE_FILE",
              "SCAMV_METRICS", "SCAMV_METRICS_TABLE",
              "SCAMV_THREADS", "SCAMV_RETRY_MAX",
              "SCAMV_SHARD", "SCAMV_SHARD_DIR"})
            unsetenv(var);
    }
};

} // namespace

// ---------------------------------------------------------------
// Planner: exhaustive, non-overlapping, contiguous, deterministic.

TEST(ShardPlan, PartitionIsExhaustiveAndNonOverlapping)
{
    for (const std::uint64_t seed :
         {std::uint64_t{1}, std::uint64_t{7}, std::uint64_t{0x5eed}}) {
        for (const int programs : {0, 1, 5, 16, 17, 33, 100}) {
            for (int n = 1; n <= 8; ++n) {
                const int base = programs / n;
                int next = 0;
                for (int i = 0; i < n; ++i) {
                    const shard::Slice s =
                        shard::planShard(seed, programs, n, i);
                    EXPECT_EQ(s.first, next)
                        << "gap/overlap at shard " << i << "/" << n
                        << " programs=" << programs;
                    EXPECT_GE(s.count, base);
                    EXPECT_LE(s.count, base + 1);
                    next += s.count;
                    // Pure function: recomputing gives the same slice.
                    EXPECT_EQ(shard::planShard(seed, programs, n, i),
                              s);
                }
                EXPECT_EQ(next, programs)
                    << "partition not exhaustive for n=" << n;
            }
        }
    }
}

TEST(ShardPlan, SeedMovesTheRemainder)
{
    // 10 programs over 4 shards: two shards carry 3, two carry 2.
    // Which ones depends on the seed (but never on anything else).
    bool saw_difference = false;
    const shard::Slice ref = shard::planShard(1, 10, 4, 0);
    for (std::uint64_t seed = 2; seed < 30 && !saw_difference; ++seed)
        saw_difference = !(shard::planShard(seed, 10, 4, 0) == ref);
    EXPECT_TRUE(saw_difference);
}

TEST(ShardPlan, ParseSpec)
{
    const auto ok = shard::parseShardSpec("2/4");
    ASSERT_TRUE(ok.has_value());
    EXPECT_EQ(ok->index, 2);
    EXPECT_EQ(ok->count, 4);
    EXPECT_TRUE(shard::parseShardSpec("0/1").has_value());
    for (const char *bad : {"", "/", "1", "1/", "/4", "4/4", "5/4",
                            "-1/4", "a/4", "1/b", "1/0", "1/4/2",
                            "-0/4", "+1/4", " 1/4", "1/4 ",
                            "0/99999999999"})
        EXPECT_FALSE(shard::parseShardSpec(bad).has_value())
            << "accepted \"" << bad << "\"";
}

/** Offer a whole command line to parseWorkloadFlag.  @return the
 *  first result other than Taken, else Taken. */
shard::FlagParse
parseWorkloadLine(std::vector<std::string> args,
                  shard::WorkloadFlags &flags)
{
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    const int argc = static_cast<int>(argv.size());
    for (int i = 0; i < argc; ++i) {
        const shard::FlagParse r =
            shard::parseWorkloadFlag(argc, argv.data(), i, flags);
        if (r != shard::FlagParse::Taken)
            return r;
    }
    return shard::FlagParse::Taken;
}

TEST(ShardPlan, WorkloadFlagsAreStrictDecimal)
{
    shard::WorkloadFlags ok;
    ASSERT_EQ(parseWorkloadLine({"--programs", "32", "--tests", "6",
                                 "--seed", "010", "--line", "--adaptive",
                                 "--corpus", "k"},
                                ok),
              shard::FlagParse::Taken);
    EXPECT_EQ(ok.programs, 32);
    EXPECT_EQ(ok.tests, 6);
    EXPECT_EQ(ok.seed, 10u); // decimal, never octal
    EXPECT_TRUE(ok.line && ok.adaptive);
    EXPECT_EQ(ok.corpus, "k");
    for (const std::vector<std::string> &bad :
         std::vector<std::vector<std::string>>{
             {"--programs", "5x"},
             {"--programs", "0"},
             {"--tests", "-1"},
             {"--seed", "abc"},
             {"--seed", "-1"},
             {"--seed", "0x10"},
             {"--seed", "18446744073709551616"},
             {"--seed"},
             {"--corpus"}}) {
        shard::WorkloadFlags flags;
        EXPECT_EQ(parseWorkloadLine(bad, flags), shard::FlagParse::Bad)
            << bad[0] << ' ' << (bad.size() > 1 ? bad[1] : "");
    }
    shard::WorkloadFlags flags;
    EXPECT_EQ(parseWorkloadLine({"--dir", "x"}, flags),
              shard::FlagParse::Other);
}

TEST_F(ShardTest, SpecAndDirFromEnv)
{
    EXPECT_FALSE(shard::specFromEnv().has_value());
    setenv("SCAMV_SHARD", "1/3", 1);
    const auto spec = shard::specFromEnv();
    ASSERT_TRUE(spec.has_value());
    EXPECT_EQ(spec->index, 1);
    EXPECT_EQ(spec->count, 3);
    setenv("SCAMV_SHARD", "nonsense", 1);
    EXPECT_FALSE(shard::specFromEnv().has_value());
    unsetenv("SCAMV_SHARD");

    EXPECT_EQ(shard::dirFromEnv("fallback"), "fallback");
    setenv("SCAMV_SHARD_DIR", "/tmp/x", 1);
    EXPECT_EQ(shard::dirFromEnv("fallback"), "/tmp/x");
    unsetenv("SCAMV_SHARD_DIR");
}

// ---------------------------------------------------------------
// Artifact codec: lossless round trip, group-granular damage.

namespace {

core::CampaignSlice
sampleSlice()
{
    core::CampaignSlice slice;
    slice.first = 3;
    slice.count = 3;
    slice.earlyStopped = 1;
    slice.scheduleLocal = true;
    slice.outcomes.resize(3);

    core::ProgramOutcome &a = slice.outcomes[0];
    a.hasCex = true;
    a.name = "Template A#3"; // space and '#' in the name
    a.firstCexOffsetSeconds = 0.125;
    a.taskSeconds = 1.5;
    a.metrics.counters["pipeline.experiments"] = 4;
    a.metrics.gauges["pipeline.task_seconds"] = 1.5;
    metrics::HistogramData h;
    h.bounds = {1e-6, 1e-3, 1.0};
    h.counts = {2, 1, 0, 1};
    h.sum = 0.75;
    h.count = 4;
    a.metrics.histograms["phase.smt_seconds"] = h;
    a.coverDelta.templ = "Stride";
    a.coverDelta.model = "Mpart";
    a.coverDelta.universe = 128;
    a.coverDelta.verdicts.experiments = 4;
    a.coverDelta.verdicts.counterexamples = 1;
    a.coverDelta.classes[61] = cover::ClassStats{2, 3, 0.25};
    a.coverDelta.pathPairs["T|FF"] = 2;
    core::ExperimentRecord r;
    r.programName = "Template A#3";
    r.programText = "load x1, [x0]\nstore -%1 100%\n"; // newlines, %
    r.pathId = "-"; // the escaped-dash edge case
    r.trained = true;
    r.lineClass1 = 61;
    r.lineClass2 = -1;
    r.verdict = harness::Verdict::Counterexample;
    r.differingReps = 10;
    r.totalReps = 10;
    r.testCase.s1.regs.regs[0] = 0x80000;
    r.testCase.s1.regs.regs[3] = 0xdeadbeef;
    r.testCase.s1.mem = {{0x80000, 0x40}, {0x80040, 0}};
    r.testCase.s2.regs.regs[0] = 0x80040;
    a.records.push_back(r);

    core::ProgramOutcome &b = slice.outcomes[1];
    b.failed = true;
    b.name = "Stride#4";
    b.metrics.counters["pipeline.program_failures"] = 1;

    // outcomes[2] stays empty (an adaptive early-stopped slot).
    return slice;
}

core::PipelineConfig
sampleCfg()
{
    core::PipelineConfig cfg;
    cfg.seed = 0xabcdef;
    cfg.programs = 9;
    return cfg;
}

} // namespace

TEST_F(ShardTest, ArtifactRoundTripIsLossless)
{
    const core::CampaignSlice slice = sampleSlice();
    const core::PipelineConfig cfg = sampleCfg();
    const shard::ShardSpec spec{1, 3};
    const std::string text = shard::encodeSlice(slice, spec, cfg);

    const auto dec = shard::decodeSlice(text);
    ASSERT_TRUE(dec.has_value());
    EXPECT_EQ(dec->spec, spec);
    EXPECT_EQ(dec->seed, cfg.seed);
    EXPECT_EQ(dec->programs, cfg.programs);
    EXPECT_EQ(dec->slice.first, slice.first);
    EXPECT_EQ(dec->slice.count, slice.count);
    EXPECT_EQ(dec->slice.earlyStopped, slice.earlyStopped);
    EXPECT_EQ(dec->slice.scheduleLocal, slice.scheduleLocal);
    EXPECT_EQ(dec->droppedGroups, 0u);
    for (int k = 0; k < slice.count; ++k)
        EXPECT_TRUE(dec->present[static_cast<std::size_t>(k)]);

    // Field-level checks on the interesting outcome...
    const core::ProgramOutcome &got = dec->slice.outcomes[0];
    const core::ProgramOutcome &want = slice.outcomes[0];
    EXPECT_EQ(got.hasCex, want.hasCex);
    EXPECT_EQ(got.name, want.name);
    EXPECT_EQ(got.firstCexOffsetSeconds, want.firstCexOffsetSeconds);
    EXPECT_EQ(got.metrics, want.metrics);
    EXPECT_EQ(got.coverDelta, want.coverDelta);
    ASSERT_EQ(got.records.size(), 1u);
    EXPECT_EQ(got.records[0].programText, want.records[0].programText);
    EXPECT_EQ(got.records[0].pathId, want.records[0].pathId);
    EXPECT_EQ(got.records[0].testCase, want.records[0].testCase);
    EXPECT_EQ(got.records[0].verdict, want.records[0].verdict);

    // ...and the decisive one: re-encoding the decoded slice
    // reproduces the artifact byte for byte.
    EXPECT_EQ(shard::encodeSlice(dec->slice, dec->spec, cfg), text);
}

TEST_F(ShardTest, DamagedLineDropsOnlyItsGroup)
{
    const std::string text = shard::encodeSlice(
        sampleSlice(), shard::ShardSpec{1, 3}, sampleCfg());
    // Damage the second group's counter line (group order: P for
    // k=0 ... P for k=1, then its C line).
    const std::size_t p1 = text.find("\nP 1 ");
    ASSERT_NE(p1, std::string::npos);
    const std::size_t cline = text.find("\nC ", p1);
    ASSERT_NE(cline, std::string::npos);
    std::string damaged = text;
    damaged[cline + 3] ^= 1;

    const auto dec = shard::decodeSlice(damaged);
    ASSERT_TRUE(dec.has_value());
    EXPECT_EQ(dec->droppedGroups, 1u);
    EXPECT_TRUE(dec->present[0]);
    EXPECT_FALSE(dec->present[1]);
    EXPECT_TRUE(dec->present[2]);
}

TEST_F(ShardTest, TruncatedArtifactDropsTailGroups)
{
    const std::string text = shard::encodeSlice(
        sampleSlice(), shard::ShardSpec{1, 3}, sampleCfg());
    // Truncation at a line boundary: the last complete group
    // survives, everything after the cut is dropped and counted.
    const std::size_t p1 = text.find("\nP 1 ");
    ASSERT_NE(p1, std::string::npos);
    const auto clean = shard::decodeSlice(
        std::string_view(text).substr(0, p1 + 1));
    ASSERT_TRUE(clean.has_value());
    EXPECT_TRUE(clean->present[0]);
    EXPECT_FALSE(clean->present[1]);
    EXPECT_FALSE(clean->present[2]);
    EXPECT_EQ(clean->droppedGroups, 2u);

    // Mid-line truncation: the dangling fragment poisons the group
    // that is open at the cut — conservative, because that group may
    // be missing lines.
    const auto torn = shard::decodeSlice(
        std::string_view(text).substr(0, text.find("\nP 2 ") + 7));
    ASSERT_TRUE(torn.has_value());
    EXPECT_TRUE(torn->present[0]);
    EXPECT_FALSE(torn->present[1]);
    EXPECT_FALSE(torn->present[2]);
    EXPECT_EQ(torn->droppedGroups, 2u);
}

TEST_F(ShardTest, ForeignHeaderRejectsArtifact)
{
    EXPECT_FALSE(shard::decodeSlice("").has_value());
    EXPECT_FALSE(shard::decodeSlice("not-a-shard-artifact\n")
                     .has_value());
    // A valid header whose checksum was tampered with.
    std::string text = shard::encodeSlice(
        sampleSlice(), shard::ShardSpec{1, 3}, sampleCfg());
    text[text.find('\n') - 1] ^= 1;
    EXPECT_FALSE(shard::decodeSlice(text).has_value());
}

TEST_F(ShardTest, InjectedCorruptionDropsGroups)
{
    const std::string text = shard::encodeSlice(
        sampleSlice(), shard::ShardSpec{1, 3}, sampleCfg());
    faults::FaultPlan plan;
    plan.rate = 1.0;
    plan.mask = 1u
                << static_cast<int>(faults::Site::ShardArtifactCorrupt);
    faults::Injector injector(plan, /*seed=*/7, /*prog=*/0);
    metrics::Registry scratch(metrics::ClockMode::Deterministic);
    metrics::ScopedRegistry reg_scope(scratch);
    faults::ScopedInjector inj_scope(injector);
    const auto dec = shard::decodeSlice(text);
    ASSERT_TRUE(dec.has_value());
    EXPECT_EQ(dec->droppedGroups, 3u);
    for (int k = 0; k < 3; ++k)
        EXPECT_FALSE(dec->present[static_cast<std::size_t>(k)]);
}

// ---------------------------------------------------------------
// The determinism contract: merged == single-process, byte for byte.

TEST_F(ShardTest, MergedCampaignMatchesSingleProcessCold)
{
    const core::PipelineConfig cfg = testCfg(10);
    const std::string ref = freshDir("ref_cold");
    runReference(cfg, ref);
    for (const int n : {1, 2, 4}) {
        const std::string root =
            freshDir("cold_" + std::to_string(n));
        runWorkers(cfg, n, root);
        const shard::MergeResult res = runMerge(cfg, n, root);
        EXPECT_TRUE(res.missingPrograms.empty());
        EXPECT_EQ(res.droppedGroups, 0u);
        expectArtifactsEqual(root, ref, /*with_qcache=*/false);
    }
}

TEST_F(ShardTest, MergedCampaignMatchesSingleProcessQcacheWarm)
{
    const core::PipelineConfig cfg = testCfg(8);
    // Cold cached reference produces the full campaign checkpoint.
    const std::string ref = freshDir("ref_qcache");
    runReference(cfg, ref, /*qcache_mb=*/8);
    const std::string checkpoint =
        readFile(ref + "/" + shard::kQcacheFile);
    ASSERT_NE(checkpoint.find("scamv-qcache-v1"), std::string::npos);

    setenv("SCAMV_QCACHE_MB", "8", 1);
    for (const int n : {2, 4}) {
        const std::string root =
            freshDir("warm_" + std::to_string(n));
        // Warm start: every shard begins from the full checkpoint,
        // all solves hit, and the merged checkpoint collapses back
        // to the reference file.
        for (int i = 0; i < n; ++i) {
            fs::create_directories(shard::shardDir(root, i));
            writeFile(shard::shardDir(root, i) + "/" +
                          shard::kQcacheFile,
                      checkpoint);
        }
        runWorkers(cfg, n, root);
        const shard::MergeResult res = runMerge(cfg, n, root);
        EXPECT_TRUE(res.missingPrograms.empty());
        expectArtifactsEqual(root, ref, /*with_qcache=*/true);
    }
    // Cold shards build disjoint per-shard checkpoints whose merge
    // still reproduces the single-process file byte for byte.
    const std::string root = freshDir("qcache_cold_2");
    runWorkers(cfg, 2, root);
    runMerge(cfg, 2, root);
    expectArtifactsEqual(root, ref, /*with_qcache=*/true);

    // Losing a whole shard directory — checkpoint included — forces
    // the coordinator to re-dispatch that slice under a warm private
    // cache and reconstruct the lost checkpoint segment; the merged
    // artifacts (the campaign checkpoint among them) must still be
    // byte-identical.
    fs::remove_all(shard::shardDir(root, 1));
    shard::MergeOptions opts;
    opts.rerunMissing = true;
    const shard::MergeResult rec = runMerge(cfg, 2, root, opts);
    EXPECT_EQ(rec.droppedShards, 1u);
    EXPECT_TRUE(rec.missingPrograms.empty());
    expectArtifactsEqual(root, ref, /*with_qcache=*/true);
    unsetenv("SCAMV_QCACHE_MB");
}

TEST_F(ShardTest, MergedCampaignMatchesSingleProcessFaultPlanAll)
{
    core::PipelineConfig cfg = testCfg(10);
    cfg.faultPlan.rate = 0.2;
    cfg.faultPlan.mask = faults::FaultPlan::maskAll();
    const std::string ref = freshDir("ref_faults");
    runReference(cfg, ref);
    for (const int n : {2, 4}) {
        const std::string root =
            freshDir("faults_" + std::to_string(n));
        runWorkers(cfg, n, root);
        // The shard_artifact_corrupt site fires at load: recovery
        // via re-dispatch must restore byte-identity.
        shard::MergeOptions opts;
        opts.rerunMissing = true;
        const shard::MergeResult res = runMerge(cfg, n, root, opts);
        EXPECT_TRUE(res.missingPrograms.empty());
        expectArtifactsEqual(root, ref, /*with_qcache=*/false);
    }
}

// ---------------------------------------------------------------
// Damage handling at the coordinator.

TEST_F(ShardTest, CorruptShardArtifactDropsAndCounts)
{
    const core::PipelineConfig cfg = testCfg(8);
    const std::string ref = freshDir("ref_corrupt");
    runReference(cfg, ref);
    const std::string root = freshDir("corrupt");
    runWorkers(cfg, 2, root);

    // Flip one byte inside a record group of shard 1.
    const std::string path =
        shard::shardDir(root, 1) + "/" + shard::kOutcomesFile;
    std::string text = readFile(path);
    const std::size_t at = text.find("\nR ");
    ASSERT_NE(at, std::string::npos);
    text[at + 4] ^= 1;
    writeFile(path, text);

    const std::uint64_t dropped_before =
        globalCounter("shard.load_dropped");
    const shard::MergeResult res = runMerge(cfg, 2, root);
    EXPECT_GE(res.droppedGroups, 1u);
    EXPECT_FALSE(res.missingPrograms.empty());
    EXPECT_EQ(globalCounter("shard.load_dropped"),
              dropped_before + res.droppedGroups);

    // Re-dispatch restores byte-identity.
    shard::MergeOptions opts;
    opts.rerunMissing = true;
    const shard::MergeResult rec = runMerge(cfg, 2, root, opts);
    EXPECT_TRUE(rec.missingPrograms.empty());
    EXPECT_EQ(rec.rerunPrograms, res.missingPrograms);
    expectArtifactsEqual(root, ref, /*with_qcache=*/false);
}

TEST_F(ShardTest, TruncatedShardArtifactRecovers)
{
    const core::PipelineConfig cfg = testCfg(8);
    const std::string ref = freshDir("ref_trunc");
    runReference(cfg, ref);
    const std::string root = freshDir("trunc");
    runWorkers(cfg, 2, root);

    const std::string path =
        shard::shardDir(root, 0) + "/" + shard::kOutcomesFile;
    const std::string text = readFile(path);
    writeFile(path, text.substr(0, text.size() / 2));

    shard::MergeOptions opts;
    opts.rerunMissing = true;
    const shard::MergeResult res = runMerge(cfg, 2, root, opts);
    EXPECT_GE(res.droppedGroups, 1u);
    EXPECT_TRUE(res.missingPrograms.empty());
    EXPECT_FALSE(res.rerunPrograms.empty());
    expectArtifactsEqual(root, ref, /*with_qcache=*/false);
}

TEST_F(ShardTest, MissingShardArtifactRecovers)
{
    const core::PipelineConfig cfg = testCfg(8);
    const std::string ref = freshDir("ref_missing");
    runReference(cfg, ref);
    const std::string root = freshDir("missing");
    runWorkers(cfg, 2, root);
    fs::remove(shard::shardDir(root, 1) + "/" + shard::kOutcomesFile);

    // Without recovery: the gap is recorded, the merge completes.
    const shard::MergeResult gap = runMerge(cfg, 2, root);
    EXPECT_EQ(gap.droppedShards, 1u);
    const shard::Slice lost = shard::planShard(cfg.seed, cfg.programs,
                                               2, 1);
    EXPECT_EQ(static_cast<int>(gap.missingPrograms.size()),
              lost.count);
    EXPECT_LT(gap.stats.programs, cfg.programs);

    // With recovery: byte-identical to the reference.
    shard::MergeOptions opts;
    opts.rerunMissing = true;
    const shard::MergeResult res = runMerge(cfg, 2, root, opts);
    EXPECT_TRUE(res.missingPrograms.empty());
    EXPECT_EQ(static_cast<int>(res.rerunPrograms.size()), lost.count);
    expectArtifactsEqual(root, ref, /*with_qcache=*/false);
}

// ---------------------------------------------------------------
// Strict mode and per-shard write-drop attribution.

TEST_F(ShardTest, StrictFailsOnShardDbWriteDrops)
{
    core::PipelineConfig cfg = testCfg(8);
    cfg.faultPlan.rate = 0.8;
    cfg.faultPlan.mask = 1u
                         << static_cast<int>(faults::Site::DbWrite);
    const std::string root = freshDir("strict");
    runWorkers(cfg, 2, root);

    shard::MergeOptions opts;
    opts.strict = true;
    const shard::MergeResult res = runMerge(cfg, 2, root, opts);
    ASSERT_EQ(res.shardDbWriteDrops.size(), 2u);
    const std::int64_t total =
        res.shardDbWriteDrops[0] + res.shardDbWriteDrops[1];
    // Rate 0.8 with the default 2 retries drops >half the records;
    // 8 programs x 3 tests cannot all survive.
    EXPECT_GT(total, 0);
    EXPECT_EQ(total, res.stats.dbWriteDrops);
    EXPECT_FALSE(res.ok);

    // The same campaign without the fault plan passes --strict.
    core::PipelineConfig clean = testCfg(8);
    const std::string root2 = freshDir("strict_clean");
    runWorkers(clean, 2, root2);
    const shard::MergeResult ok = runMerge(clean, 2, root2, opts);
    EXPECT_EQ(ok.stats.dbWriteDrops, 0);
    EXPECT_TRUE(ok.ok);
}

// ---------------------------------------------------------------
// Nightly-stress entry point: unlike the ShardTest fixture this
// suite honors SCAMV_FAULT_RATE / SCAMV_FAULT_PLAN from the
// environment (falling back to shard_artifact_corrupt alone), so the
// nightly fault matrix can hammer the coordinator's load/recovery
// path at elevated rates.

TEST(ShardFaultCampaign, RecoversUnderInjectedFaults)
{
    core::PipelineConfig cfg = shard::defaultWorkload(
        /*programs=*/8, /*tests=*/3, /*seed=*/11, /*adaptive=*/false,
        /*line=*/false);
    faults::FaultPlan plan = faults::FaultPlan::fromEnv();
    if (!plan.enabled()) {
        plan.rate = 0.3;
        plan.mask =
            1u << static_cast<int>(faults::Site::ShardArtifactCorrupt);
    }
    cfg.faultPlan = plan;

    const std::string root = freshDir("fault_campaign");
    runWorkers(cfg, 2, root);
    shard::MergeOptions opts;
    opts.rerunMissing = true;
    const shard::MergeResult first = runMerge(cfg, 2, root, opts);
    EXPECT_TRUE(first.missingPrograms.empty())
        << "re-dispatch left gaps";
    // Injection is seeded: folding the same shard outputs again must
    // drop the same groups, rerun the same programs, and land on the
    // same campaign snapshot.
    const shard::MergeResult second = runMerge(cfg, 2, root, opts);
    EXPECT_EQ(first.droppedGroups, second.droppedGroups);
    EXPECT_EQ(first.rerunPrograms, second.rerunPrograms);
    EXPECT_EQ(first.stats.metrics, second.stats.metrics);
    EXPECT_EQ(first.stats.coverage, second.stats.coverage);
}

// ---------------------------------------------------------------
// Adaptive schedule: deterministic per-shard degradation.

TEST_F(ShardTest, AdaptiveShardingIsDeterministicAndCounted)
{
    const core::PipelineConfig cfg =
        testCfg(12, /*adaptive=*/true, /*line=*/true);
    const std::string root = freshDir("adaptive");
    const std::uint64_t local_before =
        globalCounter("shard.schedule_local");
    const std::vector<shard::WorkerResult> workers =
        runWorkers(cfg, 2, root);

    const shard::MergeResult first = runMerge(cfg, 2, root);
    EXPECT_EQ(globalCounter("shard.schedule_local"),
              local_before + 2);
    // Early-stop accounting is the sum of the per-shard decisions.
    EXPECT_EQ(first.stats.earlyStopped,
              workers[0].stats.earlyStopped +
                  workers[1].stats.earlyStopped);

    // The merge itself is deterministic: folding the same shard
    // outputs again reproduces every artifact byte for byte.
    std::vector<std::string> snapshot;
    for (const char *f : {shard::kMetricsFile, shard::kCoverageFile,
                          shard::kDbFile, shard::kStatsFile})
        snapshot.push_back(readFile(root + "/" + f));
    const shard::MergeResult second = runMerge(cfg, 2, root);
    EXPECT_EQ(first.stats.metrics, second.stats.metrics);
    EXPECT_EQ(first.stats.coverage, second.stats.coverage);
    std::size_t at = 0;
    for (const char *f : {shard::kMetricsFile, shard::kCoverageFile,
                          shard::kDbFile, shard::kStatsFile})
        EXPECT_EQ(readFile(root + "/" + f), snapshot[at++])
            << "artifact " << f << " not deterministic";
}

// ---------------------------------------------------------------
// Satellite: planner with more shards than programs — the extra
// shards get empty slices and the partition stays exhaustive.

TEST(ShardPlan, MoreShardsThanProgramsYieldsEmptySlices)
{
    for (const int programs : {0, 1, 3}) {
        const int n = 8;
        int next = 0, empty = 0;
        for (int i = 0; i < n; ++i) {
            const shard::Slice s = shard::planShard(9, programs, n, i);
            EXPECT_EQ(s.first, next);
            EXPECT_GE(s.count, 0);
            EXPECT_LE(s.count, 1);
            if (s.count == 0)
                ++empty;
            next += s.count;
        }
        EXPECT_EQ(next, programs);
        EXPECT_EQ(empty, n - programs);
    }
}

// ---------------------------------------------------------------
// Property fuzz: randomly generated slices — hostile strings,
// non-finite doubles, empty states — round-trip byte-identically
// through the artifact codec.

namespace {

/** SCAMV_FUZZ_ITERS scale, like test_solver_fuzz. */
int
fuzzIters(int base)
{
    static const int scale = static_cast<int>(
        envLong("SCAMV_FUZZ_ITERS", 1, 1000).value_or(1));
    return base * scale;
}

/** Random text exercising every escaping path of the codec. */
std::string
randomText(Rng &rng)
{
    static const char *const kAtoms[] = {
        "plain", "with space", "%", "%%20", "-", "#", "a\nb",
        "tab\there", "\x01\x02", "trailing ", " leading", "",
        "100% done", "\x1f\x7f", "nan", "0x,:;|",
    };
    std::string out;
    const int parts = static_cast<int>(rng.below(4));
    for (int i = 0; i < parts; ++i)
        out += kAtoms[rng.below(std::size(kAtoms))];
    return out;
}

/** Random double including the non-finite and signed-zero cases. */
double
randomDouble(Rng &rng)
{
    switch (rng.below(8)) {
    case 0: return 0.0;
    case 1: return -0.0;
    case 2: return std::numeric_limits<double>::infinity();
    case 3: return -std::numeric_limits<double>::infinity();
    case 4: return std::numeric_limits<double>::quiet_NaN();
    case 5: return 0.1 * static_cast<double>(rng.below(1000));
    case 6: return 1e-300 * static_cast<double>(rng.below(100));
    default:
        return static_cast<double>(static_cast<std::int64_t>(
                   rng.next())) *
               1e10;
    }
}

/** Random test case; frequently the all-empty edge. */
harness::TestCase
randomCase(Rng &rng)
{
    harness::TestCase tc;
    if (rng.below(3) == 0)
        return tc; // empty states
    const int regs = static_cast<int>(rng.below(4));
    for (int i = 0; i < regs; ++i)
        tc.s1.regs.regs[rng.below(bir::kNumRegs)] = rng.next();
    const int mems = static_cast<int>(rng.below(3));
    for (int i = 0; i < mems; ++i) {
        tc.s1.mem.emplace_back(0x80000 + 8 * rng.below(64),
                               rng.next());
        tc.s2.mem.emplace_back(0x80000 + 8 * rng.below(64),
                               rng.below(2) ? rng.next() : 0);
    }
    if (rng.below(2))
        tc.s2.regs.regs[rng.below(bir::kNumRegs)] = rng.next();
    return tc;
}

metrics::Snapshot
randomSnapshot(Rng &rng)
{
    metrics::Snapshot snap;
    const int counters = static_cast<int>(rng.below(3));
    for (int i = 0; i < counters; ++i)
        snap.counters["c." + std::to_string(rng.below(5))] =
            static_cast<std::int64_t>(rng.next());
    if (rng.below(2))
        snap.gauges["g.fuzz"] = randomDouble(rng);
    if (rng.below(2)) {
        metrics::HistogramData h;
        const int buckets = static_cast<int>(rng.below(3)) + 1;
        for (int i = 0; i < buckets; ++i)
            h.bounds.push_back(static_cast<double>(i + 1));
        h.counts.assign(h.bounds.size() + 1, 0);
        for (auto &c : h.counts)
            c = rng.below(10);
        h.sum = randomDouble(rng);
        h.count = rng.below(40);
        snap.histograms["h.fuzz"] = h;
    }
    return snap;
}

core::ProgramOutcome
randomOutcome(Rng &rng)
{
    core::ProgramOutcome o;
    o.hasCex = rng.below(2) != 0;
    o.failed = rng.below(4) == 0;
    o.quarantined = rng.below(4) == 0;
    o.name = randomText(rng);
    o.firstCexOffsetSeconds = rng.below(2) ? randomDouble(rng) : -1.0;
    o.taskSeconds = randomDouble(rng);
    o.metrics = randomSnapshot(rng);
    if (rng.below(2)) {
        o.coverDelta.templ = randomText(rng);
        o.coverDelta.model = randomText(rng);
        o.coverDelta.universe = rng.below(129);
        o.coverDelta.verdicts.experiments =
            static_cast<std::int64_t>(rng.below(100));
        o.coverDelta.classes[static_cast<int>(rng.below(128))] =
            cover::ClassStats{static_cast<std::int64_t>(rng.below(9)),
                              static_cast<std::int64_t>(rng.below(9)),
                              randomDouble(rng)};
        o.coverDelta.pathPairs[randomText(rng)] =
            static_cast<std::int64_t>(rng.below(50));
    }
    const int records = static_cast<int>(rng.below(3));
    for (int i = 0; i < records; ++i) {
        core::ExperimentRecord r;
        r.programName = randomText(rng);
        r.programText = randomText(rng);
        r.pathId = randomText(rng);
        r.testCase = randomCase(rng);
        r.trained = rng.below(2) != 0;
        r.lineClass1 = static_cast<int>(rng.below(130)) - 1;
        r.lineClass2 = static_cast<int>(rng.below(130)) - 1;
        r.verdict = static_cast<harness::Verdict>(rng.below(3));
        r.differingReps = static_cast<int>(rng.below(11));
        r.totalReps = 10;
        o.records.push_back(std::move(r));
    }
    const int findings = static_cast<int>(rng.below(3));
    for (int i = 0; i < findings; ++i) {
        triage::Finding f;
        f.progIndex = static_cast<int>(rng.below(1000));
        f.program = randomText(rng);
        f.mechanism = randomText(rng);
        f.signature = randomText(rng);
        f.minimized = rng.below(2) != 0;
        f.degraded = rng.below(2) != 0;
        f.instrsBefore = static_cast<int>(rng.below(40));
        f.instrsAfter = static_cast<int>(rng.below(40));
        f.stateBitsBefore = static_cast<int>(rng.below(200));
        f.stateBitsAfter = static_cast<int>(rng.below(200));
        f.core = randomText(rng);
        f.tc = randomCase(rng);
        o.findings.push_back(std::move(f));
    }
    return o;
}

} // namespace

TEST(ShardCodecFuzz, RandomSlicesRoundTripByteIdentically)
{
    Rng rng(0xc0dec);
    for (int iter = 0; iter < fuzzIters(40); ++iter) {
        core::CampaignSlice slice;
        slice.count = static_cast<int>(rng.below(5));
        slice.first = static_cast<int>(rng.below(20));
        slice.earlyStopped = static_cast<int>(rng.below(3));
        slice.scheduleLocal = rng.below(2) != 0;
        slice.outcomes.resize(
            static_cast<std::size_t>(slice.count));
        for (auto &o : slice.outcomes)
            if (rng.below(5) != 0) // leave some slots empty
                o = randomOutcome(rng);

        core::PipelineConfig cfg;
        cfg.seed = rng.next();
        cfg.programs = slice.first + slice.count +
                       static_cast<int>(rng.below(10));
        const shard::ShardSpec spec{
            static_cast<int>(rng.below(4)),
            static_cast<int>(rng.below(4)) + 4};

        const std::string text = shard::encodeSlice(slice, spec, cfg);
        const auto dec = shard::decodeSlice(text);
        ASSERT_TRUE(dec.has_value()) << "iter " << iter;
        EXPECT_EQ(dec->droppedGroups, 0u) << "iter " << iter;
        EXPECT_EQ(dec->seed, cfg.seed);
        EXPECT_EQ(dec->programs, cfg.programs);

        // The decisive property: re-encoding the decoded slice
        // reproduces the artifact byte for byte (NaN/inf doubles,
        // escaped strings, empty states and all).
        core::PipelineConfig cfg2;
        cfg2.seed = dec->seed;
        cfg2.programs = dec->programs;
        EXPECT_EQ(shard::encodeSlice(dec->slice, dec->spec, cfg2),
                  text)
            << "iter " << iter;
    }
}
