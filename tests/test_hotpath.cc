/**
 * @file
 * Hot-path engine tests: the support/arena bump allocator, histogram
 * quantiles (p50/p99 export), and the solver-mode byte-identity
 * contract — oneshot and incremental campaigns must
 * produce identical verdicts, experiment logs and metrics for any
 * thread count, cold or warm query cache, and under fault injection;
 * likewise batched vs unbatched simulation.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/expdb.hh"
#include "core/pipeline.hh"
#include "gen/templates.hh"
#include "obs/models.hh"
#include "smt/modes.hh"
#include "support/arena.hh"
#include "support/faults.hh"
#include "support/metrics.hh"
#include "support/qcache/qcache.hh"

namespace scamv {
namespace {

// ---------------------------------------------------------------------
// support/arena

TEST(Arena, AllocationsAreAlignedAndDisjoint)
{
    support::Arena arena(256);
    auto *a = static_cast<std::byte *>(arena.allocate(10, 1));
    auto *b = static_cast<std::byte *>(arena.allocate(16, 16));
    auto *c = static_cast<std::byte *>(arena.allocate(1, 64));
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % 16, 0u);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(c) % 64, 0u);
    // Writable and disjoint: filling one region must not clobber
    // another.
    std::fill(a, a + 10, std::byte{0xaa});
    std::fill(b, b + 16, std::byte{0xbb});
    EXPECT_EQ(a[0], std::byte{0xaa});
    EXPECT_EQ(b[0], std::byte{0xbb});
    EXPECT_GE(arena.used(), 27u);
    EXPECT_GE(arena.capacity(), arena.used());
}

TEST(Arena, ResetRetainsCapacityAndReusesBlocks)
{
    support::Arena arena(128);
    for (int i = 0; i < 64; ++i)
        arena.allocate(32, 8);
    const std::size_t cap = arena.capacity();
    EXPECT_GT(cap, 0u);

    arena.reset();
    EXPECT_EQ(arena.used(), 0u);
    EXPECT_EQ(arena.capacity(), cap);

    // Steady state: the same allocation pattern fits in the retained
    // blocks without growing.
    for (int i = 0; i < 64; ++i)
        arena.allocate(32, 8);
    EXPECT_EQ(arena.capacity(), cap);
}

TEST(Arena, OversizedAllocationGetsDedicatedBlock)
{
    support::Arena arena(64);
    auto *p = arena.allocate(4096, 8);
    ASSERT_NE(p, nullptr);
    EXPECT_GE(arena.capacity(), 4096u);
    // And the arena still serves small allocations afterwards.
    EXPECT_NE(arena.allocate(8, 8), nullptr);
}

TEST(Arena, ZeroByteAllocationYieldsUniquePointer)
{
    support::Arena arena;
    EXPECT_NE(arena.allocate(0, 1), arena.allocate(0, 1));
}

TEST(ArenaAllocator, VectorUsesArenaAndResetReclaims)
{
    support::Arena arena(1024);
    {
        support::ArenaAllocator<std::uint64_t> alloc(&arena);
        std::vector<std::uint64_t,
                    support::ArenaAllocator<std::uint64_t>>
            v(alloc);
        v.assign(100, 7);
        EXPECT_GE(arena.used(), 100 * sizeof(std::uint64_t));
        EXPECT_EQ(v[99], 7u);
    } // container destroyed before reset, per the arena contract
    const std::size_t cap = arena.capacity();
    arena.reset();
    EXPECT_EQ(arena.used(), 0u);
    EXPECT_EQ(arena.capacity(), cap);
}

TEST(ArenaAllocator, FallsBackToHeapWithoutArena)
{
    std::vector<int, support::ArenaAllocator<int>> v;
    v.assign(1000, 3);
    EXPECT_EQ(v[999], 3);
    // Equality is arena identity.
    support::Arena arena;
    support::ArenaAllocator<int> heap1, heap2, backed(&arena);
    EXPECT_TRUE(heap1 == heap2);
    EXPECT_FALSE(heap1 == backed);
}

// ---------------------------------------------------------------------
// Histogram quantiles (p50/p99 metric export)

TEST(HistogramQuantile, EmptyHistogramIsZero)
{
    metrics::HistogramData h;
    h.bounds = {1.0, 2.0};
    h.counts = {0, 0, 0};
    EXPECT_EQ(h.quantile(0.5), 0.0);
    EXPECT_EQ(h.quantile(0.99), 0.0);
}

TEST(HistogramQuantile, InterpolatesWithinBucket)
{
    metrics::HistogramData h;
    h.bounds = {1.0, 2.0};
    h.counts = {4, 0, 0}; // all mass in [0, 1)
    h.count = 4;
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.5);
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 1.0);

    h.counts = {2, 2, 0};
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 1.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.75), 1.5);
}

TEST(HistogramQuantile, OverflowBucketClampsToLastBound)
{
    metrics::HistogramData h;
    h.bounds = {1.0, 2.0};
    h.counts = {0, 0, 3}; // all mass beyond the last bound
    h.count = 3;
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 2.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.99), 2.0);
}

TEST(HistogramQuantile, P50NeverExceedsP99)
{
    metrics::Registry reg(metrics::ClockMode::Deterministic);
    auto &h = reg.histogram("t");
    for (int i = 0; i < 100; ++i)
        h.observe(0.001 * i);
    const auto snap = reg.snapshot();
    const auto &data = snap.histograms.at("t");
    EXPECT_LE(data.quantile(0.5), data.quantile(0.99));
}

TEST(HistogramQuantile, JsonExportCarriesPercentiles)
{
    metrics::Registry reg(metrics::ClockMode::Deterministic);
    reg.histogram("lat").observe(0.5);
    const std::string json = metrics::toJson(reg.snapshot());
    EXPECT_NE(json.find("\"p50\":"), std::string::npos);
    EXPECT_NE(json.find("\"p99\":"), std::string::npos);
}

// ---------------------------------------------------------------------
// Solver modes

TEST(SolverMode, Name)
{
    EXPECT_STREQ(smt::solverModeName(smt::SolverMode::Oneshot),
                 "oneshot");
}

/** Campaign artifacts two runs must agree on, byte for byte. */
struct Artifacts {
    std::string metricsJson;
    std::string csv;
    std::int64_t counterexamples = 0;
};

std::string
csvOf(const core::ExperimentDb &db, const char *tag)
{
    const std::string path =
        std::string(::testing::TempDir()) + "scamv_hotpath_" + tag +
        ".csv";
    EXPECT_TRUE(db.exportCsv(path));
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    std::remove(path.c_str());
    return text.str();
}

/** PcAndLine campaign: exercises solveWith on the live solver. */
core::PipelineConfig
lineCampaign()
{
    core::PipelineConfig cfg;
    cfg.templateKind = gen::TemplateKind::Stride;
    cfg.model = obs::ModelKind::Mpart;
    cfg.refinement = obs::ModelKind::MpartRefined;
    cfg.coverage = core::Coverage::PcAndLine;
    cfg.programs = 4;
    cfg.testsPerProgram = 4;
    cfg.seed = 7;
    cfg.deterministicMetricsTiming = true;
    return cfg;
}

/** Pc campaign with training: exercises plain solve + solveOnce. */
core::PipelineConfig
pcCampaign()
{
    core::PipelineConfig cfg;
    cfg.templateKind = gen::TemplateKind::A;
    cfg.model = obs::ModelKind::Mct;
    cfg.refinement = obs::ModelKind::Mspec;
    cfg.train = true;
    cfg.programs = 4;
    cfg.testsPerProgram = 5;
    cfg.seed = 42;
    cfg.deterministicMetricsTiming = true;
    return cfg;
}

Artifacts
runArtifacts(core::PipelineConfig cfg, smt::SolverMode mode,
             int threads, const char *tag,
             qcache::QueryCache *qc = nullptr)
{
    core::ExperimentDb db;
    cfg.solverMode = mode;
    cfg.threads = threads;
    cfg.queryCache = qc;
    cfg.database = &db;
    const core::RunStats stats = core::Pipeline(cfg).run();
    return {metrics::toJson(stats.metrics), csvOf(db, tag),
            stats.counterexamples};
}

constexpr smt::SolverMode kModes[] = {smt::SolverMode::Oneshot,
                                      smt::SolverMode::Incremental};

TEST(SolverModeEquivalence, LineCoverageAcrossModesAndThreads)
{
    const Artifacts ref = runArtifacts(
        lineCampaign(), smt::SolverMode::Incremental, 1, "line_ref");
    EXPECT_FALSE(ref.csv.empty());
    for (smt::SolverMode mode : kModes) {
        for (int threads : {1, 4}) {
            const Artifacts got = runArtifacts(lineCampaign(), mode,
                                               threads, "line");
            EXPECT_EQ(got.metricsJson, ref.metricsJson)
                << smt::solverModeName(mode) << " x" << threads;
            EXPECT_EQ(got.csv, ref.csv)
                << smt::solverModeName(mode) << " x" << threads;
            EXPECT_EQ(got.counterexamples, ref.counterexamples);
        }
    }
}

TEST(SolverModeEquivalence, PcCoverageColdAndWarmCache)
{
    // Two references: cached and uncached campaigns differ in their
    // metric tick sequences (the cache layer makes its own clock
    // observations), so each configuration is compared against a
    // reference of the same kind — the repo invariant is cold == warm
    // == any thread count *within* a cache configuration, plus mode
    // equivalence across the board.
    const Artifacts ref = runArtifacts(
        pcCampaign(), smt::SolverMode::Incremental, 1, "pc_ref");
    EXPECT_FALSE(ref.csv.empty());
    qcache::QueryCache ref_qc({8 << 20, ""});
    const Artifacts cref =
        runArtifacts(pcCampaign(), smt::SolverMode::Incremental, 1,
                     "pc_cref", &ref_qc);
    EXPECT_EQ(cref.csv, ref.csv);
    for (smt::SolverMode mode : kModes) {
        // Cold, uncached.
        const Artifacts cold =
            runArtifacts(pcCampaign(), mode, 1, "pc_cold");
        EXPECT_EQ(cold.metricsJson, ref.metricsJson)
            << smt::solverModeName(mode);
        EXPECT_EQ(cold.csv, ref.csv) << smt::solverModeName(mode);

        // Cold through a fresh cache, then warm: the second campaign
        // through the same cache replays every enumeration step from
        // cached entries, at a different thread count.
        qcache::QueryCache qc({8 << 20, ""});
        const Artifacts ccold =
            runArtifacts(pcCampaign(), mode, 1, "pc_ccold", &qc);
        EXPECT_EQ(ccold.metricsJson, cref.metricsJson)
            << smt::solverModeName(mode) << " cached cold";
        EXPECT_EQ(ccold.csv, cref.csv)
            << smt::solverModeName(mode) << " cached cold";
        const Artifacts warm =
            runArtifacts(pcCampaign(), mode, 4, "pc_warm", &qc);
        EXPECT_EQ(warm.metricsJson, cref.metricsJson)
            << smt::solverModeName(mode) << " warm";
        EXPECT_EQ(warm.csv, cref.csv)
            << smt::solverModeName(mode) << " warm";
    }
}

TEST(SolverModeEquivalence, FaultInjectionAllSites)
{
    // SCAMV_FAULT_PLAN=all equivalent: every site armed.  Injected
    // Unknowns leave solver state untouched, so they are not recorded
    // in oneshot op logs — both modes must replay the fault campaign
    // byte-identically at any thread count.
    faults::FaultPlan plan;
    plan.rate = 0.3;
    plan.mask = faults::FaultPlan::maskAll();

    core::PipelineConfig base = pcCampaign();
    base.faultPlan = plan;
    base.retryMax = 2;

    const Artifacts ref = runArtifacts(
        base, smt::SolverMode::Incremental, 1, "fault_ref");
    for (smt::SolverMode mode : kModes) {
        for (int threads : {1, 4}) {
            const Artifacts got =
                runArtifacts(base, mode, threads, "fault");
            EXPECT_EQ(got.metricsJson, ref.metricsJson)
                << smt::solverModeName(mode) << " x" << threads;
            EXPECT_EQ(got.csv, ref.csv)
                << smt::solverModeName(mode) << " x" << threads;
        }
    }
}

TEST(SolverModeEquivalence, LineCoverageFaultCampaign)
{
    faults::FaultPlan plan;
    plan.rate = 0.3;
    plan.mask = faults::FaultPlan::maskAll();

    core::PipelineConfig base = lineCampaign();
    base.faultPlan = plan;
    base.retryMax = 2;

    const Artifacts ref = runArtifacts(
        base, smt::SolverMode::Incremental, 1, "lfault_ref");
    for (smt::SolverMode mode : kModes) {
        const Artifacts got = runArtifacts(base, mode, 4, "lfault");
        EXPECT_EQ(got.metricsJson, ref.metricsJson)
            << smt::solverModeName(mode);
        EXPECT_EQ(got.csv, ref.csv) << smt::solverModeName(mode);
    }
}

// ---------------------------------------------------------------------
// Batched simulation

TEST(BatchedSimulation, OnOffByteIdentical)
{
    auto run = [](bool sim_batch, const char *tag) {
        core::PipelineConfig cfg = lineCampaign();
        cfg.platform.simBatch = sim_batch;
        return runArtifacts(cfg, smt::SolverMode::Incremental, 1,
                            tag);
    };
    const Artifacts off = run(false, "batch_off");
    const Artifacts on = run(true, "batch_on");
    EXPECT_FALSE(off.csv.empty());
    EXPECT_EQ(off.metricsJson, on.metricsJson);
    EXPECT_EQ(off.csv, on.csv);
}

TEST(BatchedSimulation, BatchedFaultCampaignMatchesUnbatched)
{
    faults::FaultPlan plan;
    plan.rate = 0.3;
    plan.mask = faults::FaultPlan::maskAll();
    auto run = [&](bool sim_batch, const char *tag) {
        core::PipelineConfig cfg = pcCampaign();
        cfg.faultPlan = plan;
        cfg.retryMax = 2;
        cfg.platform.simBatch = sim_batch;
        return runArtifacts(cfg, smt::SolverMode::Incremental, 1,
                            tag);
    };
    const Artifacts off = run(false, "fbatch_off");
    const Artifacts on = run(true, "fbatch_on");
    EXPECT_EQ(off.metricsJson, on.metricsJson);
    EXPECT_EQ(off.csv, on.csv);
}

} // namespace
} // namespace scamv
