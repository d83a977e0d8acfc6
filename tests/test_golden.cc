/**
 * @file
 * Golden campaign artifacts: three small campaigns whose experiment
 * log (CSV), metrics JSON and findings JSON must match the files in
 * tests/golden/campaign_* byte for byte.
 *
 * The equivalence suites elsewhere compare two runs of the same
 * build, so a change that shifts one rng draw or one
 * deterministic-clock tick in every run alike still passes them.
 * These goldens pin the artifacts themselves: the metrics JSON
 * carries every phase histogram on the deterministic clock, the CSV
 * every test case the solver and sampler produced.
 *
 * Every run also writes its artifacts to <gtest TempDir>scamv_golden/
 * (TempDir is $TEST_TMPDIR, default /tmp/).  The goldens were made
 * that way from the pipeline as it stood before runOneProgram was
 * split into stage functions; after an intentional behaviour change
 * refresh them with
 *
 *     build/tests/test_golden &&
 *         cp /tmp/scamv_golden/campaign_* tests/golden/
 *
 * and review the diff of tests/golden/ with the change.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "core/expdb.hh"
#include "core/pipeline.hh"
#include "gen/templates.hh"
#include "obs/models.hh"
#include "shard/shard.hh"
#include "support/faults.hh"
#include "support/metrics.hh"
#include "triage/findings.hh"

namespace scamv {
namespace {

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

class GoldenCampaign : public testing::Test
{
  protected:
    void
    SetUp() override
    {
        // The campaigns are fully configured here; no environment
        // knob may reach them.
        for (const char *var :
             {"SCAMV_QCACHE_MB", "SCAMV_QCACHE_FILE",
              "SCAMV_FAULT_RATE", "SCAMV_FAULT_PLAN",
              "SCAMV_SCHEDULE", "SCAMV_COVERAGE_FILE",
              "SCAMV_METRICS", "SCAMV_METRICS_TABLE",
              "SCAMV_THREADS", "SCAMV_RETRY_MAX", "SCAMV_TRIAGE",
              "SCAMV_MINIMIZE", "SCAMV_FINDINGS_FILE",
              "SCAMV_CORPUS_DIR", "SCAMV_PROGRAM_FILE",
              "SCAMV_UNROLL_BUDGET"})
            unsetenv(var);
    }

    /**
     * Run `cfg`, save its artifacts as <name>.{csv,metrics.json}
     * (plus <name>.findings.json when it has findings) under the
     * scratch directory and compare each with its golden.
     */
    void
    expectGolden(core::PipelineConfig cfg, const std::string &name)
    {
        core::ExperimentDb db;
        cfg.database = &db;
        const core::RunStats stats = core::Pipeline(cfg).run();
        EXPECT_GT(stats.experiments, 0);

        const std::string out_dir =
            std::string(testing::TempDir()) + "scamv_golden/";
        std::filesystem::create_directories(out_dir);
        ASSERT_TRUE(db.exportCsv(out_dir + name + ".csv"));
        std::string files[] = {name + ".csv", name + ".metrics.json",
                               name + ".findings.json"};
        std::ofstream(out_dir + files[1], std::ios::binary)
            << metrics::toJson(stats.metrics);
        std::filesystem::remove(out_dir + files[2]);
        if (!stats.findings.empty())
            std::ofstream(out_dir + files[2], std::ios::binary)
                << triage::findingsToJson(stats.findings);

        for (const std::string &file : files) {
            const std::string golden =
                std::string(SCAMV_REPO_ROOT) + "/tests/golden/" + file;
            ASSERT_EQ(std::filesystem::exists(golden),
                      std::filesystem::exists(out_dir + file))
                << file;
            if (std::filesystem::exists(golden)) {
                EXPECT_TRUE(readFile(golden) == readFile(out_dir + file))
                    << file << " differs from its golden; see "
                    << out_dir << file;
            }
        }
    }
};

/** Stride template, Mpart refined by Mpart', Mline coverage draws. */
TEST_F(GoldenCampaign, LineCoverage)
{
    core::PipelineConfig cfg = shard::defaultWorkload(
        6, 4, 7, /*adaptive=*/false, /*line=*/true);
    cfg.threads = 2;
    expectGolden(cfg, "campaign_line");
}

/** Template A, Mct refined by Mspec with training, every fault site
 *  armed: exercises the smt, hw_run and db_write retries. */
TEST_F(GoldenCampaign, PcCoverageAllFaultSites)
{
    core::PipelineConfig cfg;
    cfg.templateKind = gen::TemplateKind::A;
    cfg.model = obs::ModelKind::Mct;
    cfg.refinement = obs::ModelKind::Mspec;
    cfg.train = true;
    cfg.programs = 6;
    cfg.testsPerProgram = 5;
    cfg.seed = 42;
    cfg.threads = 2;
    cfg.deterministicMetricsTiming = true;
    cfg.faultPlan.rate = 0.3;
    cfg.faultPlan.mask = faults::FaultPlan::maskAll();
    cfg.retryMax = 2;
    expectGolden(cfg, "campaign_pc_faults");
}

/** The SC kernel corpus with triage screen, minimizer and findings. */
TEST_F(GoldenCampaign, CorpusTriage)
{
    core::PipelineConfig cfg = shard::corpusWorkload(
        10, 3, 11, /*adaptive=*/false,
        std::string(SCAMV_REPO_ROOT) + "/examples/corpus");
    cfg.triageScreen = 1;
    cfg.triageMinimize = 1;
    expectGolden(cfg, "campaign_corpus_triage");
}

} // namespace
} // namespace scamv
