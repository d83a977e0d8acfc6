/**
 * @file
 * Regenerates Table 1, columns 7-8: validation of Mct on the more
 * general Template B, with and without Mspec refinement.
 *
 * Paper reference values: no counterexamples at all without
 * refinement (942 programs, 37680 experiments, 138 hours); with
 * refinement 498 of 941 programs (~50%) have counterexamples and
 * ~13% of experiments are counterexamples (T.T.C. ~11 minutes).
 *
 * Scale with SCAMV_SCALE (1.0 = paper-sized campaign).
 */

#include <cstdio>

#include "core/pipeline.hh"
#include "core/report.hh"
#include "rig.hh"

using namespace scamv;
using core::PipelineConfig;

namespace {

PipelineConfig
mctBConfig(bool refined, double scale)
{
    PipelineConfig cfg;
    cfg.templateKind = gen::TemplateKind::B;
    cfg.model = obs::ModelKind::Mct;
    if (refined)
        cfg.refinement = obs::ModelKind::Mspec;
    cfg.train = true;
    cfg.programs = core::scaled(942, scale);
    cfg.testsPerProgram = 40;
    cfg.seed = 1794 + (refined ? 1 : 0);
    cfg.platform.noiseProbability = 0.0005;
    return cfg;
}

} // namespace

int
main()
{
    const double scale = core::scaleFromEnv(1.0);
    std::printf("=== Table 1 (cols 7-8): Mct / Template B "
                "[SCAMV_SCALE=%.2f] ===\n\n", scale);

    std::vector<core::ColumnMeta> metas = {
        {"Mct", "Template B", "No", "Mpc"},
        {"Mct", "Template B", "Mspec", "Mpc"},
    };
    bench::Report parallel("parallel_table1_mct_b");
    parallel.workload("scale", scale);
    std::vector<core::RunStats> stats;
    stats.push_back(bench::compareParallel(
        parallel, "table1_mct_b/unrefined", mctBConfig(false, scale)));
    stats.push_back(bench::compareParallel(
        parallel, "table1_mct_b/Mspec", mctBConfig(true, scale)));
    const bool reported = parallel.finish();

    std::printf("%s\n",
                core::renderCampaignTable(metas, stats).render().c_str());
    std::printf("Artifact checklist A.6.1 (Mct, Template B):\n%s\n",
                core::renderChecklist(stats[0], stats[1])
                    .render()
                    .c_str());
    std::printf("Expected shape: zero (or near-zero) counterexamples "
                "without refinement;\nwith refinement roughly half the "
                "programs have at least one counterexample\nand a "
                "sizeable fraction of experiments are "
                "counterexamples.\n");
    return reported ? 0 : 1;
}
