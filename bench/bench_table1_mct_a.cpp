/**
 * @file
 * Regenerates Table 1, columns 5-6: validation of the constant-time
 * model Mct on Template A, with and without Mspec refinement.
 *
 * Paper reference values: without refinement, 655 programs find only
 * 6 counterexamples in 26200 experiments (a lucky register-aliasing
 * subclass, T.T.C. 29 hours); with refinement, 626 of 652 programs
 * have counterexamples, 12462 of 25737 experiments are
 * counterexamples, and the first one appears after 13 seconds.
 * Checklist A.6.1: ~100x programs-with-cex, ~2000x cex, ~7000x TTC.
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
mctConfig(bool refined, double scale)
{
    PipelineConfig cfg;
    cfg.templateKind = gen::TemplateKind::A;
    cfg.model = obs::ModelKind::Mct;
    if (refined)
        cfg.refinement = obs::ModelKind::Mspec;
    cfg.train = true;
    cfg.programs = core::scaled(655, scale);
    cfg.testsPerProgram = 40;
    cfg.seed = 63 + (refined ? 1 : 0);
    cfg.platform.noiseProbability = 0.0005;
    return cfg;
}

} // namespace

int
main()
{
    const double scale = core::scaleFromEnv(1.0);
    std::printf("=== Table 1 (cols 5-6): Mct / Template A "
                "[SCAMV_SCALE=%.2f] ===\n\n", scale);

    std::vector<core::ColumnMeta> metas = {
        {"Mct", "Template A", "No", "Mpc"},
        {"Mct", "Template A", "Mspec", "Mpc"},
    };
    bench::Report parallel("parallel_table1_mct_a");
    parallel.workload("scale", scale);
    std::vector<core::RunStats> stats;
    stats.push_back(bench::compareParallel(
        parallel, "table1_mct_a/unrefined", mctConfig(false, scale)));
    stats.push_back(bench::compareParallel(
        parallel, "table1_mct_a/Mspec", mctConfig(true, scale)));
    const bool reported = parallel.finish();

    std::printf("%s\n",
                core::renderCampaignTable(metas, stats).render().c_str());
    std::printf("Artifact checklist A.6.1 (Mct, Template A):\n%s\n",
                core::renderChecklist(stats[0], stats[1])
                    .render()
                    .c_str());
    std::printf("Expected shape: unguided search finds (almost) no "
                "counterexamples; with\nMspec refinement the majority "
                "of programs expose SiSCloak leakage and the\nfirst "
                "counterexample appears orders of magnitude sooner.\n");
    return reported ? 0 : 1;
}
