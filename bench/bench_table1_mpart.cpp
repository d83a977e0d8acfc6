/**
 * @file
 * Regenerates Table 1, columns 1-4: validation of the cache-
 * partitioning model Mpart with and without observation refinement,
 * for the unaligned (AR = sets 61..127) and page-aligned
 * (AR = sets 64..127) attacker partitions.
 *
 * Paper reference values (450/425 programs):
 *     Mpart      no-ref: 21 cex / 13752 exps, refined: 447 / 18000
 *     page-aligned:      0 cex either way
 *     checklist A.6.1: ~4x programs-with-cex, ~20x cex, ~4x TTC.
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
mpartConfig(bool refined, std::uint64_t ar_lo, double scale)
{
    PipelineConfig cfg;
    cfg.templateKind = gen::TemplateKind::Stride;
    cfg.model = obs::ModelKind::Mpart;
    if (refined) {
        cfg.refinement = obs::ModelKind::MpartRefined;
        cfg.coverage = core::Coverage::PcAndLine;
    }
    cfg.programs = core::scaled(450, scale);
    cfg.testsPerProgram = 30;
    cfg.seed = 1821 + (refined ? 1 : 0) + ar_lo;
    cfg.modelParams.attacker.loSet = ar_lo;
    cfg.platform.visibleLoSet = ar_lo;
    cfg.platform.visibleHiSet = 127;
    cfg.platform.noiseProbability = 0.01;
    return cfg;
}

} // namespace

int
main()
{
    const double scale = core::scaleFromEnv(1.0);
    std::printf("=== Table 1 (cols 1-4): Mpart vs prefetching "
                "[SCAMV_SCALE=%.2f] ===\n\n", scale);

    std::vector<core::ColumnMeta> metas = {
        {"Mpart", "Stride", "No", "Mpc"},
        {"Mpart", "Stride", "Mpart'", "Mpc & Mline"},
        {"Mpart PA", "Stride", "No", "Mpc"},
        {"Mpart PA", "Stride", "Mpart'", "Mpc & Mline"},
    };
    bench::Report parallel("parallel_table1_mpart");
    parallel.workload("scale", scale);
    std::vector<core::RunStats> stats;
    stats.push_back(bench::compareParallel(
        parallel, "table1_mpart/unrefined",
        mpartConfig(false, 61, scale)));
    stats.push_back(bench::compareParallel(
        parallel, "table1_mpart/refined",
        mpartConfig(true, 61, scale)));
    stats.push_back(bench::compareParallel(
        parallel, "table1_mpart/pa_unrefined",
        mpartConfig(false, 64, scale)));
    stats.push_back(bench::compareParallel(
        parallel, "table1_mpart/pa_refined",
        mpartConfig(true, 64, scale)));
    const bool reported = parallel.finish();

    std::printf("%s\n",
                core::renderCampaignTable(metas, stats).render().c_str());
    std::printf("Artifact checklist A.6.1 (Mpart, unaligned):\n%s\n",
                core::renderChecklist(stats[0], stats[1])
                    .render()
                    .c_str());
    std::printf("Expected shape: refinement finds many more "
                "counterexamples and more\nprograms-with-cex on the "
                "unaligned partition; the page-aligned partition\n"
                "yields zero counterexamples in both modes (prefetcher "
                "stops at the page).\n");
    return reported ? 0 : 1;
}
