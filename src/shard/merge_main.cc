/**
 * @file
 * scamv_merge: fold N shard outputs into campaign artifacts.
 *
 *   scamv_merge --shards N --dir DIR [--rerun-missing] [--strict]
 *               [workload flags]
 *
 * Reads DIR/shard-<i>/ for i in [0, N), writes the campaign-level
 * metrics.json / coverage.json / db.csv / stats.json / qcache.txt
 * into DIR.  Workload flags (shard::parseWorkloadFlag, strict
 * decimal) must match the worker invocations.
 * Exit status: 0 on success; 1 when --strict found dropped database
 * writes or unrecovered missing programs (or artifacts could not be
 * written).
 */

#include <cstdio>
#include <string>

#include "shard/shard.hh"
#include "support/textcodec.hh"

namespace {

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s --shards N [--dir DIR] [--rerun-missing] "
        "[--strict]\n"
        "          [--programs N] [--tests N] [--seed S]\n"
        "          [--adaptive] [--line] [--corpus DIR]\n",
        argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace scamv;

    shard::WorkloadFlags workload;
    int shards = 0;
    std::string dir;
    shard::MergeOptions opts;

    for (int i = 1; i < argc; ++i) {
        const shard::FlagParse wf =
            shard::parseWorkloadFlag(argc, argv, i, workload);
        if (wf == shard::FlagParse::Bad)
            return usage(argv[0]);
        if (wf == shard::FlagParse::Taken)
            continue;
        const std::string arg = argv[i];
        const auto next = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        if (arg == "--shards") {
            const char *v = next();
            if (!v || !text::parseNum(v, shards) || shards < 1)
                return usage(argv[0]);
        } else if (arg == "--dir") {
            const char *v = next();
            if (!v)
                return usage(argv[0]);
            dir = v;
        } else if (arg == "--rerun-missing") {
            opts.rerunMissing = true;
        } else if (arg == "--strict") {
            opts.strict = true;
        } else {
            return usage(argv[0]);
        }
    }
    if (!shards)
        return usage(argv[0]);
    if (dir.empty())
        dir = shard::dirFromEnv(".");

    core::PipelineConfig cfg = workload.config();
    cover::CoverageLedger ledger;
    cfg.coverageLedger = &ledger;
    core::ExperimentDb db;
    cfg.database = &db;

    const shard::MergeResult res =
        shard::mergeCampaign(cfg, shards, dir, opts);

    std::printf("scamv_merge: %d shards -> %d programs, %lld "
                "experiments, %lld cex, %d quarantined\n",
                shards, res.stats.programs,
                static_cast<long long>(res.stats.experiments),
                static_cast<long long>(res.stats.counterexamples),
                res.stats.quarantined);
    if (res.droppedShards || res.droppedGroups)
        std::printf("scamv_merge: dropped %llu shard artifacts, "
                    "%llu record groups\n",
                    static_cast<unsigned long long>(res.droppedShards),
                    static_cast<unsigned long long>(
                        res.droppedGroups));
    if (!res.rerunPrograms.empty())
        std::printf("scamv_merge: re-dispatched %zu lost programs\n",
                    res.rerunPrograms.size());
    if (!res.missingPrograms.empty())
        std::printf("scamv_merge: %zu programs missing (coverage "
                    "gap; use --rerun-missing to re-dispatch)\n",
                    res.missingPrograms.size());
    for (std::size_t sh = 0; sh < res.shardDbWriteDrops.size(); ++sh)
        if (res.shardDbWriteDrops[sh])
            std::printf("scamv_merge: shard %zu dropped %lld "
                        "database writes\n",
                        sh,
                        static_cast<long long>(
                            res.shardDbWriteDrops[sh]));
    if (!res.ok)
        std::printf("scamv_merge: --strict failure\n");
    return res.ok ? 0 : 1;
}
