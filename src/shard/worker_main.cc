/**
 * @file
 * scamv_worker: run one shard of a campaign (or the 1-process
 * reference run) and emit its artifacts.
 *
 *   scamv_worker --shard i/N --dir DIR [workload flags]
 *   scamv_worker --single   --dir DIR [workload flags]
 *
 * The shard spec and campaign root may also come from the
 * SCAMV_SHARD ("i/N") and SCAMV_SHARD_DIR environment variables, so
 * a CI matrix can fan the same command line out over shard indices.
 * Worker artifacts land in DIR/shard-<i>/; --single writes the
 * campaign-level reference artifacts directly into DIR.  Workload
 * flags (--programs, --tests, --seed, --adaptive, --line, --corpus;
 * shard::parseWorkloadFlag, strict decimal) must match across every
 * worker and the final scamv_merge invocation.
 */

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>

#include "core/pipeline.hh"
#include "shard/shard.hh"
#include "support/qcache/qcache.hh"

namespace {

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--shard i/N | --single] [--dir DIR]\n"
        "          [--programs N] [--tests N] [--seed S]\n"
        "          [--adaptive] [--line] [--corpus DIR]\n"
        "Defaults: SCAMV_SHARD / SCAMV_SHARD_DIR from the "
        "environment.\n",
        argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace scamv;

    shard::WorkloadFlags workload;
    bool single = false;
    std::string dir;
    std::optional<shard::ShardSpec> spec;

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
        if (arg == "--shard") {
            const char *v = next();
            spec = v ? shard::parseShardSpec(v) : std::nullopt;
            if (!spec)
                return usage(argv[0]);
        } else if (arg == "--dir") {
            const char *v = next();
            if (!v)
                return usage(argv[0]);
            dir = v;
        } else if (arg == "--single") {
            single = true;
        } else {
            return usage(argv[0]);
        }
    }
    if (dir.empty())
        dir = shard::dirFromEnv(".");
    if (!single && !spec) {
        spec = shard::specFromEnv();
        if (!spec)
            return usage(argv[0]);
    }

    core::PipelineConfig cfg = workload.config();
    cover::CoverageLedger ledger;
    cfg.coverageLedger = &ledger;

    if (single) {
        // The byte-identity reference: one process, one thread, same
        // artifact writers, campaign qcache checkpoint in DIR.
        std::error_code ec;
        std::filesystem::create_directories(dir, ec);
        core::ExperimentDb db;
        cfg.database = &db;
        std::unique_ptr<qcache::QueryCache> cache;
        qcache::CacheConfig qcfg = qcache::QueryCache::configFromEnv();
        if (qcfg.maxBytes > 0) {
            qcfg.filePath = dir + "/" + shard::kQcacheFile;
            cache = std::make_unique<qcache::QueryCache>(qcfg);
            cfg.queryCache = cache.get();
        }
        core::Pipeline pipeline(cfg);
        const core::RunStats stats = pipeline.run();
        const bool ok =
            shard::writeCampaignArtifacts(stats, &db, dir);
        std::printf("scamv_worker --single: %d programs, %lld "
                    "experiments, %lld cex -> %s\n",
                    stats.programs,
                    static_cast<long long>(stats.experiments),
                    static_cast<long long>(stats.counterexamples),
                    dir.c_str());
        return ok ? 0 : 1;
    }

    const std::string shard_dir = shard::shardDir(dir, spec->index);
    const shard::WorkerResult res =
        shard::runWorker(cfg, *spec, shard_dir);
    std::printf("scamv_worker %d/%d: programs [%d, %d), %lld "
                "experiments, %lld cex -> %s\n",
                spec->index, spec->count, res.slice.first,
                res.slice.first + res.slice.count,
                static_cast<long long>(res.stats.experiments),
                static_cast<long long>(res.stats.counterexamples),
                shard_dir.c_str());
    return res.ok ? 0 : 1;
}
