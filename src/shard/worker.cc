/**
 * @file
 * Shard worker: run one slice of the campaign and emit its artifacts.
 */

#include "shard/shard.hh"

#include <filesystem>
#include <memory>
#include <utility>

#include "support/logging.hh"
#include "support/qcache/qcache.hh"
#include "support/textcodec.hh"

namespace scamv::shard {

WorkerResult
runWorker(core::PipelineConfig cfg, const ShardSpec &spec,
          const std::string &dir)
{
    WorkerResult res;
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);

    // Per-shard qcache checkpoint: when the environment enables
    // caching and the caller wired no cache, point a private one at
    // the shard directory so the coordinator can rebuild the campaign
    // checkpoint from the per-shard files.  Must happen before
    // resolveCampaignEnv, which would otherwise latch the process-wide
    // shared cache on the campaign-level SCAMV_QCACHE_FILE.
    std::unique_ptr<qcache::QueryCache> cache;
    if (!cfg.queryCache) {
        qcache::CacheConfig qcfg = qcache::QueryCache::configFromEnv();
        if (qcfg.maxBytes > 0) {
            qcfg.filePath = dir + "/" + kQcacheFile;
            cache = std::make_unique<qcache::QueryCache>(qcfg);
            cfg.queryCache = cache.get();
        }
    }
    cfg = core::resolveCampaignEnv(std::move(cfg));

    const Slice sl =
        planShard(cfg.seed, cfg.programs, spec.count, spec.index);
    res.slice = sl;

    // The slice buffers experiment records even when the caller wired
    // no database — the coordinator's merged flush needs them — and
    // the shard-local merge tail folds into shard-local state, so
    // concurrent workers in one process never share mutable state.
    core::ExperimentDb shard_db;
    cover::CoverageLedger shard_ledger;
    core::PipelineConfig run_cfg = cfg;
    run_cfg.database = &shard_db;
    if (core::coverageTracked(cfg))
        run_cfg.coverageLedger = &shard_ledger;

    core::CampaignSlice slice =
        core::runCampaignSlice(run_cfg, sl.first, sl.count);

    // Serialize the transfer artifact before the merge tail consumes
    // the buffered records.
    const std::string outcomes = dir + "/" + kOutcomesFile;
    res.ok = text::writeFile(outcomes, encodeSlice(slice, spec, cfg));
    if (!res.ok)
        warn("shard: cannot write " + outcomes);

    // Shard-local campaign artifacts: place the slice into a
    // full-length slot array so the merge tail's per-program fault
    // injectors keep their *global* program coordinates (empty slots
    // fold as no-ops).
    std::vector<core::ProgramOutcome> slots(
        static_cast<std::size_t>(cfg.programs));
    for (int k = 0; k < slice.count; ++k)
        slots[static_cast<std::size_t>(sl.first + k)] =
            std::move(slice.outcomes[static_cast<std::size_t>(k)]);
    core::MergeTailOptions topts;
    topts.earlyStopped = slice.earlyStopped;
    topts.honorEnvExports = false;
    res.stats = core::mergeCampaignOutcomes(run_cfg, slots, topts);

    res.ok =
        writeCampaignArtifacts(res.stats, &shard_db, dir) && res.ok;
    return res;
}

} // namespace scamv::shard
