/**
 * @file
 * Shard coordinator: fold N shard outputs into campaign artifacts
 * byte-identical (Uniform schedule) to a 1-process, 1-thread run.
 */

#include "shard/shard.hh"

#include <filesystem>
#include <optional>
#include <utility>

#include "support/faults.hh"
#include "support/logging.hh"
#include "support/metrics.hh"
#include "support/qcache/qcache.hh"
#include "support/textcodec.hh"

namespace scamv::shard {
namespace {

/**
 * Replay the merged flush's db-write fault decisions for one program
 * against a scratch injector: same coordinates (campaign seed,
 * program index, DbWrite site, attempt), same delta-gated retry
 * break, so the count matches the drops the real flush will take —
 * and the drops the owning shard's local flush already took.
 */
std::int64_t
simulateDbDrops(const core::PipelineConfig &cfg, int prog_i,
                std::size_t records)
{
    faults::Injector injector(cfg.faultPlan, cfg.seed, prog_i);
    std::int64_t drops = 0;
    for (std::size_t r = 0; r < records; ++r) {
        bool written = false;
        for (int attempt = 0;; ++attempt) {
            written = !injector.fire(faults::Site::DbWrite);
            if (written || attempt >= cfg.retryMax)
                break;
        }
        if (!written)
            ++drops;
    }
    return drops;
}

} // namespace

MergeResult
mergeCampaign(core::PipelineConfig cfg, int shard_count,
              const std::string &root, const MergeOptions &opts)
{
    MergeResult res;
    cfg = core::resolveCampaignEnv(std::move(cfg));
    // The coordinator never latches the shared environment cache:
    // that would append rerun solves to the very checkpoint the merge
    // is about to rebuild from the per-shard files.  Re-dispatched
    // programs instead run against a private warm cache seeded from
    // the shard checkpoints (see the rerun block below) so their
    // metrics replay exactly what the worker recorded.
    cfg.queryCache = nullptr;
    // The merged flush — and db.csv — need a database even when the
    // caller wired none (a 1-process reference run logs too).
    core::ExperimentDb local_db;
    if (!cfg.database)
        cfg.database = &local_db;

    if (shard_count < 1)
        shard_count = 1;
    const int programs = cfg.programs > 0 ? cfg.programs : 0;
    metrics::Registry &global = metrics::Registry::global();
    const bool inject_load =
        cfg.faultPlan.enabled() &&
        cfg.faultPlan.covers(faults::Site::ShardArtifactCorrupt);

    std::vector<core::ProgramOutcome> slots(
        static_cast<std::size_t>(programs));
    std::vector<bool> present(static_cast<std::size_t>(programs),
                              false);
    std::vector<int> owner(static_cast<std::size_t>(programs), -1);
    std::vector<Slice> plan(static_cast<std::size_t>(shard_count));
    // Per-shard early-stop contribution (-1: artifact unusable, the
    // count is unknown until a re-dispatch replays the slice).
    std::vector<int> early(static_cast<std::size_t>(shard_count), -1);
    std::vector<bool> local_sched(
        static_cast<std::size_t>(shard_count), false);

    for (int sh = 0; sh < shard_count; ++sh) {
        const Slice sl = planShard(cfg.seed, programs, shard_count, sh);
        plan[static_cast<std::size_t>(sh)] = sl;
        for (int k = 0; k < sl.count; ++k)
            owner[static_cast<std::size_t>(sl.first + k)] = sh;

        const std::string path = shardDir(root, sh) + "/" +
                                 kOutcomesFile;
        std::optional<DecodedSlice> dec;
        if (const std::optional<std::string> artifact =
                text::readFile(path)) {
            // Load-time injection mirrors qcache: one decision per
            // record group, deterministic in (seed, shard's first
            // program, site, group ordinal).  Injected-fault tallies
            // go to a scratch registry so the campaign snapshot
            // stays byte-identical to a 1-process run.
            faults::Injector injector(cfg.faultPlan, cfg.seed,
                                      sl.first);
            std::optional<faults::ScopedInjector> inj_scope;
            metrics::Registry scratch(
                metrics::ClockMode::Deterministic);
            metrics::ScopedRegistry reg_scope(scratch);
            if (inject_load)
                inj_scope.emplace(injector);
            dec = decodeSlice(*artifact);
        }
        const ShardSpec want{sh, shard_count};
        if (!dec || dec->spec != want || dec->seed != cfg.seed ||
            dec->programs != programs || dec->slice.first != sl.first ||
            dec->slice.count != sl.count) {
            warn("shard: unusable shard artifact " + path +
                 " (missing, foreign or damaged header)");
            ++res.droppedShards;
            res.droppedGroups +=
                static_cast<std::uint64_t>(sl.count);
            global.counter("shard.load_dropped")
                .add(static_cast<std::uint64_t>(sl.count));
            continue;
        }
        res.droppedGroups += dec->droppedGroups;
        if (dec->droppedGroups)
            global.counter("shard.load_dropped")
                .add(dec->droppedGroups);
        early[static_cast<std::size_t>(sh)] =
            dec->slice.earlyStopped;
        local_sched[static_cast<std::size_t>(sh)] =
            dec->slice.scheduleLocal;
        for (int k = 0; k < sl.count; ++k) {
            if (!dec->present[static_cast<std::size_t>(k)])
                continue;
            slots[static_cast<std::size_t>(sl.first + k)] = std::move(
                dec->slice.outcomes[static_cast<std::size_t>(k)]);
            present[static_cast<std::size_t>(sl.first + k)] = true;
        }
    }

    const auto collect_missing = [&]() {
        res.missingPrograms.clear();
        for (int i = 0; i < programs; ++i)
            if (!present[static_cast<std::size_t>(i)])
                res.missingPrograms.push_back(i);
    };
    collect_missing();

    // Per-shard contribution to the merged qcache checkpoint: the
    // worker's own file when it exists, else the segment
    // reconstructed during that shard's re-dispatch below.
    std::vector<std::string> qcontrib;
    for (int sh = 0; sh < shard_count; ++sh)
        qcontrib.push_back(shardDir(root, sh) + "/" + kQcacheFile);
    bool any_qcache = false;
    {
        std::error_code qec;
        for (const std::string &q : qcontrib)
            any_qcache =
                any_qcache || std::filesystem::exists(q, qec);
    }

    if (opts.rerunMissing && !res.missingPrograms.empty()) {
        const core::Schedule sched =
            cfg.schedule.value_or(core::Schedule::Uniform);
        std::vector<gen::TemplateKind> templates = cfg.templateKinds;
        if (templates.empty())
            templates.push_back(cfg.templateKind);
        const bool track = core::coverageTracked(cfg);
        // Workers that found no explicit cache attach a private one
        // when the environment enables it; a rerun must replay under
        // the same regime or the deterministic-clock solver metrics
        // diverge (cache hits replay the captured delta — cold and
        // warm runs agree, cached and uncached runs do not).
        // Fault-plan campaigns bypass the cache entirely
        // (resolveCampaignEnv), so their workers ran uncached and a
        // byte-identical rerun must too.
        const qcache::CacheConfig qenv =
            qcache::QueryCache::configFromEnv();
        const bool use_cache =
            qenv.maxBytes > 0 && !cfg.faultPlan.enabled();
        const std::string seed_path = root + "/.qcache.rerun";

        for (int sh = 0; sh < shard_count; ++sh) {
            const Slice sl = plan[static_cast<std::size_t>(sh)];
            bool needs = false;
            for (int k = 0; k < sl.count && !needs; ++k)
                needs = !present[static_cast<std::size_t>(sl.first +
                                                          k)];
            if (!needs)
                continue;

            // Warm the rerun cache with every entry the campaign
            // first produced before or inside this shard: queries the
            // worker solved replay their captured deltas, queries the
            // worker itself missed re-solve identically.  Entries
            // from later shards must NOT be visible, or a lost
            // shard's reconstructed checkpoint segment would drop
            // entries that first occurred here.
            std::optional<qcache::QueryCache> cache;
            std::string seed_text;
            std::error_code ec;
            const bool own_file = std::filesystem::exists(
                qcontrib[static_cast<std::size_t>(sh)], ec);
            if (use_cache) {
                const std::vector<std::string> seeds(
                    qcontrib.begin(),
                    qcontrib.begin() + static_cast<std::ptrdiff_t>(
                                           sh + 1));
                mergeQcacheFiles(seeds, seed_path);
                seed_text = text::readFile(seed_path).value_or("");
                qcache::CacheConfig qc = qenv;
                qc.filePath = seed_path;
                cache.emplace(qc);
                cfg.queryCache = &*cache;
            }

            if (sched == core::Schedule::Uniform) {
                // Uniform tasks are pure functions of the global
                // program index: re-dispatch exactly the lost
                // programs, in index order.
                for (int k = 0; k < sl.count; ++k) {
                    const int i = sl.first + k;
                    if (present[static_cast<std::size_t>(i)])
                        continue;
                    core::ProgramTask task;
                    task.prog_i = i;
                    task.templ =
                        templates[static_cast<std::size_t>(i) %
                                  templates.size()];
                    task.collectCover = track;
                    slots[static_cast<std::size_t>(i)] =
                        core::runProgramTask(cfg, task);
                    present[static_cast<std::size_t>(i)] = true;
                    res.rerunPrograms.push_back(i);
                }
            } else {
                // Adaptive round planning is slice-local: a partial
                // rerun cannot reproduce the worker's template
                // assignment, so re-dispatch the whole slice and keep
                // only the lost slots (the rest replay identically).
                core::CampaignSlice again =
                    core::runCampaignSlice(cfg, sl.first, sl.count);
                early[static_cast<std::size_t>(sh)] =
                    again.earlyStopped;
                local_sched[static_cast<std::size_t>(sh)] =
                    again.scheduleLocal;
                for (int k = 0; k < sl.count; ++k) {
                    const std::size_t at =
                        static_cast<std::size_t>(sl.first + k);
                    if (present[at])
                        continue;
                    slots[at] = std::move(
                        again.outcomes[static_cast<std::size_t>(k)]);
                    present[at] = true;
                    res.rerunPrograms.push_back(sl.first + k);
                }
            }

            if (use_cache) {
                cache.reset(); // flush appended solves to seed_path
                cfg.queryCache = nullptr;
                if (!own_file) {
                    // The shard lost its checkpoint along with its
                    // outcomes: the entries appended past the seed
                    // are exactly the queries the campaign first
                    // produced in this shard, in program order —
                    // its reconstructed checkpoint segment.
                    const std::string full =
                        text::readFile(seed_path).value_or("");
                    const std::string seg_path =
                        shardDir(root, sh) + "/qcache.rerun";
                    std::filesystem::create_directories(
                        shardDir(root, sh), ec);
                    if (text::writeFile(
                            seg_path,
                            std::string(qcache::kFileHeader) + "\n" +
                                full.substr(std::min(seed_text.size(),
                                                     full.size())))) {
                        qcontrib[static_cast<std::size_t>(sh)] =
                            seg_path;
                        any_qcache = true;
                    }
                }
                std::filesystem::remove(seed_path, ec);
            }
        }
        if (!res.rerunPrograms.empty())
            global.counter("shard.rerun_programs")
                .add(static_cast<std::uint64_t>(
                    res.rerunPrograms.size()));
        collect_missing();
    }

    int early_total = 0;
    for (int sh = 0; sh < shard_count; ++sh) {
        if (early[static_cast<std::size_t>(sh)] > 0)
            early_total += early[static_cast<std::size_t>(sh)];
        if (local_sched[static_cast<std::size_t>(sh)])
            global.counter("shard.schedule_local").inc();
    }

    // Attribute the merged flush's injected db-write drops to the
    // shard that produced each program (same decision coordinates as
    // both the real flush below and the shard's own local flush).
    res.shardDbWriteDrops.assign(
        static_cast<std::size_t>(shard_count), 0);
    if (cfg.faultPlan.enabled() &&
        cfg.faultPlan.covers(faults::Site::DbWrite)) {
        metrics::Registry scratch(metrics::ClockMode::Deterministic);
        metrics::ScopedRegistry reg_scope(scratch);
        for (int i = 0; i < programs; ++i) {
            const std::size_t n =
                slots[static_cast<std::size_t>(i)].records.size();
            if (!n)
                continue;
            const std::int64_t drops = simulateDbDrops(cfg, i, n);
            if (drops && owner[static_cast<std::size_t>(i)] >= 0)
                res.shardDbWriteDrops[static_cast<std::size_t>(
                    owner[static_cast<std::size_t>(i)])] += drops;
        }
        for (int sh = 0; sh < shard_count; ++sh)
            if (res.shardDbWriteDrops[static_cast<std::size_t>(sh)])
                global
                    .counter("shard.db_write_drops." +
                             std::to_string(sh))
                    .add(static_cast<std::uint64_t>(
                        res.shardDbWriteDrops[
                            static_cast<std::size_t>(sh)]));
    }

    // The authoritative fold: the exact merge tail of a 1-process
    // run, over full-length slots in program-index order.
    core::MergeTailOptions topts;
    topts.earlyStopped = early_total;
    topts.honorEnvExports = true;
    res.stats = core::mergeCampaignOutcomes(cfg, slots, topts);

    std::error_code ec;
    std::filesystem::create_directories(root, ec);
    bool artifacts_ok =
        writeCampaignArtifacts(res.stats, cfg.database, root);

    // Campaign qcache checkpoint, rebuilt from the per-shard files —
    // reconstructed segments standing in for lost ones — in shard
    // order (skip entirely when no shard persisted a cache).
    if (any_qcache &&
        !mergeQcacheFiles(qcontrib, root + "/" + kQcacheFile)) {
        warn("shard: cannot write merged qcache checkpoint under " +
             root);
        artifacts_ok = false;
    }

    res.ok = true;
    if (opts.strict) {
        for (const std::int64_t drops : res.shardDbWriteDrops)
            if (drops > 0)
                res.ok = false;
        if (!res.missingPrograms.empty() || !artifacts_ok)
            res.ok = false;
    }
    return res;
}

} // namespace scamv::shard
