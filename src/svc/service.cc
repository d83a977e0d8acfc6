/**
 * @file
 * The campaign service: queue, worker fleet, ordered merge/fold.
 *
 * Thread layout: `submit()` runs on the caller (library user or a
 * connection handler); `workers` threads pull (campaign, shard)
 * slice tasks and run `shard::runWorker`; one merger thread folds
 * finished campaigns through `shard::mergeCampaign` *in submission
 * order* and then folds each campaign's rebuilt qcache checkpoint
 * into the service checkpoint.  The submission-ordered fold is what
 * keeps the shared checkpoint deterministic even when campaigns
 * execute concurrently and finish out of order: the fold sequence —
 * and with keep-first dedup therefore every checkpoint byte — is a
 * pure function of the submission sequence.
 *
 * Byte-identity (ARCHITECTURE.md, invariant 10): a campaign's
 * artifacts are produced by exactly the code path a standalone
 * scamv_worker/scamv_merge run uses, under a config built by the
 * same `campaignConfig`; the service only adds (a) scheduling, which
 * per-task registries and shard-local state make invisible, and (b)
 * checkpoint seeding, which invariant 5 (warm == cold) makes
 * invisible to everything except the qcache checkpoint itself.
 *
 * Failure model: a worker or merge failure marks that submission
 * Failed and the daemon keeps serving (per-campaign isolation).  The
 * `svc_accept_drop` site drops submissions at accept (retried up to
 * the retry budget); `svc_worker_lost` deletes a finished shard's
 * artifacts — simulating a worker process dying before handoff —
 * which the always-on `rerunMissing` merge path recovers
 * byte-identically (PR 7's recovery proof).
 */

#include "svc/svc.hh"

#include <condition_variable>
#include <deque>
#include <filesystem>
#include <map>
#include <mutex>
#include <set>
#include <thread>

#include "shard/shard.hh"
#include "support/env.hh"
#include "support/logging.hh"
#include "support/metrics.hh"
#include "support/qcache/qcache.hh"

namespace fs = std::filesystem;

namespace scamv::svc {

ServiceConfig
ServiceConfig::fromEnv()
{
    ServiceConfig cfg;
    if (const char *dir = std::getenv("SCAMV_SVC_DIR"); dir && *dir)
        cfg.dir = dir;
    cfg.socketPath = cfg.dir + "/scamvd.sock";
    if (const char *sock = std::getenv("SCAMV_SVC_SOCKET");
        sock && *sock)
        cfg.socketPath = sock;
    cfg.workers = static_cast<int>(
        envLong("SCAMV_SVC_WORKERS", 1, 64).value_or(2));
    cfg.shards = static_cast<int>(
        envLong("SCAMV_SVC_SHARDS", 1, 16).value_or(2));
    cfg.queueMax = static_cast<int>(
        envLong("SCAMV_SVC_QUEUE_MAX", 1, 4096).value_or(64));
    return cfg;
}

/** One accepted submission's full lifecycle state. */
struct Submission {
    std::uint64_t id = 0;
    SubmissionSpec spec;
    std::string dir;
    int shards = 1;
    SubmissionState state = SubmissionState::Queued;
    /** Programs completed, bumped by the pipeline progress hook
     *  from fleet threads (read lock-free by status()). */
    std::atomic<int> done{0};
    int total = 0;
    /** Shard slices still executing (guarded by the service mutex). */
    int shardsLeft = 0;
    /** Post-merge results (guarded; 0 until Done). */
    std::int64_t counterexamples = 0;
    std::int64_t coveredClasses = 0;
    std::int64_t findingsCount = 0;
    std::string error;
};

struct Service::Impl {
    ServiceConfig cfg;
    mutable std::mutex mu;
    std::condition_variable cv;
    bool stop = false;
    bool draining = false;
    /** Shared qcache checkpoint active (SCAMV_QCACHE_MB set). */
    bool cacheEnabled = false;
    std::uint64_t nextId = 1;
    /** Next submission id the merger may fold (submission order). */
    std::uint64_t nextMerge = 1;
    /** Non-terminal submissions (queueMax bound). */
    int live = 0;
    std::map<std::uint64_t, std::unique_ptr<Submission>> subs;
    SubmissionQueue pending;
    struct SliceTask {
        Submission *sub = nullptr;
        int shard = 0;
    };
    std::deque<SliceTask> slices;
    /** Campaigns whose shards all finished, awaiting their fold turn. */
    std::set<std::uint64_t> mergeReady;
    std::vector<std::thread> fleet;
    std::thread merger;

    std::string
    checkpointPath() const
    {
        // Deliberately not shard::kQcacheFile: the service root holds
        // campaign-<id>/ dirs whose own qcache.txt is a per-campaign
        // artifact; the distinct name keeps operators from confusing
        // the shared checkpoint with a campaign cache.
        return cfg.dir + "/qcache.ckpt";
    }

    std::string
    campaignDir(std::uint64_t id) const
    {
        return cfg.dir + "/campaign-" + std::to_string(id);
    }

    /**
     * Move a popped submission onto the fleet: create its campaign
     * and shard directories and seed every shard with the current
     * service checkpoint (the worker's private cache loads it warm).
     * Seeding is skipped for fault-plan campaigns — those bypass the
     * cache entirely (resolveCampaignEnv) — and when the environment
     * never enabled caching.  Called with the mutex held: staging
     * must see the checkpoint between folds, never mid-fold.
     */
    void
    stageLocked(std::uint64_t id)
    {
        Submission *sub = subs.at(id).get();
        std::error_code ec;
        fs::create_directories(sub->dir, ec);
        const bool seed = cacheEnabled &&
                          !faultPlanFor(sub->spec).enabled();
        const std::string ckpt = checkpointPath();
        for (int i = 0; i < sub->shards; ++i) {
            const std::string sdir = shard::shardDir(sub->dir, i);
            fs::create_directories(sdir, ec);
            if (seed && fs::exists(ckpt, ec)) {
                fs::copy_file(
                    ckpt, sdir + "/" + shard::kQcacheFile,
                    fs::copy_options::overwrite_existing, ec);
                if (ec)
                    warn("svc: cannot seed checkpoint into " + sdir);
            }
        }
        for (int i = 0; i < sub->shards; ++i)
            slices.push_back(SliceTask{sub, i});
        metrics::Registry::global().counter("svc.staged").inc();
    }

    /** Run one shard slice on a fleet thread (mutex not held). */
    void
    runSlice(Submission *sub, int shard)
    {
        metrics::Registry &global = metrics::Registry::global();
        core::PipelineConfig cfg_c = campaignConfig(sub->spec);
        cover::CoverageLedger ledger;
        cfg_c.coverageLedger = &ledger;
        cfg_c.progressHook = [sub](int) {
            sub->done.fetch_add(1, std::memory_order_relaxed);
        };
        const std::string sdir = shard::shardDir(sub->dir, shard);
        bool ok = false;
        try {
            const shard::WorkerResult res = shard::runWorker(
                cfg_c, shard::ShardSpec{shard, sub->shards}, sdir);
            ok = res.ok;
        } catch (const std::exception &e) {
            warn("svc: worker for campaign " +
                 std::to_string(sub->id) + " shard " +
                 std::to_string(shard) + " died: " + e.what());
        } catch (...) {
            warn("svc: worker for campaign " +
                 std::to_string(sub->id) + " shard " +
                 std::to_string(shard) + " died");
        }
        global.counter("svc.shards_run").inc();
        if (!ok)
            global.counter("svc.shards_failed").inc();

        // svc_worker_lost: the worker "process" dies after running
        // its slice but before handing its artifacts over.  The
        // decision is keyed like every per-program fault — (campaign
        // seed, slice's first program, site, attempt) — so a plan
        // replays identically; the merge below recovers the lost
        // programs through its always-on rerunMissing path.
        if (cfg_c.faultPlan.enabled() &&
            cfg_c.faultPlan.covers(faults::Site::SvcWorkerLost)) {
            const shard::Slice sl = shard::planShard(
                cfg_c.seed, cfg_c.programs, sub->shards, shard);
            faults::Injector inj(cfg_c.faultPlan, cfg_c.seed,
                                 sl.first);
            if (inj.fire(faults::Site::SvcWorkerLost)) {
                std::error_code ec;
                fs::remove(sdir + "/" + shard::kOutcomesFile, ec);
                fs::remove(sdir + "/" + shard::kQcacheFile, ec);
                global.counter("svc.worker_lost").inc();
            }
        }
    }

    /** Coordinator merge for one campaign (mutex not held). */
    bool
    mergeOne(Submission *sub)
    {
        core::PipelineConfig cfg_c = campaignConfig(sub->spec);
        cover::CoverageLedger ledger;
        core::ExperimentDb db;
        cfg_c.coverageLedger = &ledger;
        cfg_c.database = &db;
        if (sub->spec.minimize)
            cfg_c.findingsFile = sub->dir + "/findings.json";
        shard::MergeOptions mopts;
        mopts.rerunMissing = true;
        try {
            const shard::MergeResult res = shard::mergeCampaign(
                cfg_c, sub->shards, sub->dir, mopts);
            std::lock_guard<std::mutex> lk(mu);
            sub->counterexamples = res.stats.counterexamples;
            sub->coveredClasses = res.stats.coveredClasses;
            sub->findingsCount = static_cast<std::int64_t>(
                res.stats.findings.size());
            if (!res.missingPrograms.empty()) {
                sub->error = "merge left " +
                             std::to_string(
                                 res.missingPrograms.size()) +
                             " programs missing";
                return false;
            }
            return true;
        } catch (const std::exception &e) {
            std::lock_guard<std::mutex> lk(mu);
            sub->error = std::string("merge died: ") + e.what();
            return false;
        } catch (...) {
            std::lock_guard<std::mutex> lk(mu);
            sub->error = "merge died";
            return false;
        }
    }

    /**
     * Fold a finished campaign's rebuilt checkpoint into the service
     * checkpoint (keep-first, so replayed entries dedup away).
     * Called with the mutex held, strictly in submission order.
     */
    void
    foldLocked(Submission *sub)
    {
        if (!cacheEnabled || faultPlanFor(sub->spec).enabled())
            return;
        const std::string campaign_q =
            sub->dir + "/" + shard::kQcacheFile;
        std::error_code ec;
        if (!fs::exists(campaign_q, ec))
            return;
        const std::string ckpt = checkpointPath();
        const std::string tmp = ckpt + ".tmp";
        std::vector<std::string> inputs;
        if (fs::exists(ckpt, ec))
            inputs.push_back(ckpt);
        inputs.push_back(campaign_q);
        if (!shard::mergeQcacheFiles(inputs, tmp)) {
            warn("svc: cannot fold checkpoint for campaign " +
                 std::to_string(sub->id));
            return;
        }
        fs::rename(tmp, ckpt, ec);
        if (ec)
            warn("svc: cannot install folded checkpoint");
        else
            metrics::Registry::global()
                .counter("svc.checkpoint_folds")
                .inc();
    }

    void
    workerLoop()
    {
        for (;;) {
            SliceTask task;
            {
                std::unique_lock<std::mutex> lk(mu);
                for (;;) {
                    if (!slices.empty()) {
                        task = slices.front();
                        slices.pop_front();
                        break;
                    }
                    if (const std::optional<std::uint64_t> id =
                            pending.pop()) {
                        stageLocked(*id);
                        continue;
                    }
                    if (stop)
                        return;
                    cv.wait(lk);
                }
                if (task.sub->state == SubmissionState::Queued) {
                    task.sub->state = SubmissionState::Running;
                    cv.notify_all();
                }
            }
            runSlice(task.sub, task.shard);
            {
                std::lock_guard<std::mutex> lk(mu);
                if (--task.sub->shardsLeft == 0)
                    mergeReady.insert(task.sub->id);
                cv.notify_all();
            }
        }
    }

    void
    mergerLoop()
    {
        for (;;) {
            Submission *sub = nullptr;
            {
                std::unique_lock<std::mutex> lk(mu);
                for (;;) {
                    if (mergeReady.count(nextMerge)) {
                        mergeReady.erase(nextMerge);
                        sub = subs.at(nextMerge).get();
                        break;
                    }
                    if (stop && nextMerge == nextId)
                        return;
                    cv.wait(lk);
                }
                sub->state = SubmissionState::Merging;
                cv.notify_all();
            }
            const bool ok = mergeOne(sub);
            {
                std::lock_guard<std::mutex> lk(mu);
                if (ok)
                    foldLocked(sub);
                sub->state = ok ? SubmissionState::Done
                                : SubmissionState::Failed;
                metrics::Registry::global()
                    .counter(ok ? "svc.campaigns_done"
                                : "svc.campaigns_failed")
                    .inc();
                --live;
                ++nextMerge;
                cv.notify_all();
            }
        }
    }
};

Service::Service(const ServiceConfig &config)
    : cfg(config), impl(std::make_unique<Impl>())
{
    if (cfg.workers < 1)
        cfg.workers = 1;
    if (cfg.shards < 1)
        cfg.shards = 1;
    if (cfg.queueMax < 1)
        cfg.queueMax = 1;
    impl->cfg = cfg;
    impl->cacheEnabled =
        qcache::QueryCache::configFromEnv().maxBytes > 0;
    std::error_code ec;
    fs::create_directories(cfg.dir, ec);
    if (ec)
        warn("svc: cannot create service directory " + cfg.dir);
    for (int i = 0; i < cfg.workers; ++i)
        impl->fleet.emplace_back([this] { impl->workerLoop(); });
    impl->merger = std::thread([this] { impl->mergerLoop(); });
}

Service::~Service()
{
    {
        std::lock_guard<std::mutex> lk(impl->mu);
        impl->stop = true;
        impl->draining = true;
        impl->cv.notify_all();
    }
    for (std::thread &t : impl->fleet)
        t.join();
    impl->merger.join();
}

SubmitResult
Service::submit(const SubmissionSpec &spec)
{
    metrics::Registry &global = metrics::Registry::global();

    // One validator for every entry path: round-trip the spec
    // through the frame marshalling so library and socket
    // submissions are held to identical bounds.
    std::string err;
    if (!specFromArgs(specToArgs(spec), err)) {
        global.counter("svc.rejected").inc();
        return SubmitResult{false, 0, err};
    }

    // svc_accept_drop: the accept path loses the submission (a
    // connection reset, an overloaded accept thread).  Deterministic
    // in (spec seed, site, attempt); retried with the campaign's
    // retry budget, so a drop on every attempt rejects.
    const faults::FaultPlan plan = faultPlanFor(spec);
    if (plan.enabled() &&
        plan.covers(faults::Site::SvcAcceptDrop)) {
        faults::Injector inj(plan, spec.seed, /*prog_i=*/-1);
        const int retry_max = core::resolveRetryMax(spec.retryMax);
        bool dropped = true;
        for (int attempt = 0; attempt <= retry_max; ++attempt) {
            dropped = inj.fire(faults::Site::SvcAcceptDrop);
            if (!dropped)
                break;
            global.counter("svc.accept_retries").inc();
        }
        if (dropped) {
            global.counter("svc.accept_drop").inc();
            global.counter("svc.rejected").inc();
            return SubmitResult{
                false, 0, "accept_drop: submission lost at accept"};
        }
    }

    std::lock_guard<std::mutex> lk(impl->mu);
    if (impl->draining || impl->stop) {
        global.counter("svc.rejected").inc();
        return SubmitResult{false, 0, "service is draining"};
    }
    if (impl->live >= cfg.queueMax) {
        global.counter("svc.rejected").inc();
        return SubmitResult{false, 0, "queue full"};
    }
    const std::uint64_t id = impl->nextId++;
    auto sub = std::make_unique<Submission>();
    sub->id = id;
    sub->spec = spec;
    sub->dir = impl->campaignDir(id);
    sub->shards = spec.shards > 0 ? spec.shards : cfg.shards;
    sub->total = spec.programs;
    sub->shardsLeft = sub->shards;
    impl->subs.emplace(id, std::move(sub));
    impl->pending.push(id, spec.priority);
    ++impl->live;
    global.counter("svc.submitted").inc();
    impl->cv.notify_all();
    return SubmitResult{true, id, ""};
}

std::optional<SubmissionStatus>
Service::status(std::uint64_t id) const
{
    std::lock_guard<std::mutex> lk(impl->mu);
    const auto it = impl->subs.find(id);
    if (it == impl->subs.end())
        return std::nullopt;
    const Submission &sub = *it->second;
    SubmissionStatus st;
    st.state = sub.state;
    st.programsDone = sub.done.load(std::memory_order_relaxed);
    st.programsTotal = sub.total;
    st.counterexamples = sub.counterexamples;
    st.coveredClasses = sub.coveredClasses;
    st.findings = sub.findingsCount;
    st.dir = sub.dir;
    st.error = sub.error;
    return st;
}

bool
Service::wait(std::uint64_t id)
{
    std::unique_lock<std::mutex> lk(impl->mu);
    const auto it = impl->subs.find(id);
    if (it == impl->subs.end())
        return false;
    Submission *sub = it->second.get();
    impl->cv.wait(lk, [&] {
        return sub->state == SubmissionState::Done ||
               sub->state == SubmissionState::Failed;
    });
    return sub->state == SubmissionState::Done;
}

void
Service::drain()
{
    std::unique_lock<std::mutex> lk(impl->mu);
    impl->draining = true;
    impl->cv.wait(lk,
                  [&] { return impl->nextMerge == impl->nextId; });
}

std::string
Service::campaignDir(std::uint64_t id) const
{
    return impl->campaignDir(id);
}

std::string
Service::checkpointPath() const
{
    return impl->checkpointPath();
}

} // namespace scamv::svc
