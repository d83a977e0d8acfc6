/**
 * @file
 * The svc_tenants workload: an in-process `svc::Service` with a shared
 * qcache checkpoint, serving two closed-loop tenant clients.
 *
 * Each client submits the shard default stride campaign (path-pair
 * coverage, so cached enumeration applies).  Its seed schedule comes
 * from the workload seed: a submission re-runs an earlier seed of the
 * same client with probability 2/3, otherwise it starts a new seed.
 * Re-runs replay from the checkpoint, new seeds solve cold, so the
 * median submission is a warm re-run and the 90th percentile a cold
 * one; a re-run share near one half would put the median on the
 * boundary between the two and make it jump.
 *
 * A repetition is one batch: every client runs `kPerClient`
 * submissions back to back.  Traced runs add two phases: one with a
 * poller reading `Service::status` for the state durations, and one
 * where the driver itself calls `shard::runWorker`,
 * `shard::mergeCampaign` and `shard::mergeQcacheFiles` for the same
 * kind of schedule, one span per call.
 */

#include <array>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <mutex>
#include <thread>

#include "common.hh"
#include "shard/shard.hh"
#include "support/metrics.hh"
#include "support/thread_pool.hh"
#include "svc/svc.hh"
#include "trace.hh"

namespace fs = std::filesystem;

namespace perfbench {

using namespace scamv;

namespace {

constexpr int kClients = 2;
constexpr int kPerClient = 4;
constexpr int kShards = 2;
constexpr double kRerunShare = 2.0 / 3.0;

/** The campaign every tenant submits, at a given seed. */
svc::SubmissionSpec
specFor(std::uint64_t seed)
{
    svc::SubmissionSpec spec;
    spec.programs = 32;
    spec.tests = 8;
    spec.seed = seed;
    spec.shards = kShards;
    return spec;
}

/** One tenant's deterministic seed schedule. */
class Client
{
  public:
    Client(std::uint64_t workload_seed, int index)
        : state(mix(workload_seed ^ (0xc11e47ULL + index))),
          base(mix(workload_seed + 0x7e4a47ULL * (index + 1)))
    {}

    /** Next campaign seed; `warm` tells whether it is a re-run. */
    std::uint64_t
    next(bool &warm)
    {
        state = mix(state);
        const double u =
            static_cast<double>(state >> 11) * 0x1.0p-53;
        warm = !seen.empty() && u < kRerunShare;
        if (warm) {
            state = mix(state);
            return seen[state % seen.size()];
        }
        const std::uint64_t s =
            mix(base + seen.size()) & 0xffffffffffffULL;
        seen.push_back(s);
        return s;
    }

  private:
    std::uint64_t state;
    std::uint64_t base;
    std::vector<std::uint64_t> seen;
};

/** One finished submission. */
struct Submitted {
    std::uint64_t id = 0;
    std::uint64_t seed = 0;
    bool warm = false;
    bool done = false;
    double ms = 0.0;
    int batch = 0;
};

/** Integer field `key` of readStats() output, 0 when absent. */
std::int64_t
statOr0(const std::map<std::string, std::int64_t> &stats,
        const std::string &key)
{
    const auto it = stats.find(key);
    return it == stats.end() ? 0 : it->second;
}

/** `"key": value` integer fields of a stats.json file. */
std::map<std::string, std::int64_t>
readStats(const std::string &path)
{
    std::map<std::string, std::int64_t> out;
    const std::string text = readFile(path);
    std::size_t pos = 0;
    while ((pos = text.find('"', pos)) != std::string::npos) {
        const std::size_t end = text.find('"', pos + 1);
        if (end == std::string::npos)
            break;
        const std::string key = text.substr(pos + 1, end - pos - 1);
        const std::size_t colon = text.find(':', end);
        pos = end + 1;
        if (colon == std::string::npos || colon > end + 2)
            continue;
        out[key] = std::strtoll(text.c_str() + colon + 1, nullptr, 10);
    }
    return out;
}

/** The byte-compared campaign artifacts (invariant 10). */
const std::vector<std::string> &
artifactNames()
{
    static const std::vector<std::string> names = {
        shard::kMetricsFile, shard::kCoverageFile, shard::kDbFile,
        shard::kStatsFile};
    return names;
}

/**
 * Standalone worker + merge run of `spec` into `root`, the way an
 * operator would reproduce a service campaign without the service.
 */
bool
runStandalone(const svc::SubmissionSpec &spec, const std::string &root)
{
    bool ok = true;
    for (int i = 0; i < kShards; ++i) {
        core::PipelineConfig cfg = svc::campaignConfig(spec);
        cover::CoverageLedger ledger;
        cfg.coverageLedger = &ledger;
        ok = shard::runWorker(cfg, shard::ShardSpec{i, kShards},
                              shard::shardDir(root, i))
                 .ok &&
             ok;
    }
    core::PipelineConfig cfg = svc::campaignConfig(spec);
    cover::CoverageLedger ledger;
    core::ExperimentDb db;
    cfg.coverageLedger = &ledger;
    cfg.database = &db;
    shard::MergeOptions mopts;
    mopts.rerunMissing = true;
    return shard::mergeCampaign(cfg, kShards, root, mopts)
               .missingPrograms.empty() &&
           ok;
}

/** Which artifacts of `dir` differ from `ref` ("" when none). */
std::string
artifactDiff(const std::string &dir, const std::string &ref)
{
    std::string diff;
    for (const std::string &f : artifactNames()) {
        const std::string a = readFile(dir + "/" + f);
        if (a.empty() || a != readFile(ref + "/" + f))
            diff += (diff.empty() ? "" : ",") + f;
    }
    return diff;
}

/** Time spent in each submission state, seen by polling status(). */
struct StateTimes {
    double queuedMs = 0, runningMs = 0, mergingMs = 0;
};

/**
 * Runs tenant batches against one service.  With `poll` set, a
 * poller thread samples `Service::status` of every in-flight
 * submission and accumulates the state durations per batch.
 */
class TenantRunner
{
  public:
    TenantRunner(svc::Service &service, std::uint64_t seed)
        : service(service)
    {
        for (int c = 0; c < kClients; ++c)
            clients.emplace_back(seed, c);
    }

    /** One batch; @return its wall and CPU seconds. */
    std::pair<double, double>
    batch(int index, bool poll, StateTimes *states)
    {
        std::atomic<bool> stop_poll{false};
        std::thread poller;
        if (poll)
            poller = std::thread([&] { pollLoop(stop_poll, *states); });
        const double w0 = wallNow(), c0 = cpuNow();
        std::vector<std::thread> threads;
        for (int c = 0; c < kClients; ++c)
            threads.emplace_back([this, c, index] { clientLoop(c, index); });
        for (std::thread &t : threads)
            t.join();
        const std::pair<double, double> wc{wallNow() - w0, cpuNow() - c0};
        if (poll) {
            stop_poll = true;
            poller.join();
        }
        return wc;
    }

    std::vector<Submitted> finished() const
    {
        std::lock_guard<std::mutex> lk(mu);
        return done;
    }

    Client &client(int c) { return clients[static_cast<std::size_t>(c)]; }

  private:
    void
    clientLoop(int c, int index)
    {
        for (int k = 0; k < kPerClient; ++k) {
            Submitted s;
            s.batch = index;
            s.seed = clients[static_cast<std::size_t>(c)].next(s.warm);
            const double t0 = wallNow();
            const svc::SubmitResult r = service.submit(specFor(s.seed));
            if (r.accepted) {
                s.id = r.id;
                {
                    std::lock_guard<std::mutex> lk(mu);
                    inflight.emplace(r.id, Seen{t0});
                }
                s.done = service.wait(r.id);
            }
            s.ms = (wallNow() - t0) * 1e3;
            std::lock_guard<std::mutex> lk(mu);
            done.push_back(s);
        }
    }

    struct Seen {
        double submitted = 0;
        double running = -1;
        double merging = -1;
    };

    void
    pollLoop(std::atomic<bool> &stop, StateTimes &st)
    {
        for (;;) {
            // Keep polling after the batch ends until every submission
            // of the batch has been seen terminal.
            const bool last = stop;
            std::vector<std::uint64_t> ids;
            {
                std::lock_guard<std::mutex> lk(mu);
                for (const auto &[id, seen] : inflight)
                    ids.push_back(id);
            }
            if (last && ids.empty())
                return;
            for (std::uint64_t id : ids) {
                const auto status = service.status(id);
                if (!status)
                    continue;
                const double now = wallNow();
                std::lock_guard<std::mutex> lk(mu);
                Seen &seen = inflight[id];
                switch (status->state) {
                  case svc::SubmissionState::Queued:
                    break;
                  case svc::SubmissionState::Running:
                    if (seen.running < 0)
                        seen.running = now;
                    break;
                  case svc::SubmissionState::Merging:
                    if (seen.running < 0)
                        seen.running = now;
                    if (seen.merging < 0)
                        seen.merging = now;
                    break;
                  case svc::SubmissionState::Done:
                  case svc::SubmissionState::Failed: {
                    // A state shorter than one poll interval is
                    // charged to the next state seen.
                    const double run = seen.running < 0 ? now : seen.running;
                    const double merge = seen.merging < 0 ? now : seen.merging;
                    st.queuedMs += (run - seen.submitted) * 1e3;
                    st.runningMs += (merge - run) * 1e3;
                    st.mergingMs += (now - merge) * 1e3;
                    inflight.erase(id);
                    break;
                  }
                }
            }
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
    }

    svc::Service &service;
    std::vector<Client> clients;
    mutable std::mutex mu;
    std::vector<Submitted> done;
    std::map<std::uint64_t, Seen> inflight;
};

std::string
stateJson(const StateTimes &st)
{
    return Json()
        .num("queued_ms", st.queuedMs)
        .num("running_ms", st.runningMs)
        .num("merging_ms", st.mergingMs)
        .render();
}

/**
 * The traced replica of the service flow: the driver stages each
 * campaign, runs its shard workers, merges them and folds the
 * campaign checkpoint into its own shared checkpoint, one span per
 * shard/qcache call.
 */
class Replica
{
  public:
    Replica(Tracer &tr, std::string dir, const std::string &seed_ckpt)
        : tr(tr), dir(std::move(dir))
    {
        fs::create_directories(this->dir);
        std::error_code ec;
        if (fs::exists(seed_ckpt, ec))
            fs::copy_file(seed_ckpt, ckpt(),
                          fs::copy_options::overwrite_existing, ec);
    }

    std::string ckpt() const { return dir + "/qcache.ckpt"; }

    /** One submission; @return its campaign directory. */
    std::string
    submit(std::uint64_t seed)
    {
        const std::uint64_t id = ++lastId;
        const std::string cdir = dir + "/campaign-" + std::to_string(id);
        const svc::SubmissionSpec spec = specFor(seed);
        Span sub(tr, "svc.submission", static_cast<std::int64_t>(id));
        {
            std::lock_guard<std::mutex> lk(foldMu);
            std::error_code ec;
            for (int i = 0; i < kShards; ++i) {
                const std::string sdir = shard::shardDir(cdir, i);
                fs::create_directories(sdir, ec);
                if (fs::exists(ckpt(), ec))
                    fs::copy_file(ckpt(), sdir + "/" + shard::kQcacheFile,
                                  fs::copy_options::overwrite_existing,
                                  ec);
            }
        }
        const std::uint64_t parent = sub.id();
        std::vector<std::thread> workers;
        for (int i = 0; i < kShards; ++i)
            workers.emplace_back([&, i] {
                core::PipelineConfig cfg = svc::campaignConfig(spec);
                cover::CoverageLedger ledger;
                cfg.coverageLedger = &ledger;
                Span s(tr, "shard.worker", static_cast<std::int64_t>(id),
                       parent);
                shard::runWorker(cfg, shard::ShardSpec{i, kShards},
                                 shard::shardDir(cdir, i));
            });
        for (std::thread &t : workers)
            t.join();
        {
            core::PipelineConfig cfg = svc::campaignConfig(spec);
            cover::CoverageLedger ledger;
            core::ExperimentDb db;
            cfg.coverageLedger = &ledger;
            cfg.database = &db;
            shard::MergeOptions mopts;
            mopts.rerunMissing = true;
            Span s(tr, "shard.merge", static_cast<std::int64_t>(id));
            shard::mergeCampaign(cfg, kShards, cdir, mopts);
        }
        std::lock_guard<std::mutex> lk(foldMu);
        Span s(tr, "qcache.fold", static_cast<std::int64_t>(id));
        std::vector<std::string> inputs;
        std::error_code ec;
        if (fs::exists(ckpt(), ec))
            inputs.push_back(ckpt());
        inputs.push_back(cdir + "/" + shard::kQcacheFile);
        if (shard::mergeQcacheFiles(inputs, ckpt() + ".tmp"))
            fs::rename(ckpt() + ".tmp", ckpt(), ec);
        return cdir;
    }

  private:
    Tracer &tr;
    std::string dir;
    std::mutex foldMu;
    std::atomic<std::uint64_t> lastId{0};
};

} // namespace

int
runTenantsWorkload(const Options &opts)
{
    // An operator enables the shared checkpoint this way; it must be
    // set before the first cache lookup latches the environment.
    setenv("SCAMV_QCACHE_MB", "64", 1);
    Checks checks;
    std::error_code ec;
    fs::remove_all(opts.work, ec);
    fs::create_directories(opts.work);

    svc::ServiceConfig base;
    base.workers = benchThreads();
    base.shards = kShards;
    base.queueMax = 64;

    // Setup, several times: constructing a service (state directory,
    // worker fleet, merge thread).  Teardown is not timed: joining
    // waits on the scheduler, not on this program.
    std::vector<double> setup;
    for (int k = 0; k < kSetups; ++k) {
        svc::ServiceConfig sc = base;
        sc.dir = opts.work + "/setup-" + std::to_string(k);
        const double t0 = wallNow();
        {
            svc::Service service(sc);
            setup.push_back(wallNow() - t0);
        }
        fs::remove_all(sc.dir, ec);
    }

    svc::ServiceConfig sc = base;
    sc.dir = opts.work + "/svc";
    std::vector<std::string> reps;
    std::vector<double> untraced_walls, polled_walls, replica_walls;
    std::vector<std::string> state_batches;
    std::vector<Submitted> subs;
    std::string checkpoint;
    double rss = 0;
    int batches = 0;
    std::uint64_t hits0 = 0, miss0 = 0, hits1 = 0, miss1 = 0;
    std::int64_t replica_subs = 0, replica_compared = 0, replica_match = 0;
    std::int64_t replica_exps = 0, replica_queries = 0, replica_sat = 0;
    Tracer tr;
    {
        svc::Service service(sc);
        TenantRunner runner(service, opts.seed);
        // Warm-up batch: checked, not timed.
        runner.batch(batches++, false, nullptr);
        const double budget = opts.trace ? opts.seconds / 3 : opts.seconds;
        double start = wallNow();
        std::vector<std::pair<double, double>> walls;
        while (walls.empty() || wallNow() - start < budget)
            walls.push_back(runner.batch(batches++, false, nullptr));
        rss = peakRssMb();
        for (const auto &[w, c] : walls)
            untraced_walls.push_back(w);

        // Per-batch campaign results from each Done campaign's
        // stats.json (read after timing).
        subs = runner.finished();
        const int first_timed = 1;
        std::map<int, std::array<std::int64_t, 5>> per_batch;
        for (const Submitted &s : subs) {
            if (s.batch < first_timed || !s.done)
                continue;
            const auto st = readStats(service.campaignDir(s.id) + "/" +
                                      shard::kStatsFile);
            auto &acc = per_batch[s.batch];
            acc[0] += statOr0(st, "programs");
            acc[1] += statOr0(st, "programs_with_cex");
            acc[2] += statOr0(st, "experiments");
            acc[3] += statOr0(st, "counterexamples");
            acc[4] += statOr0(st, "program_failures") +
                      statOr0(st, "quarantined");
        }
        for (std::size_t b = 0; b < walls.size(); ++b) {
            const auto &acc = per_batch[static_cast<int>(b) + first_timed];
            reps.push_back(Json()
                               .num("wall_s", walls[b].first)
                               .num("cpu_s", walls[b].second)
                               .num("programs", acc[0])
                               .num("programs_with_cex", acc[1])
                               .num("experiments", acc[2])
                               .num("counterexamples", acc[3])
                               .num("failed_programs", acc[4])
                               .render());
        }

        if (opts.trace) {
            start = wallNow();
            while (polled_walls.empty() ||
                   wallNow() - start < opts.seconds / 3) {
                StateTimes st;
                polled_walls.push_back(
                    runner.batch(batches++, true, &st).first);
                state_batches.push_back(stateJson(st));
            }
        }
        service.drain();
        checkpoint = service.checkpointPath();

        if (opts.trace) {
            // Replica phase: the driver's own shard/qcache calls for
            // the continuation of both clients' schedules, warm from
            // the service's checkpoint.
            metrics::Registry &g = metrics::Registry::global();
            hits0 = g.counter("qcache.hit").value();
            miss0 = g.counter("qcache.miss").value();
            Replica replica(tr, opts.work + "/replica", checkpoint);
            std::map<std::uint64_t, std::uint64_t> service_dir_of;
            for (const Submitted &s : runner.finished())
                if (s.done && !service_dir_of.count(s.seed))
                    service_dir_of[s.seed] = s.id;
            std::mutex mu;
            start = wallNow();
            int rep = 0;
            while (replica_walls.empty() ||
                   wallNow() - start < opts.seconds / 3) {
                tr.setRep(rep++);
                const double w0 = wallNow();
                std::vector<std::thread> threads;
                for (int c = 0; c < kClients; ++c)
                    threads.emplace_back([&, c] {
                        for (int k = 0; k < kPerClient; ++k) {
                            bool warm = false;
                            const std::uint64_t seed =
                                runner.client(c).next(warm);
                            const std::string cdir = replica.submit(seed);
                            const auto st = readStats(
                                cdir + "/" + shard::kStatsFile);
                            const std::string metrics_json = readFile(
                                cdir + "/" + shard::kMetricsFile);
                            std::lock_guard<std::mutex> lk(mu);
                            ++replica_subs;
                            replica_exps += statOr0(st, "experiments");
                            auto field = [&](const std::string &key) {
                                const std::size_t p = metrics_json.find(
                                    "\"" + key + "\": ");
                                return p == std::string::npos
                                           ? std::int64_t{0}
                                           : std::strtoll(
                                                 metrics_json.c_str() + p +
                                                     key.size() + 4,
                                                 nullptr, 10);
                            };
                            replica_queries += field("smt.queries");
                            replica_sat += field("sat.solve_calls");
                            const auto it = service_dir_of.find(seed);
                            if (it != service_dir_of.end()) {
                                ++replica_compared;
                                if (artifactDiff(cdir, service.campaignDir(
                                                           it->second))
                                        .empty())
                                    ++replica_match;
                            }
                        }
                    });
                for (std::thread &t : threads)
                    t.join();
                replica_walls.push_back(wallNow() - w0);
            }
            hits1 = g.counter("qcache.hit").value();
            miss1 = g.counter("qcache.miss").value();
            if (!tr.write(opts.spans)) {
                std::fprintf(stderr, "perfbench: cannot write %s\n",
                             opts.spans.c_str());
                return 2;
            }
        }

        // Invariant 10: every campaign equals a standalone worker +
        // merge run of its spec.  One reference per distinct seed,
        // run on a small pool after timing.
        subs = runner.finished();
        std::map<std::uint64_t, std::vector<std::uint64_t>> by_seed;
        for (const Submitted &s : subs)
            if (s.done)
                by_seed[s.seed].push_back(s.id);
        std::vector<std::pair<std::uint64_t, std::vector<std::uint64_t>>>
            work(by_seed.begin(), by_seed.end());
        ThreadPool pool(static_cast<unsigned>(benchThreads()));
        for (const auto &item : work)
            pool.submit([&, item] {
                const std::string ref =
                    opts.work + "/ref-" + std::to_string(item.first);
                const bool ran = runStandalone(specFor(item.first), ref);
                std::string detail;
                for (std::uint64_t id : item.second) {
                    const std::string d =
                        artifactDiff(service.campaignDir(id), ref);
                    if (!d.empty())
                        detail += " campaign-" + std::to_string(id) +
                                  ": " + d;
                }
                checks.record("invariant10.service_vs_standalone",
                              ran && detail.empty(),
                              "seed " + std::to_string(item.first) +
                                  detail);
                std::error_code rm_ec;
                fs::remove_all(ref, rm_ec);
            });
        pool.wait();
    }

    std::int64_t attempted = 0, failed = 0;
    std::vector<std::string> sub_items;
    for (const Submitted &s : subs) {
        ++attempted;
        failed += s.done ? 0 : 1;
        sub_items.push_back(Json()
                                .num("batch", static_cast<std::int64_t>(s.batch))
                                .num("ms", s.ms)
                                .boolean("warm", s.warm)
                                .boolean("done", s.done)
                                .render());
    }
    const std::int64_t ckpt_bytes =
        fs::exists(checkpoint, ec)
            ? static_cast<std::int64_t>(fs::file_size(checkpoint, ec))
            : 0;

    Json out;
    out.str("workload", opts.workload)
        .num("seed", static_cast<std::int64_t>(opts.seed))
        .num("threads", static_cast<std::int64_t>(base.workers))
        .num("clients", static_cast<std::int64_t>(kClients))
        .num("submissions_per_client_per_rep",
             static_cast<std::int64_t>(kPerClient))
        .num("programs_per_submission",
             static_cast<std::int64_t>(specFor(0).programs))
        .num("tests_per_program",
             static_cast<std::int64_t>(specFor(0).tests))
        .raw("build", buildJson())
        .raw("setup_s", jsonNumbers(setup))
        .raw("reps", jsonArray(reps))
        .raw("submissions", jsonArray(sub_items))
        .num("first_timed_batch", std::int64_t{1})
        .num("peak_rss_mb", rss);
    if (opts.trace) {
        out.raw("trace",
                Json()
                    .boolean("replica_exact", replica_compared > 0 &&
                                                  replica_match ==
                                                      replica_compared)
                    .num("replica_submissions", replica_subs)
                    .num("replica_compared", replica_compared)
                    .num("replica_matching_service", replica_match)
                    .num("replica_experiments", replica_exps)
                    .num("replica_smt_queries", replica_queries)
                    .num("replica_sat_calls", replica_sat)
                    .raw("untraced_wall_s", jsonNumbers(untraced_walls))
                    .raw("polled_wall_s", jsonNumbers(polled_walls))
                    .raw("traced_wall_s", jsonNumbers(replica_walls))
                    .raw("states", jsonArray(state_batches))
                    .num("qcache_hits",
                         static_cast<std::int64_t>(hits1 - hits0))
                    .num("qcache_misses",
                         static_cast<std::int64_t>(miss1 - miss0))
                    .num("checkpoint_bytes", ckpt_bytes)
                    .str("spans", opts.spans)
                    .render());
    }
    attempted += checks.total();
    failed += checks.failedCount();
    out.num("attempted", attempted)
        .num("failed", failed)
        .raw("checks", checks.json());
    fs::remove_all(opts.work, ec);
    std::FILE *f = std::fopen(opts.out.c_str(), "w");
    if (!f)
        return 2;
    std::fputs(out.render().c_str(), f);
    std::fputc('\n', f);
    return std::fclose(f) == 0 ? 0 : 2;
}

} // namespace perfbench
