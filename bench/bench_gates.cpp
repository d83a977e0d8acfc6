/**
 * @file
 * The gated comparisons: each measured claim the pipeline rests on,
 * run in one process and written as a `BENCH_<bench>.json` report in
 * the bench/rig.hh envelope.
 *
 *   qcache    the semantic SMT query cache pays for itself
 *   coverage  adaptive scheduling buys more classes per program
 *   hotpath   incremental solving + batched simulation beat oneshot
 *   shard     N workers + merge beat one process, byte-identically
 *   triage    the abstract-cache pre-screen saves work, changes nothing
 *   front     the SC frontend compiles fast, deterministically
 *   svc       the service's shared qcache pays, byte-identically
 *
 * Every report is written whatever its verdict; the binary exits
 * non-zero when any gate fails or any report cannot be written.
 * SCAMV_SCALE shrinks the campaigns (CI runs 0.25).  Run it with
 * SCAMV_QCACHE_MB unset, as CI does: an environment-enabled query
 * cache is process-wide, so it would carry solves from one
 * comparison into the next.
 *
 * Usage: bench_gates   (no arguments; reports land in the cwd)
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bir/asm.hh"
#include "bir/transform.hh"
#include "cover/ledger.hh"
#include "front/front.hh"
#include "gen/templates.hh"
#include "obs/models.hh"
#include "rel/relation.hh"
#include "smt/modes.hh"
#include "support/qcache/cached_solve.hh"
#include "support/qcache/qcache.hh"
#include "svc/svc.hh"
#include "sym/symexec.hh"

#include "rig.hh"

using namespace scamv;
using bench::Op;
using bench::Report;

namespace {

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

// ---- qcache ----------------------------------------------------------

/** Required cache-off : cache-on repeated-query advantage. */
constexpr double kMinQcacheSpeedup = 1.5;

/** Relation formulas of `programs` template-A programs (one per path
 *  pair), kept alive through the shared context. */
std::vector<expr::Expr>
relationFormulas(expr::ExprContext &ctx, int programs)
{
    std::vector<expr::Expr> formulas;
    for (int i = 0; i < programs; ++i) {
        gen::ProgramGenerator g(gen::TemplateKind::A,
                                static_cast<std::uint64_t>(7 + i));
        const bir::Program p = bir::instrumentSpeculation(g.next());
        obs::RefinementPair annot(obs::makeModel(obs::ModelKind::Mct),
                                  obs::makeModel(obs::ModelKind::Mspec));
        auto p1 = sym::execute(ctx, p, annot, {"_1"});
        auto p2 = sym::execute(ctx, p, annot, {"_2"});
        rel::RelationConfig cfg;
        cfg.refine = true;
        rel::RelationSynthesizer rel(ctx, std::move(p1), std::move(p2),
                                     cfg);
        for (const auto &pair : rel.pairs())
            formulas.push_back(rel.formulaFor(pair));
    }
    return formulas;
}

/**
 * The semantic SMT query cache (src/support/qcache) on its two hot
 * shapes:
 *
 *  - repeated_query: the pipeline's dominant pattern — structurally
 *    similar relation formulas solved over and over (Section 5.4's
 *    per-pair relations re-queried across test cases).  Cache-off
 *    re-solves each query; cache-on replays it.
 *  - warm_campaign: a full campaign run cold (populating a checkpoint
 *    file) and again resumed from it.  The runs must agree on every
 *    counter — a warm cache may only change the wall-clock, never the
 *    results — so the speedup always describes identical work.
 */
Report
qcacheGate()
{
    constexpr int kPasses = 5;
    constexpr std::int64_t kBudget = 200000;
    constexpr std::size_t kBytes = std::size_t{64} << 20;
    Report r("qcache");

    expr::ExprContext ctx;
    const std::vector<expr::Expr> formulas = relationFormulas(ctx, 6);
    const int queries = static_cast<int>(formulas.size()) * kPasses;

    Stopwatch off_watch;
    for (int pass = 0; pass < kPasses; ++pass)
        for (expr::Expr f : formulas)
            qcache::solveOnce(ctx, f, kBudget, nullptr);
    const double off_s = off_watch.seconds();

    qcache::QueryCache cache({kBytes, ""});
    const std::uint64_t h0 = bench::globalCounter("qcache.hit");
    const std::uint64_t m0 = bench::globalCounter("qcache.miss");
    Stopwatch on_watch;
    for (int pass = 0; pass < kPasses; ++pass)
        for (expr::Expr f : formulas)
            qcache::solveOnce(ctx, f, kBudget, &cache);
    const double on_s = on_watch.seconds();
    const std::uint64_t hits = bench::globalCounter("qcache.hit") - h0;
    const std::uint64_t misses =
        bench::globalCounter("qcache.miss") - m0;
    const double rq_speedup = ratio(off_s, on_s);

    core::PipelineConfig cfg;
    cfg.templateKind = gen::TemplateKind::A;
    cfg.model = obs::ModelKind::Mct;
    cfg.refinement = obs::ModelKind::Mspec;
    cfg.train = true;
    cfg.programs = core::scaled(8, core::scaleFromEnv(1.0));
    cfg.testsPerProgram = 6;
    cfg.seed = 99;
    cfg.threads = 1;

    const std::string checkpoint = "BENCH_qcache.checkpoint.tmp";
    std::remove(checkpoint.c_str());
    core::RunStats cold_stats, warm_stats;
    double cold_s = 0.0, warm_s = 0.0;
    {
        qcache::QueryCache cold({kBytes, checkpoint});
        core::PipelineConfig c = cfg;
        c.queryCache = &cold;
        Stopwatch watch;
        cold_stats = core::Pipeline(c).run();
        cold_s = watch.seconds();
    }
    const std::uint64_t wh0 = bench::globalCounter("qcache.hit");
    {
        qcache::QueryCache warm({kBytes, checkpoint});
        core::PipelineConfig c = cfg;
        c.queryCache = &warm;
        Stopwatch watch;
        warm_stats = core::Pipeline(c).run();
        warm_s = watch.seconds();
    }
    const std::uint64_t warm_hits =
        bench::globalCounter("qcache.hit") - wh0;
    std::remove(checkpoint.c_str());
    const bool identical =
        cold_stats.experiments == warm_stats.experiments &&
        cold_stats.counterexamples == warm_stats.counterexamples &&
        cold_stats.inconclusive == warm_stats.inconclusive &&
        cold_stats.metrics.counters == warm_stats.metrics.counters;

    r.workload("relation_programs", 6);
    r.workload("passes", kPasses);
    r.workload("campaign_programs", cfg.programs);
    r.workload("seed", cfg.seed);
    r.leg("repeated_query", {{"queries", queries},
                             {"cache_off_s", off_s},
                             {"cache_on_s", on_s},
                             {"speedup", rq_speedup},
                             {"hits", hits},
                             {"misses", misses}});
    r.leg("warm_campaign", {{"cold_s", cold_s},
                            {"warm_s", warm_s},
                            {"speedup", ratio(cold_s, warm_s)},
                            {"hits", warm_hits}});
    r.gate("repeated_query.speedup", rq_speedup, Op::Ge,
           kMinQcacheSpeedup);
    r.gate("repeated_query.hits", hits, Op::Ge, 1);
    r.gate("warm_campaign.deterministic", identical, Op::Eq, 1);
    return r;
}

// ---- coverage --------------------------------------------------------

/** Required adaptive : uniform classes-per-program advantage. */
constexpr double kMinCoverageRatio = 1.5;

/**
 * The adaptive campaign scheduler (src/cover) against the uniform
 * baseline on the stride workload, same seed and budget.  Uniform
 * draws Mline classes at random, re-hitting covered classes for the
 * whole campaign; adaptive plans each round least-covered-first from
 * the coverage ledger and stops early once the class universe is
 * saturated.  The headline metric is *classes covered per program
 * actually run* — the coverage a program of budget buys.  The
 * adaptive campaign's ledger is embedded as `ledger`.
 */
Report
coverageGate()
{
    Report r("coverage");
    // SCAMV_SCALE shrinks smoke runs, but the comparison needs enough
    // budget for the uniform baseline's diminishing returns to show:
    // keep at least ~2x the programs adaptive needs to saturate.
    const core::PipelineConfig wl = bench::strideCampaign(
        std::max(32, core::scaled(48, core::scaleFromEnv(1.0))));
    r.workload("template", "stride");
    r.workload("programs", wl.programs);
    r.workload("tests_per_program", wl.testsPerProgram);
    r.workload("seed", wl.seed);

    // Runs one schedule, records its leg, returns classes per program.
    const auto run = [&](core::Schedule schedule, const char *leg) {
        cover::CoverageLedger ledger;
        core::PipelineConfig cfg = wl;
        cfg.schedule = schedule;
        cfg.coverageLedger = &ledger;
        Stopwatch watch;
        const core::RunStats stats = core::Pipeline(cfg).run();
        const double wall_s = watch.seconds();
        const double per_program =
            ratio(stats.coveredClasses, stats.programs);
        r.leg(leg, {{"programs", stats.programs},
                    {"early_stopped", stats.earlyStopped},
                    {"classes_covered", stats.coveredClasses},
                    {"classes_per_program", per_program},
                    {"counterexamples", stats.counterexamples},
                    {"ttc_s", stats.ttcSeconds},
                    {"wall_s", wall_s}});
        if (schedule == core::Schedule::Adaptive)
            r.embed("ledger", cover::toJson(ledger.snapshot()));
        return per_program;
    };
    const double uniform = run(core::Schedule::Uniform, "uniform");
    const double adaptive = run(core::Schedule::Adaptive, "adaptive");
    r.gate("ratio", ratio(adaptive, uniform), Op::Ge, kMinCoverageRatio);
    return r;
}

// ---- hotpath ---------------------------------------------------------

/** Required baseline : hotpath end-to-end wall-clock advantage. */
constexpr double kMinHotpathSpeedup = 1.5;

/**
 * The hot-path engine against the pre-hotpath baseline on the stride
 * workload (same seed, programs, tests):
 *
 *  - baseline_oneshot: SolverMode::Oneshot (fresh solver per test,
 *    op-log replay) with batched simulation off (fresh hw::Core per
 *    repetition) — the quadratic-solving, allocation-heavy shape the
 *    hot-path engine replaces;
 *  - hotpath_incremental: SolverMode::Incremental with batched
 *    simulation on — one live solver per pair, one arena-backed core
 *    per experiment.
 *
 * Both must produce the same verdict counters and a byte-identical
 * ExperimentDb CSV.  Solver counters are not compared: oneshot
 * legitimately changes them.  Per-program latency percentiles come
 * from the campaign's `pipeline.program_seconds` histogram.
 */
Report
hotpathGate()
{
    Report r("hotpath");
    core::PipelineConfig wl = bench::strideCampaign(
        std::max(8, core::scaled(16, core::scaleFromEnv(1.0))));
    wl.threads = 1;
    r.workload("template", "stride");
    r.workload("programs", wl.programs);
    r.workload("tests_per_program", wl.testsPerProgram);
    r.workload("seed", wl.seed);

    struct Leg {
        core::RunStats stats;
        double wallSeconds = 0.0;
        std::optional<std::string> csv;
    };
    const auto run = [&](const std::string &leg, smt::SolverMode solver,
                         bool sim_batch) {
        core::ExperimentDb db;
        core::PipelineConfig cfg = wl;
        cfg.solverMode = solver;
        cfg.platform.simBatch = sim_batch;
        cfg.database = &db;
        Leg out;
        Stopwatch watch;
        out.stats = core::Pipeline(cfg).run();
        out.wallSeconds = watch.seconds();
        out.csv = bench::exportedCsv(db, "hotpath_" + leg + ".csv");

        double p50 = 0.0, p99 = 0.0;
        const auto hist =
            out.stats.metrics.histograms.find("pipeline.program_seconds");
        if (hist != out.stats.metrics.histograms.end()) {
            p50 = hist->second.quantile(0.5);
            p99 = hist->second.quantile(0.99);
        }
        r.leg(leg, {{"sim_batch", sim_batch},
                    {"wall_s", out.wallSeconds},
                    {"p50_program_s", p50},
                    {"p99_program_s", p99},
                    {"experiments", out.stats.experiments},
                    {"counterexamples", out.stats.counterexamples}});
        r.gate(leg + ".p50_program_s", p50, Op::Le, p99);
        return out;
    };
    const Leg a =
        run("baseline_oneshot", smt::SolverMode::Oneshot, false);
    const Leg b =
        run("hotpath_incremental", smt::SolverMode::Incremental, true);

    const bool deterministic =
        bench::sameBytes(a.csv, b.csv) &&
        a.stats.experiments == b.stats.experiments &&
        a.stats.counterexamples == b.stats.counterexamples &&
        a.stats.inconclusive == b.stats.inconclusive &&
        a.stats.generationFailures == b.stats.generationFailures;
    r.gate("speedup", ratio(a.wallSeconds, b.wallSeconds), Op::Ge,
           kMinHotpathSpeedup);
    r.gate("deterministic", deterministic, Op::Eq, 1);
    return r;
}

// ---- shard -----------------------------------------------------------

/** Required single : sharded end-to-end wall-clock advantage on a
 *  host with at least kShards cores. */
constexpr double kMinShardSpeedup = 1.5;

/** Worker fan-out measured by the shard comparison. */
constexpr int kShards = 4;

/** Host-adapted speedup gate.  Shard scaling is parallelism-bound
 *  (the ceiling is min(shards, cores)): the full kMinShardSpeedup on
 *  >= 4 cores (CI runners), a modest win on 2-3 cores, and on a
 *  single core — where concurrent workers cannot beat one process —
 *  only a no-pathological-overhead floor.  The determinism gate never
 *  relaxes. */
double
shardSpeedupGate(unsigned cores)
{
    if (cores >= 4)
        return kMinShardSpeedup;
    if (cores >= 2)
        return 1.1;
    return 0.5;
}

/**
 * Sharded campaign throughput (kShards concurrent single-threaded
 * shard::runWorker calls, then shard::mergeCampaign) against the
 * 1-process, 1-thread reference on the stride workload.  The sharded
 * run must beat the single run end-to-end (worker wall-clock plus
 * merge), and every merged campaign artifact (metrics.json,
 * coverage.json, db.csv, stats.json) must be byte-identical to the
 * reference — determinism invariant 8 of ARCHITECTURE.md measured
 * rather than assumed.
 */
Report
shardGate()
{
    namespace fs = std::filesystem;
    Report r("shard");
    const core::PipelineConfig wl = shard::defaultWorkload(
        /*programs=*/std::max(16, core::scaled(64,
                                               core::scaleFromEnv(1.0))),
        /*tests=*/6, /*seed=*/99, /*adaptive=*/false, /*line=*/false);
    const unsigned cores =
        std::max(1u, std::thread::hardware_concurrency());
    r.workload("template", "stride");
    r.workload("programs", wl.programs);
    r.workload("tests_per_program", wl.testsPerProgram);
    r.workload("seed", wl.seed);
    r.workload("shards", kShards);
    r.workload("cores", cores);

    const std::string single_dir = "bench_shard_single";
    const std::string sharded_dir = "bench_shard_sharded";
    fs::remove_all(single_dir);
    fs::remove_all(sharded_dir);

    // ---- single: the byte-identity reference ---------------------
    fs::create_directories(single_dir);
    double single_s = 0.0;
    {
        core::PipelineConfig cfg = wl;
        cover::CoverageLedger ledger;
        core::ExperimentDb db;
        cfg.coverageLedger = &ledger;
        cfg.database = &db;
        Stopwatch watch;
        const core::RunStats stats = core::Pipeline(cfg).run();
        single_s = watch.seconds();
        shard::writeCampaignArtifacts(stats, &db, single_dir);
    }

    // ---- sharded: concurrent workers, then the coordinator merge --
    std::vector<std::thread> threads;
    std::vector<char> worker_ok(kShards, 0);
    Stopwatch worker_watch;
    for (int i = 0; i < kShards; ++i) {
        threads.emplace_back([&wl, &sharded_dir, &worker_ok, i] {
            core::PipelineConfig cfg = wl;
            cover::CoverageLedger ledger;
            cfg.coverageLedger = &ledger;
            worker_ok[static_cast<std::size_t>(i)] =
                shard::runWorker(cfg, shard::ShardSpec{i, kShards},
                                 shard::shardDir(sharded_dir, i))
                    .ok;
        });
    }
    for (std::thread &th : threads)
        th.join();
    const double worker_s = worker_watch.seconds();

    core::PipelineConfig cfg = wl;
    cover::CoverageLedger ledger;
    core::ExperimentDb db;
    cfg.coverageLedger = &ledger;
    cfg.database = &db;
    Stopwatch merge_watch;
    const shard::MergeResult merged =
        shard::mergeCampaign(cfg, kShards, sharded_dir, {});
    const double merge_s = merge_watch.seconds();
    const double sharded_s = worker_s + merge_s;

    const bool deterministic =
        merged.ok && merged.missingPrograms.empty() &&
        std::all_of(worker_ok.begin(), worker_ok.end(),
                    [](char ok) { return ok != 0; }) &&
        bench::sameCampaignArtifacts(single_dir, sharded_dir);
    fs::remove_all(single_dir);
    fs::remove_all(sharded_dir);

    r.leg("single", {{"seconds", single_s}});
    r.leg("sharded", {{"seconds", sharded_s},
                      {"worker_seconds", worker_s},
                      {"merge_seconds", merge_s}});
    r.gate("shards", kShards, Op::Ge, 2);
    r.gate("merge_seconds", merge_s, Op::Le, sharded_s);
    r.gate("speedup", ratio(single_s, sharded_s), Op::Ge,
           shardSpeedupGate(cores));
    r.gate("deterministic", deterministic, Op::Eq, 1);
    return r;
}

// ---- triage ----------------------------------------------------------

/** Required unscreened : screened wall-clock advantage. */
constexpr double kMinTriageSpeedup = 1.5;

/** Alternative gate: fraction of SMT queries the screen must avoid. */
constexpr double kMinSmtAvoided = 0.3;

std::int64_t
smtQueries(const core::RunStats &stats)
{
    const auto it = stats.metrics.counters.find("smt.queries");
    return it == stats.metrics.counters.end() ? 0 : it->second;
}

/**
 * The abstract-cache pre-screen (src/triage), two sections:
 *
 *  - stride: an Mpart -> Mpart' campaign whose attacker window spans
 *    every cache set, so the ar-containment criterion proves each
 *    stride program boring.  The screened run must either beat the
 *    unscreened run end-to-end by kMinTriageSpeedup or avoid at least
 *    kMinSmtAvoided of its SMT queries — the pre-screen's whole value
 *    proposition.  Wall-clock speedup on small campaigns is noisy,
 *    which is why the gate is a disjunction: the query count is exact
 *    and host-independent, the wall clock is the honest end-to-end
 *    number.
 *  - mixed: a {Stride, C} Mct -> Mspec campaign run screened and
 *    unscreened.  The screen may only skip work, never change an
 *    outcome: verdict counters and the experiment-log CSV must match
 *    byte for byte (determinism invariant 9 of ARCHITECTURE.md).
 */
Report
triageGate()
{
    Report r("triage");

    core::PipelineConfig stride;
    stride.templateKind = gen::TemplateKind::Stride;
    stride.model = obs::ModelKind::Mpart;
    stride.refinement = obs::ModelKind::MpartRefined;
    stride.coverage = core::Coverage::PcAndLine;
    stride.programs =
        std::max(16, core::scaled(48, core::scaleFromEnv(1.0)));
    stride.testsPerProgram = 6;
    stride.seed = 1213;
    stride.threads = 1;
    stride.deterministicMetricsTiming = true;
    // Attacker window = every set: ar-containment holds everywhere.
    stride.modelParams.attacker.loSet = 0;
    stride.platform.visibleLoSet = 0;
    stride.triageMinimize = 0;
    r.workload("template", "stride");
    r.workload("programs", stride.programs);
    r.workload("tests_per_program", stride.testsPerProgram);
    r.workload("seed", stride.seed);

    // ---- stride section: the work the screen saves ----------------
    stride.triageScreen = 0;
    Stopwatch off_watch;
    const core::RunStats off = core::Pipeline(stride).run();
    const double off_s = off_watch.seconds();
    stride.triageScreen = 1;
    Stopwatch on_watch;
    const core::RunStats on = core::Pipeline(stride).run();
    const double on_s = on_watch.seconds();
    const double q_off = smtQueries(off);
    const double q_on = smtQueries(on);

    // ---- mixed section: the screen must not change outcomes -------
    core::PipelineConfig mixed;
    mixed.templateKinds = {gen::TemplateKind::Stride,
                           gen::TemplateKind::C};
    mixed.model = obs::ModelKind::Mct;
    mixed.refinement = obs::ModelKind::Mspec;
    mixed.coverage = core::Coverage::PcAndLine;
    mixed.programs =
        std::max(12, core::scaled(32, core::scaleFromEnv(1.0)));
    mixed.testsPerProgram = 3;
    mixed.seed = 77;
    mixed.threads = 1;
    mixed.deterministicMetricsTiming = true;
    mixed.triageMinimize = 0;
    core::ExperimentDb db_on, db_off;
    mixed.triageScreen = 1;
    mixed.database = &db_on;
    const core::RunStats mix_on = core::Pipeline(mixed).run();
    mixed.triageScreen = 0;
    mixed.database = &db_off;
    const core::RunStats mix_off = core::Pipeline(mixed).run();
    const bool deterministic =
        mix_on.experiments == mix_off.experiments &&
        mix_on.counterexamples == mix_off.counterexamples &&
        mix_on.inconclusive == mix_off.inconclusive &&
        bench::sameBytes(
            bench::exportedCsv(db_on, "BENCH_triage.on.csv"),
            bench::exportedCsv(db_off, "BENCH_triage.off.csv"));

    r.leg("screen_off", {{"seconds", off_s}, {"smt_queries", q_off}});
    r.leg("screen_on", {{"seconds", on_s},
                        {"smt_queries", q_on},
                        {"screened", on.screened}});
    r.gate("screened", on.screened, Op::Ge, 1);
    r.gate("smt_queries_on", q_on, Op::Le, q_off);
    r.anyOf({{"speedup", ratio(off_s, on_s), Op::Ge, kMinTriageSpeedup},
             {"smt_avoided", q_off > 0 ? 1.0 - q_on / q_off : 0.0,
              Op::Ge, kMinSmtAvoided}});
    r.gate("deterministic", deterministic, Op::Eq, 1);
    return r;
}

// ---- front -----------------------------------------------------------

/** Required kernel compilations per second (pessimistic floor: real
 *  hosts compile the whole corpus in well under a millisecond). */
constexpr double kMinCompilesPerSec = 1000.0;

/** Structural equality of two corpus loads (program bytes + the
 *  relational contract the campaign consumes). */
bool
corpusEqual(const std::vector<front::CompiledProgram> &a,
            const std::vector<front::CompiledProgram> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].name != b[i].name || !(a[i].program == b[i].program) ||
            a[i].program.toString() != b[i].program.toString() ||
            a[i].secretRegs != b[i].secretRegs ||
            a[i].publicRegs != b[i].publicRegs ||
            a[i].publicMemAddrs != b[i].publicMemAddrs)
            return false;
    }
    return true;
}

/**
 * The SC frontend (src/front) sits on every corpus campaign's startup
 * path — the worker, the merge coordinator and every scamvd
 * submission each recompile the corpus from source (compilation is a
 * pure function, so recompiling is what keeps shard and service runs
 * byte-identical without shipping compiled programs around).  Gates:
 *
 *  - throughput: at least kMinCompilesPerSec kernel compilations per
 *    second — a compile must stay microscopic next to the campaign
 *    work it fronts;
 *  - determinism: two independent corpus loads produce byte-identical
 *    BIR and identical layouts/contracts — the property every
 *    byte-identity invariant in ARCHITECTURE.md leans on;
 *  - round-trip: assemble(toString(p)) == p for every kernel — the
 *    `scamv-fc --emit-bir` output is a faithful program encoding.
 */
Report
frontGate()
{
    Report r("front");
    const std::string corpus_dir =
        std::string(SCAMV_REPO_ROOT) + "/examples/corpus";
    const std::vector<front::CompiledProgram> corpus =
        front::loadCorpusDir(corpus_dir);
    const bool deterministic =
        corpusEqual(corpus, front::loadCorpusDir(corpus_dir));

    bool round_trip = true;
    std::size_t instructions = 0;
    for (const front::CompiledProgram &cp : corpus) {
        const bir::AsmResult back =
            bir::assemble(cp.program.toString(), cp.name);
        round_trip =
            round_trip && back.ok() && back.program == cp.program;
        instructions += cp.program.size();
    }

    const int iterations =
        std::max(20, core::scaled(200, core::scaleFromEnv(1.0)));
    Stopwatch watch;
    std::size_t compiled = 0;
    for (int it = 0; it < iterations; ++it)
        compiled += front::loadCorpusDir(corpus_dir).size();
    const double compile_s = watch.seconds();
    const double per_sec = ratio(compiled, compile_s);

    r.workload("corpus", "examples/corpus");
    r.workload("iterations", iterations);
    r.leg("compile", {{"kernels", corpus.size()},
                      {"instructions", instructions},
                      {"iterations", iterations},
                      {"compile_seconds", compile_s},
                      {"compiles_per_second", per_sec}});
    r.gate("kernels", corpus.size(), Op::Ge, 1);
    r.gate("compiles_per_second", per_sec, Op::Ge, kMinCompilesPerSec);
    r.gate("deterministic", deterministic, Op::Eq, 1);
    r.gate("round_trip", round_trip, Op::Eq, 1);
    return r;
}

// ---- svc -------------------------------------------------------------

/** Required standalone : service aggregate wall-clock advantage. */
constexpr double kMinSvcSpeedup = 1.3;

/** Alternative gate: fraction of standalone cache misses (actual
 *  solver work) the shared checkpoint must avoid. */
constexpr double kMinSvcSolvesAvoided = 0.3;

/** Sets (or unsets) an environment variable for one scope and
 *  restores the caller's value on exit. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        if (const char *old = std::getenv(name))
            saved_ = old;
        if (value)
            setenv(name, value, 1);
        else
            unsetenv(name);
    }
    ~ScopedEnv()
    {
        if (saved_)
            setenv(name_, saved_->c_str(), 1);
        else
            unsetenv(name_);
    }
    ScopedEnv(const ScopedEnv &) = delete;
    ScopedEnv &operator=(const ScopedEnv &) = delete;

  private:
    const char *name_;
    std::optional<std::string> saved_;
};

/** One standalone campaign: worker per shard + coordinator merge,
 *  exactly the scamv_worker / scamv_merge CLI path. */
bool
runStandalone(const svc::SubmissionSpec &spec, int shards,
              const std::string &root)
{
    namespace fs = std::filesystem;
    std::error_code ec;
    for (int i = 0; i < shards; ++i) {
        fs::create_directories(shard::shardDir(root, i), ec);
        core::PipelineConfig cfg = svc::campaignConfig(spec);
        cover::CoverageLedger ledger;
        cfg.coverageLedger = &ledger;
        if (!shard::runWorker(cfg, shard::ShardSpec{i, shards},
                              shard::shardDir(root, i))
                 .ok)
            return false;
    }
    core::PipelineConfig cfg = svc::campaignConfig(spec);
    cover::CoverageLedger ledger;
    core::ExperimentDb db;
    cfg.coverageLedger = &ledger;
    cfg.database = &db;
    shard::MergeOptions opts;
    opts.rerunMissing = true;
    return shard::mergeCampaign(cfg, shards, root, opts).ok;
}

/**
 * The campaign service's shared cross-campaign qcache (src/svc).  A
 * multi-tenant shop re-runs near-identical campaigns all day
 * (re-validating a model after every harness tweak), and without the
 * service each run re-solves the same SMT queries from scratch.  N
 * identical campaigns run both ways:
 *
 *  - standalone: each through the shard worker/merge machinery with
 *    its own private qcache — what N one-shot CLI invocations cost;
 *  - service: the same N submissions through one svc::Service, whose
 *    shared checkpoint seeds every campaign after the first.
 *
 * The aggregate speedup must reach kMinSvcSpeedup or the shared cache
 * must avoid kMinSvcSolvesAvoided of the standalone cache misses
 * (exact and host-independent, the same disjunction as triage).
 * Every service campaign's deterministic artifacts must be
 * byte-identical to its standalone run — invariant 10.
 *
 * Both legs need SCAMV_QCACHE_MB set and SCAMV_QCACHE_FILE unset.
 * QueryCache::sharedFromEnv() latches on first use, so this runs last
 * in the process: run earlier, the latched 64 MB cache would leak
 * into every later comparison.  The caller's environment is restored
 * on return.
 */
Report
svcGate()
{
    namespace fs = std::filesystem;
    constexpr int kCampaigns = 3;
    constexpr int kSvcShards = 2;
    Report r("svc");

    svc::SubmissionSpec spec;
    spec.programs = std::max(6, core::scaled(10, core::scaleFromEnv(1.0)));
    spec.tests = 3;
    spec.seed = 7;
    r.workload("campaigns", kCampaigns);
    r.workload("shards", kSvcShards);
    r.workload("programs", spec.programs);
    r.workload("tests_per_program", spec.tests);
    r.workload("seed", spec.seed);

    const std::string root =
        fs::temp_directory_path().string() + "/scamv_bench_svc";
    fs::remove_all(root);
    fs::create_directories(root);
    const ScopedEnv cache_mb("SCAMV_QCACHE_MB", "64");
    const ScopedEnv cache_file("SCAMV_QCACHE_FILE", nullptr);

    // ---- standalone leg: N private caches ------------------------
    const std::uint64_t sa_m0 = bench::globalCounter("qcache.miss");
    Stopwatch standalone_watch;
    bool ok = true;
    for (int i = 0; i < kCampaigns && ok; ++i)
        ok = runStandalone(spec, kSvcShards,
                           root + "/standalone-" + std::to_string(i));
    const double standalone_s = standalone_watch.seconds();
    const double standalone_misses =
        bench::globalCounter("qcache.miss") - sa_m0;

    // ---- service leg: one shared checkpoint ----------------------
    const std::uint64_t sv_m0 = bench::globalCounter("qcache.miss");
    Stopwatch service_watch;
    std::vector<std::uint64_t> ids;
    if (ok) {
        svc::ServiceConfig cfg;
        cfg.dir = root + "/svc";
        cfg.workers = 2;
        cfg.shards = kSvcShards;
        svc::Service service(cfg);
        for (int i = 0; i < kCampaigns && ok; ++i) {
            const svc::SubmitResult res = service.submit(spec);
            ok = res.accepted && service.wait(res.id);
            if (ok)
                ids.push_back(res.id);
        }
        service.drain();
    }
    const double service_s = service_watch.seconds();
    const double service_misses =
        bench::globalCounter("qcache.miss") - sv_m0;

    bool deterministic = ok;
    for (int i = 0; deterministic && i < kCampaigns; ++i)
        deterministic = bench::sameCampaignArtifacts(
            root + "/svc/campaign-" + std::to_string(ids.at(i)),
            root + "/standalone-" + std::to_string(i));
    fs::remove_all(root);

    r.leg("standalone",
          {{"seconds", standalone_s}, {"misses", standalone_misses}});
    r.leg("service", {{"seconds", service_s}, {"misses", service_misses}});
    r.gate("campaigns", kCampaigns, Op::Ge, 2);
    r.gate("service_misses", service_misses, Op::Le, standalone_misses);
    r.anyOf({{"speedup", ratio(standalone_s, service_s), Op::Ge,
              kMinSvcSpeedup},
             {"solves_avoided",
              standalone_misses > 0
                  ? 1.0 - service_misses / standalone_misses
                  : 0.0,
              Op::Ge, kMinSvcSolvesAvoided}});
    r.gate("deterministic", deterministic, Op::Eq, 1);
    return r;
}

} // namespace

int
main()
{
    // svc must stay last (see svcGate).  Every comparison runs and
    // writes its report even after an earlier one failed.
    bool ok = true;
    for (Report (*gate)() : {qcacheGate, coverageGate, hotpathGate,
                             shardGate, triageGate, frontGate, svcGate})
        ok = gate().finish() && ok;
    std::printf("[gates] %s\n", ok ? "all passed" : "FAILED");
    return ok ? 0 : 1;
}
