/**
 * @file
 * The three in-process campaign workloads: mpart_prefetch,
 * spec_siscloak and corpus_kernels.
 *
 * Untraced runs time `core::Pipeline::run()` closed loop, one
 * fixed-size campaign per repetition, and check every repetition
 * against a 1-thread reference run made during setup.  Traced runs
 * additionally drive each program through the layers' public
 * functions in the pipeline's order (see `tracedProgram`), one span
 * per call, and merge the outcomes with `core::mergeCampaignOutcomes`.
 */

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <unordered_map>

#include "bir/transform.hh"
#include "common.hh"
#include "front/front.hh"
#include "rel/relation.hh"
#include "shard/shard.hh"
#include "smt/solver.hh"
#include "support/thread_pool.hh"
#include "trace.hh"
#include "triage/screen.hh"

namespace perfbench {

using namespace scamv;

namespace {

/**
 * The campaign of one workload.  The campaign seed is derived from
 * the workload seed; everything else is fixed, so one seed names one
 * input set.  Sizes make one repetition take about a second on a
 * 4-core host: enough programs that the campaign's totals vary little
 * from seed to seed.
 */
core::PipelineConfig
buildConfig(const std::string &workload, std::uint64_t seed,
            const std::string &root)
{
    core::PipelineConfig cfg;
    if (workload == "mpart_prefetch") {
        // Table 1 column 2: Stride template, Mpart refined by Mpart',
        // Mpc + Mline coverage, attacker sets 61..127.
        cfg.templateKind = gen::TemplateKind::Stride;
        cfg.model = obs::ModelKind::Mpart;
        cfg.refinement = obs::ModelKind::MpartRefined;
        cfg.coverage = core::Coverage::PcAndLine;
        cfg.programs = 256;
        cfg.testsPerProgram = 30;
        cfg.modelParams.attacker.loSet = 61;
        cfg.platform.visibleLoSet = 61;
        cfg.platform.visibleHiSet = 127;
        cfg.platform.noiseProbability = 0.01;
    } else if (workload == "spec_siscloak") {
        // Table 1 column 6 with triage on: Templates A and Stride
        // alternate, Mct refined by Mspec, predictor training.
        cfg.templateKinds = {gen::TemplateKind::A,
                             gen::TemplateKind::Stride};
        cfg.model = obs::ModelKind::Mct;
        cfg.refinement = obs::ModelKind::Mspec;
        cfg.train = true;
        cfg.triageScreen = 1;
        cfg.programs = 256;
        cfg.testsPerProgram = 40;
        cfg.platform.noiseProbability = 0.0005;
    } else if (workload == "corpus_kernels") {
        // The five examples/corpus SC kernels, Mpc refined by Mct with
        // Mline coverage; program i runs kernel i mod 5.
        cfg = shard::corpusWorkload(40, 8, 0, false,
                                    root + "/examples/corpus");
        // corpusWorkload pins the deterministic metrics clock and one
        // thread for shard byte-identity; the benchmark wants wall
        // time on the shared worker count.
        cfg.deterministicMetricsTiming = false;
    } else {
        throw std::runtime_error("unknown campaign workload " + workload);
    }
    cfg.seed = mix(seed ^ 0x5ca3bULL);
    cfg.threads = benchThreads();
    cfg.triageMinimize = 0;
    cfg.schedule = core::Schedule::Uniform;
    return cfg;
}

/** Driver-side work counts of one traced repetition. */
struct DriverCounts {
    std::atomic<std::int64_t> experiments{0};
    std::atomic<std::int64_t> smtQueries{0};
    std::atomic<std::int64_t> stmts{0};
    std::atomic<std::int64_t> paths{0};
    std::atomic<std::int64_t> pairs{0};
};

/**
 * True when `tracedProgram` replays the configured campaign exactly:
 * it mirrors the pipeline's fault-free, uncached, canonical,
 * incremental, uniform path without coverage accounting or findings.
 */
bool
replicaExact(const core::PipelineConfig &cfg)
{
    return cfg.strategy == core::SolveStrategy::Canonical &&
           cfg.solverMode.value_or(smt::SolverMode::Incremental) ==
               smt::SolverMode::Incremental &&
           !cfg.faultPlan.enabled() && cfg.queryCache == nullptr &&
           cfg.schedule.value_or(core::Schedule::Uniform) ==
               core::Schedule::Uniform &&
           !core::coverageTracked(cfg) && cfg.triageMinimize <= 0 &&
           !cfg.findingsFile;
}

/**
 * One program task driven through the layers' public functions in
 * the pipeline's order — generate, instrument, screen, symbolic
 * execution, relation synthesis, per-test SMT encode/search/model,
 * hardware experiment — with one span per call.  Counters go to a
 * private registry exactly as in the pipeline's task, so the merged
 * RunStats, ExperimentDb rows and layer counters can be compared
 * with the untraced campaign.
 */
core::ProgramOutcome
tracedProgram(const core::PipelineConfig &cfg,
              const core::ProgramTask &task, Tracer &tr,
              std::uint64_t parent, DriverCounts &counts)
{
    const int prog_i = task.prog_i;
    Span program_span(tr, "core.program", prog_i, parent);
    const double task_t0 = wallNow();
    core::ProgramOutcome out;
    metrics::Registry reg(metrics::ClockMode::Wall);
    metrics::ScopedRegistry scoped(reg);
    const double reg_t0 = reg.now();
    reg.counter("pipeline.programs").inc();
    out.name = "program-" + std::to_string(prog_i);

    const front::CompiledProgram *corpus_entry = nullptr;
    if (task.corpusIndex >= 0 && cfg.corpus &&
        task.corpusIndex < static_cast<int>(cfg.corpus->size()))
        corpus_entry =
            &(*cfg.corpus)[static_cast<std::size_t>(task.corpusIndex)];

    auto finish = [&] {
        if (out.hasCex)
            reg.counter("pipeline.programs_with_cex").inc();
        const double elapsed = reg.now() - reg_t0;
        reg.gauge("pipeline.task_seconds").add(elapsed);
        reg.histogram("pipeline.program_seconds").observe(elapsed);
        out.metrics = reg.snapshot();
        out.taskSeconds = wallNow() - task_t0;
    };

    const std::uint64_t prog_seed = core::deriveProgramSeed(cfg.seed, prog_i);
    gen::GeneratorConfig gen_cfg;
    gen_cfg.lineBytes = cfg.modelParams.geom.lineBytes;
    gen::ProgramGenerator generator(task.templ, prog_seed, gen_cfg);
    generator.setCounter(prog_i);
    harness::Platform platform(cfg.platform, prog_seed ^ 0x90153ULL);
    Rng rng(prog_seed ^ 0xc0ffeeULL);
    expr::ExprContext ctx;

    bir::Program program;
    if (corpus_entry) {
        program = corpus_entry->program;
        program.setName(corpus_entry->name + "#" + std::to_string(prog_i));
    } else {
        Span s(tr, "gen.next", prog_i);
        program = generator.next();
    }
    out.name = program.name();
    bir::Program model_prog = program;
    if (core::needsSpecInstrumentation(cfg)) {
        Span s(tr, "bir.instrument", prog_i);
        if (cfg.rewriteJumps)
            model_prog = bir::rewriteJumpsToCondBranches(model_prog);
        model_prog = bir::instrumentSpeculation(model_prog);
    }
    counts.stmts += static_cast<std::int64_t>(model_prog.size());
    std::unique_ptr<sym::Annotator> annotator;
    if (cfg.refinement)
        annotator = std::make_unique<obs::RefinementPair>(
            obs::makeModel(cfg.model, cfg.modelParams),
            obs::makeModel(*cfg.refinement, cfg.modelParams));
    else
        annotator = obs::makeModel(cfg.model, cfg.modelParams);

    if (cfg.triageScreen > 0 && cfg.refinement) {
        triage::ScreenResult screen;
        {
            Span s(tr, "triage.screen", prog_i);
            screen = triage::screenProgram(model_prog, cfg.model,
                                           *cfg.refinement,
                                           cfg.modelParams);
        }
        if (screen.verdict == triage::ScreenVerdict::Boring) {
            reg.counter("triage.screened").inc();
            reg.counter("triage.screened." + screen.reason).inc();
            finish();
            return out;
        }
    }

    std::vector<sym::PathResult> paths1, paths2;
    {
        Span s(tr, "sym.execute", prog_i);
        paths1 = sym::execute(ctx, model_prog, *annotator, {"_1"});
    }
    {
        Span s(tr, "sym.execute", prog_i);
        paths2 = sym::execute(ctx, model_prog, *annotator, {"_2"});
    }
    counts.paths += static_cast<std::int64_t>(paths1.size() + paths2.size());

    rel::RelationConfig rel_cfg;
    rel_cfg.refine = cfg.refinement.has_value();
    rel_cfg.region = cfg.region;
    rel_cfg.geom = cfg.modelParams.geom;
    if (corpus_entry) {
        rel_cfg.lowRegs = corpus_entry->publicRegs;
        rel_cfg.lowMemAddrs = corpus_entry->publicMemAddrs;
    }
    std::optional<rel::RelationSynthesizer> relation;
    {
        Span s(tr, "rel.synth", prog_i);
        relation.emplace(ctx, std::move(paths1), std::move(paths2),
                         rel_cfg);
    }
    std::vector<sym::PathResult> training_paths;
    if (cfg.train) {
        Span s(tr, "sym.execute", prog_i);
        auto mpc = obs::makeModel(obs::ModelKind::Mpc);
        training_paths = sym::execute(ctx, model_prog, *mpc, {"_t"});
        counts.paths += static_cast<std::int64_t>(training_paths.size());
    }

    const auto &pairs = relation->pairs();
    counts.pairs += static_cast<std::int64_t>(pairs.size());
    if (pairs.empty()) {
        finish();
        return out;
    }

    // Model-blocking variables, as the pipeline builds them.
    const sym::SymNames names1{"_1"}, names2{"_2"};
    std::vector<expr::Expr> block_vars;
    for (bir::Reg r : program.usedRegs()) {
        block_vars.push_back(ctx.bvVar(names1.reg(r)));
        block_vars.push_back(ctx.bvVar(names2.reg(r)));
    }

    std::vector<std::unique_ptr<smt::SmtSolver>> solvers(pairs.size());
    std::vector<bool> dead(pairs.size(), false);
    std::vector<expr::Expr> formulas(pairs.size(), nullptr);
    auto formula_for = [&](std::size_t idx) {
        if (!formulas[idx]) {
            Span s(tr, "rel.synth", prog_i);
            formulas[idx] = relation->formulaFor(pairs[idx]);
        }
        return formulas[idx];
    };
    auto solver_for = [&](std::size_t idx) -> smt::SmtSolver & {
        if (!solvers[idx]) {
            Span s(tr, "smt.encode", prog_i);
            solvers[idx] =
                std::make_unique<smt::SmtSolver>(ctx, formulas[idx]);
        }
        return *solvers[idx];
    };

    std::unordered_map<int, std::optional<harness::ProgramInput>>
        training_cache;
    auto training_for = [&](const rel::PathPair &pair)
        -> std::optional<harness::ProgramInput> {
        if (!cfg.train)
            return std::nullopt;
        if (auto hit = training_cache.find(pair.idx1);
            hit != training_cache.end())
            return hit->second;
        Span t(tr, "core.training", prog_i);
        std::optional<harness::ProgramInput> input;
        std::optional<expr::Expr> formula;
        {
            Span s(tr, "rel.training", prog_i);
            formula = rel::RelationSynthesizer::trainingFormula(
                ctx, training_paths, relation->paths1()[pair.idx1],
                rel_cfg);
        }
        if (formula) {
            std::optional<smt::SmtSolver> solver;
            {
                Span s(tr, "smt.encode", prog_i);
                solver.emplace(ctx, *formula);
            }
            smt::Outcome outcome = smt::Outcome::Unknown;
            {
                Span s(tr, "smt.search", prog_i);
                outcome = solver->solve(cfg.conflictBudget);
            }
            ++counts.smtQueries;
            if (outcome == smt::Outcome::Sat) {
                Span s(tr, "smt.model", prog_i);
                input = harness::inputFromAssignment(solver->model(), "_t");
            }
        }
        training_cache.emplace(pair.idx1, input);
        return input;
    };

    std::size_t rr = 0;
    for (int test_i = 0; test_i < cfg.testsPerProgram; ++test_i) {
        std::size_t probe = 0;
        while (probe < pairs.size() && dead[rr % pairs.size()]) {
            ++rr;
            ++probe;
        }
        if (probe == pairs.size())
            break;
        const std::size_t pair_idx = rr % pairs.size();
        ++rr;
        const rel::PathPair &pair = pairs[pair_idx];
        const expr::Expr pair_formula = formula_for(pair_idx);

        std::optional<expr::Assignment> model;
        int line_cls1 = -1, line_cls2 = -1;
        const std::int64_t budget = cfg.conflictBudget;
        smt::Outcome outcome = smt::Outcome::Unsat;
        bool retire_pair = false;
        if (cfg.coverage == core::Coverage::PcAndLine) {
            for (int redraw = 0; redraw < cfg.coverageRetries &&
                                 outcome != smt::Outcome::Sat;
                 ++redraw) {
                std::optional<rel::LineCoverageDraw> cov;
                {
                    Span s(tr, "rel.coverage", prog_i);
                    cov = relation->lineCoverageConstraint(pair, rng);
                }
                smt::SmtSolver &solver = solver_for(pair_idx);
                if (cov) {
                    line_cls1 = cov->class1;
                    line_cls2 = cov->class2;
                    {
                        Span s(tr, "smt.encode", prog_i);
                        solver.prepareTemporary(cov->constraint);
                    }
                    Span s(tr, "smt.search", prog_i);
                    outcome = solver.solveWith(cov->constraint, budget);
                } else {
                    Span s(tr, "smt.search", prog_i);
                    outcome = solver.solve(budget);
                }
                ++counts.smtQueries;
                if (!cov)
                    break;
            }
        } else {
            smt::SmtSolver &solver = solver_for(pair_idx);
            Span s(tr, "smt.search", prog_i);
            outcome = solver.solve(budget);
            ++counts.smtQueries;
        }
        if (outcome == smt::Outcome::Sat) {
            smt::SmtSolver &solver = *solvers[pair_idx];
            {
                Span s(tr, "smt.model", prog_i);
                model = solver.model();
            }
            Span s(tr, "smt.encode", prog_i);
            if (!solver.blockCurrentModel(block_vars, cfg.blockingBits))
                dead[pair_idx] = true;
        } else if (cfg.coverage != core::Coverage::PcAndLine ||
                   outcome == smt::Outcome::Unknown) {
            retire_pair = true;
        }
        if (!model && retire_pair)
            dead[pair_idx] = true;
        if (model) {
            Span s(tr, "core.symmetrize", prog_i);
            core::symmetrizeModel(pair_formula, program, *model, rng,
                                  cfg.similarityBias);
        }
        if (!model) {
            reg.counter("pipeline.generation_failures").inc();
            continue;
        }

        harness::TestCase tc;
        tc.s1 = harness::inputFromAssignment(*model, "_1");
        tc.s2 = harness::inputFromAssignment(*model, "_2");
        const auto training = training_for(pair);

        harness::ExperimentResult result;
        {
            Span s(tr, "harness.experiment", prog_i);
            result = platform.runExperiment(program, tc, training);
        }
        ++counts.experiments;
        reg.counter("pipeline.experiments").inc();
        if (result.flakedReps > 0)
            reg.counter("pipeline.degraded").inc();
        if (cfg.database) {
            core::ExperimentRecord record;
            record.programName = program.name();
            record.programText = program.toString();
            record.pathId = relation->paths1()[pair.idx1].pathId();
            record.testCase = tc;
            record.trained = training.has_value();
            record.lineClass1 = line_cls1;
            record.lineClass2 = line_cls2;
            record.verdict = result.verdict;
            record.differingReps = result.differingReps;
            record.totalReps = result.totalReps;
            out.records.push_back(std::move(record));
        }
        if (result.verdict == harness::Verdict::Counterexample) {
            reg.counter("pipeline.counterexamples").inc();
            out.hasCex = true;
            if (out.firstCexOffsetSeconds < 0)
                out.firstCexOffsetSeconds = wallNow() - task_t0;
        } else if (result.verdict == harness::Verdict::Inconclusive) {
            reg.counter("pipeline.inconclusive").inc();
        }
    }
    finish();
    return out;
}

/** The program tasks of a uniform campaign, as the pipeline builds them. */
std::vector<core::ProgramTask>
campaignTasks(const core::PipelineConfig &cfg)
{
    std::vector<core::ProgramTask> tasks;
    std::vector<gen::TemplateKind> templates = cfg.templateKinds;
    if (templates.empty())
        templates.push_back(cfg.templateKind);
    const std::size_t units = cfg.corpus && !cfg.corpus->empty()
                                  ? cfg.corpus->size()
                                  : templates.size();
    for (int i = 0; i < cfg.programs; ++i) {
        core::ProgramTask task;
        task.prog_i = i;
        const std::size_t u = static_cast<std::size_t>(i) % units;
        if (cfg.corpus && !cfg.corpus->empty())
            task.corpusIndex = static_cast<int>(u);
        else
            task.templ = templates[u];
        tasks.push_back(task);
    }
    return tasks;
}

/** Phase histogram sums (seconds) of an untraced campaign. */
std::string
phaseJson(const metrics::Snapshot &snap)
{
    Json j;
    for (const auto &[name, h] : snap.histograms)
        if (name.rfind("phase.", 0) == 0)
            j.num(name, h.sum);
    return j.render();
}

/** Layer counters of a campaign snapshot, for the per-layer split. */
std::string
countersJson(const metrics::Snapshot &snap)
{
    Json j;
    for (const char *name :
         {"pipeline.programs", "pipeline.experiments", "smt.queries",
          "smt.sat", "smt.unsat", "smt.unknown", "sat.solve_calls",
          "sat.decisions", "sat.conflicts", "sat.propagations",
          "hw.runs", "hw.cycles", "triage.screened",
          "platform.training_runs", "platform.repetitions"})
        j.num(name, static_cast<std::int64_t>(counterOf(snap, name)));
    return j.render();
}

std::string
repJson(double wall, double cpu, const Tally &t)
{
    return Json()
        .num("wall_s", wall)
        .num("cpu_s", cpu)
        .num("programs", static_cast<std::int64_t>(t.programs))
        .num("programs_with_cex",
             static_cast<std::int64_t>(t.programsWithCex))
        .num("experiments", t.experiments)
        .num("counterexamples", t.counterexamples)
        .num("failed_programs",
             static_cast<std::int64_t>(t.failedPrograms + t.quarantined))
        .render();
}

/** Paper-shape checks on one tally of `workload`. */
void
shapeChecks(const std::string &workload, const Tally &t,
            const core::ExperimentDb &db, Checks &checks)
{
    checks.record("shape.counterexamples_found", t.counterexamples > 0,
                  workload + ": " + t.describe());
    if (workload != "corpus_kernels")
        return;
    std::int64_t ct_rows = 0;
    for (const core::ExperimentRecord &r : db.all())
        ct_rows += r.programName.rfind("ct_select#", 0) == 0 ? 1 : 0;
    checks.record("shape.ct_select_silent", ct_rows == 0,
                  "ct_select experiments: " + std::to_string(ct_rows));
}

} // namespace

int
runCampaignWorkload(const Options &opts)
{
    Checks checks;
    std::filesystem::create_directories(opts.work);
    const std::string csv = opts.work + "/db.csv";

    // Setup, several times: env resolution, (corpus) compiling the SC
    // kernels, and starting the campaign's worker pool.  Stopping the
    // pool is not timed: joining waits on the scheduler, not on this
    // program.  The median is the reported setup_s.
    std::vector<double> setup;
    core::PipelineConfig cfg;
    for (int k = 0; k < kSetups; ++k) {
        const double t0 = wallNow();
        cfg = core::resolveCampaignEnv(
            buildConfig(opts.workload, opts.seed, opts.root));
        ThreadPool pool(static_cast<unsigned>(cfg.threads));
        setup.push_back(wallNow() - t0);
    }
    if (cfg.corpus && cfg.corpus->size() != 5) {
        std::fprintf(stderr, "perfbench: expected 5 corpus kernels, "
                             "found %zu\n",
                     cfg.corpus->size());
        return 2;
    }

    // Reference: the same campaign on one thread (invariant 2).  It
    // is also the process's warm-up campaign: the first campaign of a
    // process runs slower (page faults, allocator growth) and is
    // never timed.
    Tally ref;
    {
        core::PipelineConfig one = cfg;
        one.threads = 1;
        core::ExperimentDb db;
        one.database = &db;
        ref = tallyOf(core::Pipeline(one).run(), db, csv);
        shapeChecks(opts.workload, ref, db, checks);
    }

    std::int64_t attempted = 0, failed = 0;
    auto run_rep = [&](double &wall, double &cpu,
                       metrics::Snapshot *snap) {
        core::PipelineConfig c = cfg;
        core::ExperimentDb db;
        c.database = &db;
        const double w0 = wallNow(), c0 = cpuNow();
        core::RunStats stats = core::Pipeline(c).run();
        wall = wallNow() - w0;
        cpu = cpuNow() - c0;
        const Tally t = tallyOf(stats, db, csv);
        checks.record("invariant2.threads_vs_reference", t == ref,
                      "rep " + t.describe() + " vs reference " +
                          ref.describe());
        attempted += t.programs;
        failed += t.failedPrograms + t.quarantined;
        if (snap)
            *snap = std::move(stats.metrics);
        return t;
    };

    const double budget = opts.trace ? opts.seconds / 2 : opts.seconds;
    std::vector<std::string> reps;
    std::vector<double> walls;
    std::string phases, counters;
    const double start = wallNow();
    while (reps.empty() || wallNow() - start < budget) {
        double w = 0, c = 0;
        metrics::Snapshot snap;
        const Tally t = run_rep(w, c, &snap);
        reps.push_back(repJson(w, c, t));
        walls.push_back(w);
        phases = phaseJson(snap);
        counters = countersJson(snap);
    }
    const double rss = peakRssMb();

    Json out;
    out.str("workload", opts.workload)
        .num("seed", static_cast<std::int64_t>(opts.seed))
        .num("threads", static_cast<std::int64_t>(cfg.threads))
        .num("programs_per_rep", static_cast<std::int64_t>(cfg.programs))
        .num("tests_per_program",
             static_cast<std::int64_t>(cfg.testsPerProgram))
        .raw("build", buildJson())
        .raw("setup_s", jsonNumbers(setup))
        .raw("reps", jsonArray(reps))
        .num("peak_rss_mb", rss);

    if (opts.trace) {
        // Traced repetitions of the same campaign through the
        // driver's own calls into each layer.
        Tracer tr;
        const bool exact = replicaExact(cfg);
        std::vector<double> traced_walls;
        std::vector<std::string> traced_counters;
        bool replica_matches = true;
        std::string mismatch;
        int rep = 0;
        const double tstart = wallNow();
        while (rep == 0 || wallNow() - tstart < opts.seconds / 2) {
            tr.setRep(rep);
            if (cfg.corpus) {
                // The frontend runs during setup only; trace one
                // compile of the corpus per repetition.
                Span s(tr, "front.compile", -1);
                front::CompileOptions fopts;
                fopts.arrayBase = cfg.region.base;
                fopts.arrayLimit = cfg.region.base + cfg.region.size;
                const auto kernels = front::loadCorpusDir(
                    opts.root + "/examples/corpus", fopts);
                if (kernels.size() != cfg.corpus->size())
                    replica_matches = false;
            }
            core::PipelineConfig c = cfg;
            core::ExperimentDb db;
            c.database = &db;
            DriverCounts counts;
            const std::vector<core::ProgramTask> tasks = campaignTasks(c);
            std::vector<core::ProgramOutcome> slots(tasks.size());
            const double w0 = wallNow();
            core::RunStats stats;
            {
                Span root(tr, "campaign", -1);
                const std::uint64_t root_id = root.id();
                {
                    ThreadPool pool(static_cast<unsigned>(c.threads));
                    for (const core::ProgramTask &task : tasks)
                        pool.submit([&, task, root_id] {
                            slots[static_cast<std::size_t>(task.prog_i)] =
                                tracedProgram(c, task, tr, root_id,
                                              counts);
                        });
                    pool.wait();
                }
                Span s(tr, "core.merge", -1);
                stats = core::mergeCampaignOutcomes(c, slots);
            }
            traced_walls.push_back(wallNow() - w0);
            const Tally t = tallyOf(stats, db, csv);
            if (!(t == ref)) {
                replica_matches = false;
                mismatch = "traced " + t.describe() + " vs reference " +
                           ref.describe();
            }
            traced_counters.push_back(
                Json()
                    .raw("registry", countersJson(stats.metrics))
                    .num("driver.experiments", counts.experiments.load())
                    .num("driver.smt_queries", counts.smtQueries.load())
                    .num("driver.stmts", counts.stmts.load())
                    .num("driver.paths", counts.paths.load())
                    .num("driver.pairs", counts.pairs.load())
                    .render());
            ++rep;
        }
        if (!tr.write(opts.spans)) {
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         opts.spans.c_str());
            return 2;
        }
        out.raw("trace",
                Json()
                    .boolean("replica_exact", exact && replica_matches)
                    .str("replica_mismatch", mismatch)
                    .raw("untraced_wall_s", jsonNumbers(walls))
                    .raw("traced_wall_s", jsonNumbers(traced_walls))
                    .raw("untraced_counters", counters)
                    .raw("untraced_phase_s", phases)
                    .raw("traced_reps", jsonArray(traced_counters))
                    .num("front_kernels",
                         static_cast<std::int64_t>(
                             cfg.corpus ? cfg.corpus->size() : 0))
                    .str("spans", opts.spans)
                    .render());
    }

    attempted += checks.total();
    failed += checks.failedCount();
    out.num("attempted", attempted)
        .num("failed", failed)
        .raw("checks", checks.json());
    std::FILE *f = std::fopen(opts.out.c_str(), "w");
    if (!f)
        return 2;
    std::fputs(out.render().c_str(), f);
    std::fputc('\n', f);
    return std::fclose(f) == 0 ? 0 : 2;
}

} // namespace perfbench
