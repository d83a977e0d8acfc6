#include "harness/platform.hh"

#include "support/faults.hh"
#include "support/logging.hh"
#include "support/metrics.hh"

namespace scamv::harness {

ProgramInput
inputFromAssignment(const expr::Assignment &a, const std::string &suffix)
{
    ProgramInput input;
    for (int r = 0; r < bir::kNumRegs; ++r) {
        auto it = a.bvVars.find("x" + std::to_string(r) + suffix);
        input.regs.regs[r] = it == a.bvVars.end() ? 0 : it->second;
    }
    auto mit = a.mems.find("mem" + suffix);
    if (mit != a.mems.end())
        for (const auto &[addr, val] : mit->second.entries())
            input.mem.emplace_back(addr, val);
    return input;
}

Platform::Platform(const PlatformConfig &config, std::uint64_t noise_seed)
    : cfg(config), noiseRng(noise_seed)
{}

void
Platform::prepare(hw::Core &core, const bir::Program &program,
                  const ProgramInput &input)
{
    (void)program;
    // The platform module clears the cache (and thereby the stride
    // detector) before every execution and installs the test case's
    // initial memory words.
    core.cache().reset();
    core.tlb().reset();
    core.prefetcher().reset();
    core.memory().clear();
    for (const auto &[addr, val] : input.mem)
        core.memory().store(addr, val);
}

Platform::Measurement
Platform::measure(hw::Core &core, const bir::Program &program,
                  const ProgramInput &input)
{
    prepare(core, program, input);

    const int shift = cfg.core.geom.lineShift();
    const std::uint64_t set_bits = cfg.core.geom.setShift();
    const std::uint64_t sets = cfg.core.geom.numSets;

    if (cfg.channel == Channel::PrimeProbe) {
        // Prime: fill every visible set with the attacker's lines.
        for (std::uint64_t set = cfg.visibleLoSet;
             set <= cfg.visibleHiSet; ++set) {
            for (std::uint64_t way = 0; way < cfg.core.geom.ways;
                 ++way) {
                const std::uint64_t addr =
                    cfg.attackerArrayBase +
                    way * (sets << shift) + (set << shift);
                core.cache().access(addr);
            }
        }
    }

    core.run(program, input.regs, runScratch);

    // System interference: a stray access to a random line.
    if (cfg.noiseProbability > 0.0 &&
        noiseRng.chance(cfg.noiseProbability)) {
        metrics::current().counter("platform.noise_injections").inc();
        const std::uint64_t set =
            cfg.visibleLoSet +
            noiseRng.below(cfg.visibleHiSet - cfg.visibleLoSet + 1);
        const std::uint64_t tag = 0x7fffULL + noiseRng.below(16);
        const std::uint64_t addr =
            (tag << (shift + set_bits)) | (set << shift);
        core.cache().access(addr);
    }

    // Injected measurement flake: a stray access indistinguishable
    // from system interference, forced by the fault plan rather than
    // drawn from the noise probability.
    if (faults::maybeInject(faults::Site::HwFlake)) {
        const std::uint64_t set =
            cfg.visibleLoSet +
            noiseRng.below(cfg.visibleHiSet - cfg.visibleLoSet + 1);
        const std::uint64_t tag = 0x6eefULL + noiseRng.below(16);
        const std::uint64_t addr =
            (tag << (shift + set_bits)) | (set << shift);
        core.cache().access(addr);
    }

    Measurement m;
    if (cfg.channel == Channel::TlbSnapshot) {
        m.tlb = core.tlb().snapshot();
    } else if (cfg.channel == Channel::PrimeProbe) {
        // Probe: time a reload of every primed line (PMC cycles).
        // Victim activity in a set evicted attacker ways, turning
        // probe hits into misses.
        m.probeLatencies.reserve(cfg.visibleHiSet - cfg.visibleLoSet +
                                 1);
        for (std::uint64_t set = cfg.visibleLoSet;
             set <= cfg.visibleHiSet; ++set) {
            // Probe in reverse prime order: refreshing the most-
            // recently primed way first avoids evicting the ways
            // still to be probed (the standard anti-thrashing trick).
            std::uint64_t total = 0;
            for (std::uint64_t way = cfg.core.geom.ways; way > 0;
                 --way) {
                const std::uint64_t addr =
                    cfg.attackerArrayBase +
                    (way - 1) * (sets << shift) + (set << shift);
                total += core.timedLoad(addr);
            }
            m.probeLatencies.push_back(total);
        }
    } else {
        m.cache = core.cache().snapshot(cfg.visibleLoSet,
                                        cfg.visibleHiSet);
    }
    return m;
}

ExperimentResult
Platform::runExperiment(const bir::Program &program, const TestCase &tc,
                        const std::optional<ProgramInput> &training)
{
    SCAMV_ASSERT(cfg.repeats > 0, "repeats must be positive");
    metrics::Registry &reg = metrics::current();
    reg.counter("platform.experiments").inc();
    reg.counter("platform.repetitions")
        .add(static_cast<std::uint64_t>(cfg.repeats));
    reg.counter("platform.training_runs")
        .add(static_cast<std::uint64_t>(cfg.repeats) *
             static_cast<std::uint64_t>(cfg.trainingRuns));
    ExperimentResult result;
    result.totalReps = cfg.repeats;
    int clean_differing = 0;

    // Batched path: one arena-backed core for all repetitions, reset
    // in place per repetition.  The rebuild order (destroy the old
    // core, rewind the arena, reconstruct) keeps arena usage bounded
    // by one core's footprint; the arena keeps its blocks, so
    // steady-state experiments allocate nothing.
    std::optional<hw::Core> local;
    if (cfg.simBatch) {
        batchCore.reset();
        simArena.reset();
        batchCore =
            std::make_unique<hw::Core>(cfg.core, cfg.boardSeed, &simArena);
    }

    for (int rep = 0; rep < cfg.repeats; ++rep) {
        const std::uint64_t faults_before = faults::injectedCount();
        hw::Core *core_p;
        if (cfg.simBatch) {
            batchCore->resetMicroarch();
            core_p = batchCore.get();
        } else {
            local.emplace(cfg.core, cfg.boardSeed);
            local->predictor().reset();
            core_p = &*local;
        }
        hw::Core &core = *core_p;

        // Branch-predictor conditioning.  With a mistraining input
        // (Section 5.3) the PHT is driven toward the *other* path so
        // the measured runs mispredict.  Without one, the predictor is
        // warmed with s1 itself so both measured runs are predicted
        // correctly: the paper does not test the asymmetric case where
        // only one of the two executions mispredicts.
        const ProgramInput &warmup = training ? *training : tc.s1;
        for (int t = 0; t < cfg.trainingRuns; ++t) {
            core.cache().reset();
            core.prefetcher().reset();
            core.memory().clear();
            for (const auto &[addr, val] : warmup.mem)
                core.memory().store(addr, val);
            core.run(program, warmup.regs, runScratch);
        }

        const Measurement m1 = measure(core, program, tc.s1);
        const Measurement m2 = measure(core, program, tc.s2);
        const bool flaked = faults::injectedCount() != faults_before;
        if (flaked)
            ++result.flakedReps;
        if (!(m1 == m2)) {
            ++result.differingReps;
            if (!flaked)
                ++clean_differing;
        }
    }

    if (result.flakedReps == 0) {
        if (result.differingReps == 0)
            result.verdict = Verdict::Indistinguishable;
        else if (result.differingReps == result.totalReps)
            result.verdict = Verdict::Counterexample;
        else
            result.verdict = Verdict::Inconclusive;
    } else {
        // Flaked repetitions carry injected measurement noise, so they
        // can never certify agreement: the experiment is at best
        // inconclusive, and remains a counterexample only when every
        // clean repetition still distinguishes the two states.
        const int clean = result.totalReps - result.flakedReps;
        if (clean > 0 && clean_differing == clean)
            result.verdict = Verdict::Counterexample;
        else
            result.verdict = Verdict::Inconclusive;
    }
    return result;
}

hw::CacheState
Platform::measureOnce(const bir::Program &program,
                      const ProgramInput &input)
{
    hw::Core core(cfg.core, cfg.boardSeed);
    return measure(core, program, input).cache;
}

std::vector<std::uint64_t>
Platform::probeOnce(const bir::Program &program,
                    const ProgramInput &input)
{
    SCAMV_ASSERT(cfg.channel == Channel::PrimeProbe,
                 "probeOnce requires the PrimeProbe channel");
    hw::Core core(cfg.core, cfg.boardSeed);
    return measure(core, program, input).probeLatencies;
}

} // namespace scamv::harness
