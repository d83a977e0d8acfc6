/** @file Unit tests for the experiment platform and Flush+Reload. */

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>

#include "bir/asm.hh"
#include "harness/flush_reload.hh"
#include "harness/platform.hh"
#include "support/metrics.hh"

namespace scamv::harness {
namespace {

bir::Program
prog(const char *src)
{
    auto r = bir::assemble(src);
    EXPECT_TRUE(r.ok()) << r.error;
    return r.program;
}

ProgramInput
input(std::initializer_list<std::pair<int, std::uint64_t>> regs,
      MemInit mem = {})
{
    ProgramInput in;
    for (auto [r, v] : regs)
        in.regs.regs[r] = v;
    in.mem = std::move(mem);
    return in;
}

TEST(Platform, IdenticalStatesIndistinguishable)
{
    Platform platform(PlatformConfig{});
    auto p = prog("ldr x1, [x0]\nret\n");
    TestCase tc;
    tc.s1 = input({{0, 0x80000}});
    tc.s2 = input({{0, 0x80000}});
    auto r = platform.runExperiment(p, tc);
    EXPECT_EQ(r.verdict, Verdict::Indistinguishable);
    EXPECT_EQ(r.differingReps, 0);
    EXPECT_EQ(r.totalReps, 10);
}

TEST(Platform, DifferentLinesDistinguishable)
{
    Platform platform(PlatformConfig{});
    auto p = prog("ldr x1, [x0]\nret\n");
    TestCase tc;
    tc.s1 = input({{0, 0x80000}});
    tc.s2 = input({{0, 0x80000 + 64}});
    auto r = platform.runExperiment(p, tc);
    EXPECT_EQ(r.verdict, Verdict::Counterexample);
    EXPECT_EQ(r.differingReps, r.totalReps);
}

TEST(Platform, VisibleRangeRestrictsObservation)
{
    PlatformConfig cfg;
    cfg.visibleLoSet = 61;
    cfg.visibleHiSet = 127;
    Platform platform(cfg);
    auto p = prog("ldr x1, [x0]\nret\n");
    TestCase tc;
    // Both addresses map to sets < 61: invisible to the attacker.
    tc.s1 = input({{0, 0x80000}});
    tc.s2 = input({{0, 0x80000 + 10 * 64}});
    EXPECT_EQ(platform.runExperiment(p, tc).verdict,
              Verdict::Indistinguishable);
    // Addresses in the visible range are distinguishable.
    tc.s1 = input({{0, 0x80000 + 70 * 64}});
    tc.s2 = input({{0, 0x80000 + 80 * 64}});
    EXPECT_EQ(platform.runExperiment(p, tc).verdict,
              Verdict::Counterexample);
}

TEST(Platform, MemoryInitializationApplied)
{
    Platform platform(PlatformConfig{});
    // Pointer chase: the loaded value is the next address.
    auto p = prog("ldr x1, [x0]\nldr x2, [x1]\nret\n");
    TestCase tc;
    tc.s1 = input({{0, 0x80000}}, {{0x80000, 0x90000}});
    tc.s2 = input({{0, 0x80000}}, {{0x80000, 0xa0000}});
    EXPECT_EQ(platform.runExperiment(p, tc).verdict,
              Verdict::Counterexample);
    // Same pointer: indistinguishable.
    tc.s2 = input({{0, 0x80000}}, {{0x80000, 0x90000}});
    EXPECT_EQ(platform.runExperiment(p, tc).verdict,
              Verdict::Indistinguishable);
}

TEST(Platform, PrefetchSpillDetectedAcrossColourBoundary)
{
    // The Mpart counterexample end-to-end: strides outside AR whose
    // prefetch lands inside AR for s1 but not for s2.
    PlatformConfig cfg;
    cfg.visibleLoSet = 61;
    cfg.visibleHiSet = 127;
    Platform platform(cfg);
    auto p = prog("ldr x1, [x0]\n"
                  "ldr x2, [x0, #64]\n"
                  "ldr x3, [x0, #128]\n"
                  "ret\n");
    TestCase tc;
    // s1 strides sets 58,59,60 -> prefetch 61 (visible!).
    tc.s1 = input({{0, 0x80000 + 58 * 64}});
    // s2 strides sets 10,11,12 -> prefetch 13 (invisible).
    tc.s2 = input({{0, 0x80000 + 10 * 64}});
    EXPECT_EQ(platform.runExperiment(p, tc).verdict,
              Verdict::Counterexample);
}

TEST(Platform, TrainingEnablesSpeculativeDistinction)
{
    // SiSCloak end-to-end: architecturally equivalent states that
    // differ only in the speculatively accessed address.
    Platform platform(PlatformConfig{});
    auto p = prog("ldr x2, [x0, x1]\n"
                  "b.ne x1, x4, end\n"
                  "ldr x6, [x5, x2]\n"
                  "end: ret\n");
    TestCase tc;
    // Branch taken in both states (x1 != x4): body only speculated.
    // mem[x0+x1] differs: transient load address differs.
    tc.s1 = input({{0, 0x80000}, {1, 8}, {4, 99}, {5, 0}},
                  {{0x80008, 0x90000}});
    tc.s2 = input({{0, 0x80000}, {1, 8}, {4, 99}, {5, 0}},
                  {{0x80008, 0xa0000}});
    // Training input takes the fall-through (x1 == x4).
    ProgramInput train = input({{0, 0x80000}, {1, 8}, {4, 8}, {5, 0}},
                               {{0x80008, 0x88000}});
    auto with_training = platform.runExperiment(p, tc, train);
    EXPECT_EQ(with_training.verdict, Verdict::Counterexample);
    // Without training the branch is predicted correctly (not-taken
    // initial counters never predict taken) — no transient leak.
    auto without = platform.runExperiment(p, tc);
    EXPECT_EQ(without.verdict, Verdict::Indistinguishable);
}

TEST(Platform, NoiseProducesInconclusives)
{
    PlatformConfig cfg;
    cfg.noiseProbability = 0.5; // heavy interference
    Platform platform(cfg, 7);
    auto p = prog("ldr x1, [x0]\nret\n");
    TestCase tc;
    tc.s1 = input({{0, 0x80000}});
    tc.s2 = input({{0, 0x80000}});
    int inconclusive = 0;
    for (int i = 0; i < 20; ++i) {
        auto r = platform.runExperiment(p, tc);
        inconclusive += r.verdict == Verdict::Inconclusive;
    }
    EXPECT_GT(inconclusive, 0);
}

TEST(Platform, NoNoiseNoInconclusives)
{
    Platform platform(PlatformConfig{});
    auto p = prog("ldr x1, [x0]\nret\n");
    TestCase tc;
    tc.s1 = input({{0, 0x80000}});
    tc.s2 = input({{0, 0x81000}});
    for (int i = 0; i < 5; ++i)
        EXPECT_NE(platform.runExperiment(p, tc).verdict,
                  Verdict::Inconclusive);
}

/**
 * The counters one runExperiment must report, replayed run by run on
 * a bare core: the platform's protocol with every run's RunResult
 * (and its cache hit/miss delta) summed into the hw.* counters.
 */
std::map<std::string, std::uint64_t>
replayCounters(const PlatformConfig &cfg, const bir::Program &p,
               const TestCase &tc,
               const std::optional<ProgramInput> &training)
{
    std::map<std::string, std::uint64_t> sum = {
        {"platform.experiments", 1},
        {"platform.repetitions", cfg.repeats},
        {"platform.training_runs", cfg.repeats * cfg.trainingRuns}};
    hw::Core core(cfg.core, cfg.boardSeed);
    const obs::CacheGeometry &g = cfg.core.geom;
    const bool prime_probe = cfg.channel == Channel::PrimeProbe;
    auto primed = [&](std::uint64_t set, std::uint64_t way) {
        return cfg.attackerArrayBase + (way * g.numSets + set) * g.lineBytes;
    };
    auto run_once = [&](const ProgramInput &in, bool measured) {
        core.cache().reset();
        if (measured)
            core.tlb().reset();
        core.prefetcher().reset();
        core.memory().clear();
        for (const auto &[addr, val] : in.mem)
            core.memory().store(addr, val);
        for (std::uint64_t set = cfg.visibleLoSet;
             measured && prime_probe && set <= cfg.visibleHiSet; ++set)
            for (std::uint64_t way = 0; way < g.ways; ++way)
                core.cache().access(primed(set, way));
        const std::uint64_t hits0 = core.cache().hits();
        const std::uint64_t misses0 = core.cache().misses();
        const hw::RunResult r = core.run(p, in.regs);
        sum["hw.runs"] += 1;
        sum["hw.instructions"] += r.instructions;
        sum["hw.cycles"] += r.cycles;
        sum["hw.cache.hits"] += core.cache().hits() - hits0;
        sum["hw.cache.misses"] += core.cache().misses() - misses0;
        sum["hw.prefetch.issued"] += r.prefetches;
        sum["hw.branch.mispredicts"] += r.mispredicts;
        sum["hw.tlb.misses"] += r.tlbMisses;
        sum["hw.transient_loads.issued"] += r.transientLoadsIssued;
        sum["hw.transient_loads.blocked"] += r.transientLoadsBlocked;
        for (std::uint64_t set = cfg.visibleLoSet;
             measured && prime_probe && set <= cfg.visibleHiSet; ++set)
            for (std::uint64_t way = g.ways; way > 0; --way)
                ++sum[core.timedLoad(primed(set, way - 1)) ==
                              cfg.core.hitLatency
                          ? "hw.probe.hits"
                          : "hw.probe.misses"];
    };
    for (int rep = 0; rep < cfg.repeats; ++rep) {
        core.resetMicroarch();
        for (int t = 0; t < cfg.trainingRuns; ++t)
            run_once(training ? *training : tc.s1, false);
        run_once(tc.s1, true);
        run_once(tc.s2, true);
    }
    return sum;
}

TEST(Platform, CounterFlushEqualsPerRunSums)
{
    // The platform reports its core's hw.* counters once per
    // experiment; the totals must be the per-run sums, and the names
    // exactly those a per-run report creates: hw.probe.* only under
    // Prime+Probe.  A stride prefix trains the prefetcher and the
    // SiSCloak gadget mispredicts and loads transiently.
    auto p = prog("ldr x2, [x0, x1]\n"
                  "ldr x7, [x0, #64]\n"
                  "ldr x8, [x0, #128]\n"
                  "b.ne x1, x4, end\n"
                  "ldr x6, [x5, x2]\n"
                  "end: ret\n");
    TestCase tc;
    tc.s1 = input({{0, 0x80000}, {4, 99}}, {{0x80000, 0x90000}});
    tc.s2 = input({{0, 0x80000}, {4, 99}}, {{0x80000, 0xa1040}});
    const ProgramInput train = input({{0, 0x80000}}, {{0x80000, 0x88000}});
    for (const Channel channel :
         {Channel::TrustZoneSnapshot, Channel::PrimeProbe,
          Channel::TlbSnapshot}) {
        PlatformConfig cfg;
        cfg.channel = channel;
        Platform platform(cfg);
        for (const std::optional<ProgramInput> &training :
             {std::optional<ProgramInput>{train},
              std::optional<ProgramInput>{}}) {
            metrics::Registry reg(metrics::ClockMode::Deterministic);
            {
                metrics::ScopedRegistry scope(reg);
                platform.runExperiment(p, tc, training);
            }
            const auto got = reg.snapshot().counters;
            EXPECT_EQ(got, replayCounters(cfg, p, tc, training))
                << "channel " << static_cast<int>(channel);
            const bool pp = channel == Channel::PrimeProbe;
            EXPECT_EQ(got.count("hw.probe.hits"), pp ? 1u : 0u);
            EXPECT_EQ(got.count("hw.probe.misses"), pp ? 1u : 0u);
            if (training) {
                EXPECT_GT(got.at("hw.transient_loads.issued"), 0u);
                EXPECT_GT(got.at("hw.prefetch.issued"), 0u);
            }
        }
    }
}

TEST(Platform, ProbeOnceFlushesItsCounters)
{
    PlatformConfig cfg;
    cfg.channel = Channel::PrimeProbe;
    Platform platform(cfg);
    auto p = prog("ldr x1, [x0]\nret\n");
    metrics::Registry reg(metrics::ClockMode::Deterministic);
    std::vector<std::uint64_t> lat;
    {
        metrics::ScopedRegistry scope(reg);
        lat = platform.probeOnce(p, input({{0, 0x80000}}));
    }
    const auto got = reg.snapshot().counters;
    // One victim line evicts one primed way of one set.
    const std::uint64_t probes = 128 * cfg.core.geom.ways;
    EXPECT_EQ(got.at("hw.runs"), 1u);
    EXPECT_EQ(got.at("hw.probe.misses"), 1u);
    EXPECT_EQ(got.at("hw.probe.hits"), probes - 1);
    std::uint64_t total = 0;
    for (std::uint64_t l : lat)
        total += l;
    EXPECT_EQ(total, (probes - 1) * cfg.core.hitLatency +
                         cfg.core.missLatency);
}

TEST(Platform, InputFromAssignmentExtractsState)
{
    expr::Assignment a;
    a.bvVars["x0_1"] = 123;
    a.bvVars["x5_1"] = 456;
    a.bvVars["x0_2"] = 789; // other state, ignored for suffix _1
    a.mems["mem_1"].storeWord(0x1000, 42);
    auto in = inputFromAssignment(a, "_1");
    EXPECT_EQ(in.regs.regs[0], 123u);
    EXPECT_EQ(in.regs.regs[5], 456u);
    EXPECT_EQ(in.regs.regs[7], 0u);
    ASSERT_EQ(in.mem.size(), 1u);
    EXPECT_EQ(in.mem[0].first, 0x1000u);
    EXPECT_EQ(in.mem[0].second, 42u);
}

TEST(FlushReload, RecoversVictimAccess)
{
    hw::Core core;
    const std::uint64_t array_b = 0x90000;
    FlushReloadAttacker attacker(array_b, 16);
    attacker.flush(core);
    // Victim touches line 5 of the monitored array.
    core.cache().access(array_b + 5 * 64);
    auto hot = attacker.hotLines(core);
    ASSERT_EQ(hot.size(), 1u);
    EXPECT_EQ(hot[0], 5);
}

TEST(FlushReload, NoAccessNoHotLines)
{
    hw::Core core;
    FlushReloadAttacker attacker(0x90000, 8);
    attacker.flush(core);
    EXPECT_TRUE(attacker.hotLines(core).empty());
}

TEST(FlushReload, ReloadLatenciesSplitAroundThreshold)
{
    hw::Core core;
    FlushReloadAttacker attacker(0x90000, 4);
    attacker.flush(core);
    core.cache().access(0x90000);
    auto lat = attacker.reload(core);
    ASSERT_EQ(lat.size(), 4u);
    EXPECT_EQ(lat[0], core.config().hitLatency);
    for (int i = 1; i < 4; ++i)
        EXPECT_EQ(lat[i], core.config().missLatency);
}

} // namespace
} // namespace scamv::harness
