/** @file Unit tests for the Cortex-A53-like core model. */

#include <gtest/gtest.h>

#include <map>
#include <utility>

#include "bir/asm.hh"
#include "gen/templates.hh"
#include "harness/platform.hh"
#include "hw/core.hh"
#include "support/metrics.hh"
#include "support/rng.hh"

namespace scamv::hw {
namespace {

bir::Program
prog(const char *src)
{
    auto r = bir::assemble(src);
    EXPECT_TRUE(r.ok()) << r.error;
    return r.program;
}

ArchState
state(std::initializer_list<std::pair<int, std::uint64_t>> regs)
{
    ArchState s;
    for (auto [r, v] : regs)
        s.regs[r] = v;
    return s;
}

TEST(Core, AluAndMovSemantics)
{
    Core core;
    auto r = core.run(prog("mov x1, #6\n"
                           "mov x2, #7\n"
                           "mul x3, x1, x2\n"
                           "add x4, x3, #1\n"
                           "sub x5, x4, x1\n"
                           "eor x6, x5, x5\n"
                           "lsl x7, x1, #4\n"
                           "ret\n"),
                      ArchState{});
    EXPECT_EQ(r.finalState.regs[3], 42u);
    EXPECT_EQ(r.finalState.regs[4], 43u);
    EXPECT_EQ(r.finalState.regs[5], 37u);
    EXPECT_EQ(r.finalState.regs[6], 0u);
    EXPECT_EQ(r.finalState.regs[7], 96u);
    EXPECT_EQ(r.instructions, 8u);
}

TEST(Core, LoadStoreRoundTrip)
{
    Core core;
    auto r = core.run(prog("mov x0, #0x80000\n"
                           "mov x1, #99\n"
                           "str x1, [x0]\n"
                           "ldr x2, [x0]\n"
                           "ret\n"),
                      ArchState{});
    EXPECT_EQ(r.finalState.regs[2], 99u);
    EXPECT_TRUE(core.cache().probe(0x80000));
}

TEST(Core, UnwrittenMemoryIsDeterministicJunk)
{
    Core a(CoreConfig{}, 1), b(CoreConfig{}, 1), c(CoreConfig{}, 2);
    auto p = prog("mov x0, #0x80000\nldr x1, [x0]\nret\n");
    const std::uint64_t v1 = a.run(p, ArchState{}).finalState.regs[1];
    const std::uint64_t v2 = b.run(p, ArchState{}).finalState.regs[1];
    const std::uint64_t v3 = c.run(p, ArchState{}).finalState.regs[1];
    EXPECT_EQ(v1, v2); // same board seed
    EXPECT_NE(v1, v3); // different board
    EXPECT_NE(v1, 0u); // junk, not zero
}

TEST(Core, BranchDirectionsBothWork)
{
    auto p = prog("b.lt x0, x1, end\nmov x2, #1\nend: ret\n");
    Core core;
    auto taken = core.run(p, state({{0, 1}, {1, 5}}));
    EXPECT_EQ(taken.finalState.regs[2], 0u);
    auto not_taken = core.run(p, state({{0, 5}, {1, 1}}));
    EXPECT_EQ(not_taken.finalState.regs[2], 1u);
}

TEST(Core, SignedVsUnsignedBranches)
{
    auto p = prog("b.ltu x0, x1, end\nmov x2, #1\nend: ret\n");
    Core core;
    // -1 unsigned is max: not below 5.
    auto r = core.run(p, state({{0, ~0ULL}, {1, 5}}));
    EXPECT_EQ(r.finalState.regs[2], 1u);
    auto p2 = prog("b.lt x0, x1, end\nmov x2, #1\nend: ret\n");
    auto r2 = core.run(p2, state({{0, ~0ULL}, {1, 5}}));
    EXPECT_EQ(r2.finalState.regs[2], 0u); // signed: -1 < 5, taken
}

TEST(Core, JumpSkipsDeadCode)
{
    Core core;
    auto r = core.run(prog("b end\nmov x1, #1\nend: ret\n"),
                      ArchState{});
    EXPECT_EQ(r.finalState.regs[1], 0u);
}

TEST(Core, CyclesGrowWithMisses)
{
    Core core;
    auto p = prog("mov x0, #0x80000\nldr x1, [x0]\nldr x2, [x0]\nret\n");
    auto r = core.run(p, ArchState{});
    // One miss (150) + one hit (4) + ALU-ish costs.
    EXPECT_GT(r.cycles, core.config().missLatency);
    EXPECT_LT(r.cycles, 2 * core.config().missLatency);
}

TEST(Core, MispredictTriggersTransientExecution)
{
    // Train not-taken, then run taken: the wrong path (fall-through)
    // is executed transiently and its load fills the cache.
    auto p = prog("b.eq x0, x1, end\n"
                  "ldr x2, [x3]\n"
                  "end: ret\n");
    Core core;
    // Train: x0 != x1 -> fall-through (not taken).
    for (int i = 0; i < 4; ++i)
        core.run(p, state({{0, 1}, {1, 2}, {3, 0x90000}}));
    core.cache().reset();
    // Measured run: x0 == x1 -> taken, but predicted not-taken.
    auto r = core.run(p, state({{0, 5}, {1, 5}, {3, 0x90000}}));
    EXPECT_EQ(r.mispredicts, 1u);
    EXPECT_EQ(r.transientLoadsIssued, 1u);
    EXPECT_TRUE(core.cache().probe(0x90000)); // SiSCloak footprint
    // Architectural state untouched by the squashed load.
    EXPECT_EQ(r.finalState.regs[2], 0u);
}

TEST(Core, NoMispredictNoTransientExecution)
{
    auto p = prog("b.eq x0, x1, end\n"
                  "ldr x2, [x3]\n"
                  "end: ret\n");
    Core core;
    // Train taken.
    for (int i = 0; i < 4; ++i)
        core.run(p, state({{0, 5}, {1, 5}, {3, 0x90000}}));
    core.cache().reset();
    auto r = core.run(p, state({{0, 7}, {1, 7}, {3, 0x90000}}));
    EXPECT_EQ(r.mispredicts, 0u);
    EXPECT_EQ(r.transientLoadsIssued, 0u);
    EXPECT_FALSE(core.cache().probe(0x90000));
}

TEST(Core, DependentTransientLoadBlocked)
{
    // The A53 rule (Section 6.4): a transient load whose address
    // depends on a transient result does not issue.
    auto p = prog("b.eq x0, x1, end\n"
                  "ldr x2, [x3]\n"
                  "ldr x4, [x2]\n" // depends on transient x2
                  "end: ret\n");
    Core core;
    for (int i = 0; i < 4; ++i)
        core.run(p, state({{0, 1}, {1, 2}, {3, 0x90000}}));
    core.cache().reset();
    auto r = core.run(p, state({{0, 5}, {1, 5}, {3, 0x90000}}));
    EXPECT_EQ(r.mispredicts, 1u);
    EXPECT_EQ(r.transientLoadsIssued, 1u);
    EXPECT_EQ(r.transientLoadsBlocked, 1u);
}

TEST(Core, IndependentTransientLoadsBothIssue)
{
    auto p = prog("b.eq x0, x1, end\n"
                  "ldr x2, [x3]\n"
                  "ldr x4, [x5]\n" // independent
                  "end: ret\n");
    Core core;
    for (int i = 0; i < 4; ++i)
        core.run(p, state({{0, 1}, {1, 2}, {3, 0x90000}, {5, 0xa0000}}));
    core.cache().reset();
    auto r = core.run(p,
                      state({{0, 5}, {1, 5}, {3, 0x90000}, {5, 0xa0000}}));
    EXPECT_EQ(r.transientLoadsIssued, 2u);
    EXPECT_TRUE(core.cache().probe(0x90000));
    EXPECT_TRUE(core.cache().probe(0xa0000));
}

TEST(Core, TransientAluResultBlocksConsumer)
{
    // Arithmetic between the loads keeps the dependency (Template C).
    auto p = prog("b.eq x0, x1, end\n"
                  "ldr x2, [x3]\n"
                  "add x2, x2, #64\n"
                  "ldr x4, [x2]\n"
                  "end: ret\n");
    Core core;
    for (int i = 0; i < 4; ++i)
        core.run(p, state({{0, 1}, {1, 2}, {3, 0x90000}}));
    core.cache().reset();
    auto r = core.run(p, state({{0, 5}, {1, 5}, {3, 0x90000}}));
    EXPECT_EQ(r.transientLoadsIssued, 1u);
    EXPECT_EQ(r.transientLoadsBlocked, 1u);
}

TEST(Core, ForwardingAblationAllowsDependentLoads)
{
    CoreConfig cfg;
    cfg.forwardTransientResults = true; // OoO-style core
    auto p = prog("b.eq x0, x1, end\n"
                  "ldr x2, [x3]\n"
                  "ldr x4, [x2]\n"
                  "end: ret\n");
    Core core(cfg);
    for (int i = 0; i < 4; ++i)
        core.run(p, state({{0, 1}, {1, 2}, {3, 0x90000}}));
    core.cache().reset();
    core.memory().store(0x90000, 0xa0000); // pointer to follow
    auto r = core.run(p, state({{0, 5}, {1, 5}, {3, 0x90000}}));
    EXPECT_EQ(r.transientLoadsIssued, 2u);
    EXPECT_TRUE(core.cache().probe(0xa0000)); // Spectre-PHT leak
}

TEST(Core, TransientWindowBounds)
{
    CoreConfig cfg;
    cfg.transientWindow = 2;
    auto p = prog("b.eq x0, x1, end\n"
                  "ldr x2, [x3]\n"
                  "ldr x4, [x5]\n"
                  "ldr x6, [x7]\n"
                  "end: ret\n");
    Core core(cfg);
    for (int i = 0; i < 4; ++i)
        core.run(p, state({{0, 1}, {1, 2}, {3, 0x90000}, {5, 0xa0000},
                           {7, 0xb0000}}));
    core.cache().reset();
    auto r = core.run(p, state({{0, 5}, {1, 5}, {3, 0x90000},
                                {5, 0xa0000}, {7, 0xb0000}}));
    EXPECT_EQ(r.transientLoadsIssued, 2u); // third is past the window
    EXPECT_FALSE(core.cache().probe(0xb0000));
}

TEST(Core, TransientStoresHaveNoEffect)
{
    auto p = prog("b.eq x0, x1, end\n"
                  "str x2, [x3]\n"
                  "end: ret\n");
    Core core;
    // Training takes the fall-through path, whose store executes
    // architecturally — point it at a different address.
    for (int i = 0; i < 4; ++i)
        core.run(p, state({{0, 1}, {1, 2}, {2, 55}, {3, 0xa0000}}));
    core.cache().reset();
    core.run(p, state({{0, 5}, {1, 5}, {2, 55}, {3, 0x90000}}));
    EXPECT_FALSE(core.cache().probe(0x90000));
    EXPECT_NE(core.memory().load(0x90000), 55u);
}

TEST(Core, NoStraightLineSpeculationByDefault)
{
    auto p = prog("b end\nldr x1, [x2]\nend: ret\n");
    Core core;
    auto r = core.run(p, state({{2, 0x90000}}));
    EXPECT_EQ(r.transientLoadsIssued, 0u);
    EXPECT_FALSE(core.cache().probe(0x90000));
}

TEST(Core, StraightLineSpeculationAblation)
{
    CoreConfig cfg;
    cfg.straightLineSpeculation = true;
    auto p = prog("b end\nldr x1, [x2]\nend: ret\n");
    Core core(cfg);
    auto r = core.run(p, state({{2, 0x90000}}));
    EXPECT_EQ(r.transientLoadsIssued, 1u);
    EXPECT_TRUE(core.cache().probe(0x90000));
}

TEST(Core, TransientWindowStopsAtControlFlow)
{
    // Wrong path contains a branch: speculation stops there.
    auto p = prog("b.eq x0, x1, end\n"
                  "ldr x2, [x3]\n"
                  "b.eq x2, #0, end\n"
                  "ldr x4, [x5]\n"
                  "end: ret\n");
    Core core;
    for (int i = 0; i < 4; ++i)
        core.run(p, state({{0, 1}, {1, 2}, {3, 0x90000}, {5, 0xa0000}}));
    core.cache().reset();
    auto r = core.run(p,
                      state({{0, 5}, {1, 5}, {3, 0x90000}, {5, 0xa0000}}));
    EXPECT_EQ(r.transientLoadsIssued, 1u);
    EXPECT_FALSE(core.cache().probe(0xa0000));
}

TEST(Core, TransientMarkedInstructionsSkippedArchitecturally)
{
    // A program containing shadow statements (as produced by the
    // instrumentation) must behave as if they were absent.
    bir::Program p = prog("mov x1, #5\n"
                          "@t mov x1, #99\n"
                          "ret\n");
    Core core;
    auto r = core.run(p, ArchState{});
    EXPECT_EQ(r.finalState.regs[1], 5u);
    EXPECT_EQ(r.instructions, 2u);
}

TEST(Core, TimedLoadDistinguishesHitMiss)
{
    Core core;
    const std::uint64_t miss = core.timedLoad(0x80000);
    const std::uint64_t hit = core.timedLoad(0x80000);
    EXPECT_EQ(miss, core.config().missLatency);
    EXPECT_EQ(hit, core.config().hitLatency);
}

TEST(Core, LoadsTrainThePrefetcher)
{
    Core core;
    auto p = prog("ldr x1, [x0]\n"
                  "ldr x2, [x0, #64]\n"
                  "ldr x3, [x0, #128]\n"
                  "ret\n");
    auto r = core.run(p, state({{0, 0x80000}}));
    EXPECT_EQ(r.prefetches, 1u);
    EXPECT_TRUE(core.cache().probe(0x80000 + 192));
}

/** Registers pointing into the generators' data region. */
ArchState
randomState(Rng &rng)
{
    ArchState s;
    for (std::uint64_t &r : s.regs)
        r = rng.range(0x80000, 0x100000);
    return s;
}

TEST(Core, ResetMicroarchMatchesFreshCore)
{
    // harness::Platform runs every repetition of every experiment on
    // one core, reset in place; that is only sound if a dirty core
    // after resetMicroarch() is indistinguishable from a fresh one.
    // The default config has speculation and the prefetcher on.
    const CoreConfig cfg;
    const std::uint64_t board_seed = 0xb0a2dULL;
    Core reused(cfg, board_seed);
    Rng rng(2718);
    int programs = 0;
    for (const auto &[kind, count] :
         {std::pair{gen::TemplateKind::A, 100},
          std::pair{gen::TemplateKind::Stride, 100},
          std::pair{gen::TemplateKind::B, 20},
          std::pair{gen::TemplateKind::C, 20},
          std::pair{gen::TemplateKind::D, 20}}) {
        gen::ProgramGenerator generator(kind, 31 + programs);
        for (int i = 0; i < count; ++i, ++programs) {
            const bir::Program p = generator.next();
            // Dirty every structure on top of whatever the previous
            // program left: explicit stores, stray runs and the
            // Section 5.3 predictor training.
            const ArchState train = randomState(rng);
            reused.memory().store(train.regs[0], rng.next());
            reused.run(p, randomState(rng));
            for (int t = 0; t < 4; ++t)
                reused.run(p, train);
            reused.resetMicroarch();

            Core fresh(cfg, board_seed);
            // The measured run, then a follow-up run on the state it
            // left behind.
            for (int run = 0; run < 2; ++run) {
                const ArchState input = randomState(rng);
                const RunResult want = fresh.run(p, input);
                const RunResult got = reused.run(p, input);
                ASSERT_TRUE(got == want)
                    << p.name() << " run " << run << "\n"
                    << p.toString();
                ASSERT_EQ(reused.cache().snapshot(),
                          fresh.cache().snapshot())
                    << p.name() << " run " << run;
                ASSERT_EQ(reused.tlb().snapshot(), fresh.tlb().snapshot())
                    << p.name() << " run " << run;
                ASSERT_EQ(reused.prefetcher().issued(),
                          fresh.prefetcher().issued())
                    << p.name() << " run " << run;
            }
        }
    }
    EXPECT_GE(programs, 200);
}

TEST(Memory, MatchesMapReferenceAcrossGrowthAndClear)
{
    // The written-word table against a std::map: loads of written and
    // junk cells, overwrites, clears, and enough distinct words (up to
    // 600) to grow the table several times.
    Memory mem(0xb0a2dULL);
    const Memory junk(0xb0a2dULL);
    std::map<std::uint64_t, std::uint64_t> ref;
    Rng rng(99);
    for (int round = 0; round < 40; ++round) {
        const std::uint64_t span = 8 << rng.below(8); // 8..1024 words
        const int ops = static_cast<int>(rng.below(1200));
        for (int op = 0; op < ops; ++op) {
            const std::uint64_t addr = 0x80000 + rng.below(span * 8);
            if (rng.chance(0.5)) {
                const std::uint64_t v = rng.next();
                mem.store(addr, v);
                ref[addr & ~7ULL] = v;
            }
            const auto it = ref.find(addr & ~7ULL);
            ASSERT_EQ(mem.written(addr), it != ref.end());
            ASSERT_EQ(mem.load(addr),
                      it != ref.end() ? it->second : junk.load(addr))
                << "round " << round << " op " << op;
        }
        for (const auto &[addr, v] : ref)
            ASSERT_EQ(mem.load(addr + rng.below(8)), v);
        mem.clear();
        for (const auto &[addr, v] : ref) {
            ASSERT_FALSE(mem.written(addr));
            ASSERT_EQ(mem.load(addr), junk.load(addr));
        }
        ref.clear();
    }
}

/** A random input: registers in the data region plus a few words. */
harness::ProgramInput
randomInput(Rng &rng)
{
    harness::ProgramInput in;
    in.regs = randomState(rng);
    for (int w = static_cast<int>(rng.below(4)); w > 0; --w)
        in.mem.emplace_back(in.regs.regs[rng.below(bir::kNumRegs)],
                            rng.range(0x80000, 0x100000));
    return in;
}

TEST(Core, PlatformReuseMatchesFreshOnEveryChannel)
{
    // The same contract one level up: a Platform reuses its core, its
    // measurement buffers and its counter tally across experiments,
    // so every experiment must give the verdict and the counters of
    // the same experiment on a Platform built just for it.
    using harness::Channel;
    for (const Channel channel :
         {Channel::TrustZoneSnapshot, Channel::PrimeProbe,
          Channel::TlbSnapshot}) {
        harness::PlatformConfig cfg;
        cfg.channel = channel;
        cfg.visibleLoSet = channel == Channel::PrimeProbe ? 61 : 0;
        harness::Platform reused(cfg, 7);
        Rng rng(1618 + static_cast<int>(channel));
        int experiments = 0;
        for (const auto &[kind, count] :
             {std::pair{gen::TemplateKind::A, 20},
              std::pair{gen::TemplateKind::Stride, 20},
              std::pair{gen::TemplateKind::B, 8},
              std::pair{gen::TemplateKind::C, 8},
              std::pair{gen::TemplateKind::D, 8}}) {
            gen::ProgramGenerator generator(kind, 57 + experiments);
            for (int i = 0; i < count; ++i, ++experiments) {
                const bir::Program p = generator.next();
                harness::TestCase tc;
                tc.s1 = randomInput(rng);
                // Half the pairs share s1's registers, so some
                // experiments come out indistinguishable.
                tc.s2 = rng.chance(0.5) ? tc.s1 : randomInput(rng);
                tc.s2.mem = randomInput(rng).mem;
                std::optional<harness::ProgramInput> training;
                if (rng.chance(0.5))
                    training = randomInput(rng);

                metrics::Registry got_reg(metrics::ClockMode::Deterministic);
                metrics::Registry want_reg(
                    metrics::ClockMode::Deterministic);
                harness::ExperimentResult got, want;
                {
                    metrics::ScopedRegistry scope(got_reg);
                    got = reused.runExperiment(p, tc, training);
                }
                {
                    metrics::ScopedRegistry scope(want_reg);
                    harness::Platform fresh(cfg, 7);
                    want = fresh.runExperiment(p, tc, training);
                }
                ASSERT_EQ(got.verdict, want.verdict)
                    << p.name() << " channel " << static_cast<int>(channel);
                ASSERT_EQ(got.differingReps, want.differingReps)
                    << p.name();
                ASSERT_EQ(got_reg.snapshot().counters,
                          want_reg.snapshot().counters)
                    << p.name() << " channel " << static_cast<int>(channel);
            }
        }
        EXPECT_EQ(experiments, 64);
    }
}

} // namespace
} // namespace scamv::hw
