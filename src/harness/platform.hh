/**
 * @file
 * Experiment platform: the stand-in for the paper's TrustZone-resident
 * bare-metal module (Section 6.1).
 *
 * For each experiment it (1) clears the data cache and resets the
 * prefetcher, (2) initializes memory from the test case, (3) trains
 * the branch predictor with extra inputs that take the other path
 * (Section 5.3), (4) runs the program from each of the two test-case
 * states, (5) inspects the final data-cache state restricted to the
 * attacker-visible set range, and (6) repeats everything `repeats`
 * times (the paper uses 10), classifying the experiment as
 * *inconclusive* unless all repetitions agree.
 *
 * Optional measurement noise (a stray access to a random line with a
 * configurable probability per run) reproduces the real platform's
 * inconclusive outcomes.
 */

#ifndef SCAMV_HARNESS_PLATFORM_HH
#define SCAMV_HARNESS_PLATFORM_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "expr/eval.hh"
#include "hw/core.hh"
#include "support/arena.hh"
#include "support/rng.hh"

namespace scamv::harness {

/** Initial memory contents of one state: (address, word) pairs. */
using MemInit = std::vector<std::pair<std::uint64_t, std::uint64_t>>;

/** One program input: registers + initial memory words. */
struct ProgramInput {
    hw::ArchState regs;
    MemInit mem;

    bool operator==(const ProgramInput &) const = default;
};

/** A relational test case: the two equivalent states (Section 2.3). */
struct TestCase {
    ProgramInput s1;
    ProgramInput s2;

    bool operator==(const TestCase &) const = default;
};

/**
 * Convert a solver model into the ProgramInput for one state: register
 * variables named "x<i><suffix>" and memory variable "mem<suffix>".
 */
ProgramInput inputFromAssignment(const expr::Assignment &a,
                                 const std::string &suffix);

/** Experiment classification (Section 2.3 / 6.1). */
enum class Verdict {
    Indistinguishable, ///< same cache state in every repetition
    Counterexample,    ///< distinguishable in every repetition
    Inconclusive       ///< repetitions disagreed (noise)
};

/**
 * How the side channel is measured (Section 6.1).
 *
 * `TrustZoneSnapshot` models the paper's privileged platform module:
 * the final data-cache state (per-set tag sets) is inspected directly
 * with debug instructions.  `PrimeProbe` models the paper's "more
 * realistic setting": an attacker primes the visible sets with his
 * own lines before the victim runs and afterwards times a reload of
 * every primed line with the PMC cycle counter; victim activity in a
 * set evicts attacker ways and shows up as added latency.
 */
enum class Channel {
    TrustZoneSnapshot,
    PrimeProbe,
    /** Inspect the final data-TLB state (resident page numbers). */
    TlbSnapshot
};

/** Platform configuration. */
struct PlatformConfig {
    hw::CoreConfig core;
    /** Attacker-visible cache set range (inclusive). */
    std::uint64_t visibleLoSet = 0;
    std::uint64_t visibleHiSet = 127;
    /** Repetitions per experiment. */
    int repeats = 10;
    /** Predictor-training runs per repetition (Section 5.3). */
    int trainingRuns = 4;
    /** Probability of a stray cache access per measured run. */
    double noiseProbability = 0.0;
    /** Board seed (junk memory fill). */
    std::uint64_t boardSeed = 0xb0a2dULL;
    /** Side-channel measurement mechanism. */
    Channel channel = Channel::TrustZoneSnapshot;
    /** Base address of the attacker's prime array (PrimeProbe). */
    std::uint64_t attackerArrayBase = 0x4000000;
    /**
     * Batched simulation: reuse one arena-backed core across all
     * repetitions of an experiment (per-repetition state reset in
     * place) instead of constructing a fresh core per repetition.
     * Behaviourally identical either way — every microarchitectural
     * structure's reset() restores its constructor state, and the
     * unbatched path is kept as the oracle the batched one is tested
     * against and as the bench_hotpath baseline.
     */
    bool simBatch = true;
};

/** Details of one experiment execution. */
struct ExperimentResult {
    Verdict verdict = Verdict::Indistinguishable;
    /** Repetitions in which the two snapshots differed. */
    int differingReps = 0;
    int totalReps = 0;
    /** Repetitions polluted by an injected measurement fault. */
    int flakedReps = 0;
};

/** The experiment executor. */
class Platform
{
  public:
    Platform(const PlatformConfig &config, std::uint64_t noise_seed = 1);

    /**
     * Run one relational experiment.
     * @param program  the original (uninstrumented) program
     * @param tc       the two observationally-equivalent inputs
     * @param training optional input taking a different path, used to
     *                 mistrain the branch predictor before measuring
     */
    ExperimentResult runExperiment(
        const bir::Program &program, const TestCase &tc,
        const std::optional<ProgramInput> &training = std::nullopt);

    /**
     * Run a single input and @return the visible cache snapshot
     * (exposed for tests and the attack demos).
     */
    hw::CacheState measureOnce(const bir::Program &program,
                               const ProgramInput &input);

    /**
     * Run a single input under the Prime+Probe channel and @return
     * the per-visible-set probe latencies in cycles.
     */
    std::vector<std::uint64_t> probeOnce(const bir::Program &program,
                                         const ProgramInput &input);

    const PlatformConfig &config() const { return cfg; }

  private:
    /** One channel measurement: snapshot or probe latencies. */
    struct Measurement {
        hw::CacheState cache;
        std::vector<std::uint64_t> probeLatencies;
        hw::TlbState tlb;

        bool operator==(const Measurement &) const = default;
    };

    void prepare(hw::Core &core, const bir::Program &program,
                 const ProgramInput &input);
    Measurement measure(hw::Core &core, const bir::Program &program,
                        const ProgramInput &input);

    PlatformConfig cfg;
    Rng noiseRng;

    // Batched-simulation state.  The arena is declared before the
    // core so the core (whose containers live in the arena) is
    // destroyed first; runExperiment rebuilds the core per experiment
    // in the order destroy -> arena reset -> reconstruct, which keeps
    // arena usage bounded by a single core's footprint.
    support::Arena simArena;
    std::unique_ptr<hw::Core> batchCore;
    /** Reused run-result buffer (trace capacity persists). */
    hw::RunResult runScratch;
};

} // namespace scamv::harness

#endif // SCAMV_HARNESS_PLATFORM_HH
