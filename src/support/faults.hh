/**
 * @file
 * Deterministic fault injection for pipeline-resilience testing.
 *
 * Scam-V campaigns on real boards lose experiments to solver
 * timeouts, flaky measurements and harness hiccups; the pipeline is
 * expected to keep going and report what survived.  This module makes
 * that failure behaviour itself testable: a seeded *fault plan* can
 * inject failures at named sites threaded through the solver stack
 * (`sat`, `smt`), the measurement stack (`hw`, `harness`) and the
 * experiment log (`core/expdb`), and the pipeline's retry /
 * quarantine / degrade machinery is validated against it (see
 * DESIGN.md, "Failure model & resilience").
 *
 * Determinism: whether a fault fires at a site is a pure function of
 * (campaign seed, program index, site, attempt) — a splitmix64
 * avalanche, the same recipe as `deriveProgramSeed` — so a campaign
 * replays byte-identically for any thread count and any rerun.  Each
 * pipeline task installs an `Injector` for its program via
 * `ScopedInjector` (thread-local, mirroring `metrics::ScopedRegistry`);
 * instrumented sites ask `maybeInject(site)`, which is a single
 * thread-local pointer test when no injector is installed — zero
 * overhead in production.
 *
 * Configuration: `SCAMV_FAULT_RATE` (probability per site attempt,
 * in [0,1]) and `SCAMV_FAULT_PLAN` (comma-separated site names, or
 * "all"), parsed through the validated `support/env` layer; see
 * `FaultPlan::fromEnv`.
 */

#ifndef SCAMV_SUPPORT_FAULTS_HH
#define SCAMV_SUPPORT_FAULTS_HH

#include <array>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

namespace scamv::faults {

/**
 * Named injection sites, one per failure class the pipeline must
 * tolerate.  Keep `siteName` in sync when extending.
 */
enum class Site : int {
    SatTimeout = 0, ///< sat::Solver budget exhaustion (Result::Unknown)
    SmtUnknown,     ///< smt::SmtSolver query answers Unknown
    SamplerExhaust, ///< RepairSampler gives up without a model
    HwProbeJitter,  ///< hw::Core::timedLoad latency jitter (PMC noise)
    HwFlake,        ///< harness::Platform stray-line measurement flake
    DbWrite,        ///< ExperimentDb::add write failure
    TaskAbort,      ///< program task dies with an exception
    QcacheCorrupt,  ///< qcache::QueryCache persisted record corruption
    CoverLedgerMerge, ///< cover::CoverageLedger::merge drops a delta
    ShardArtifactCorrupt, ///< shard outcome record corrupted at load
    TriageMinimizeFlake,  ///< counterexample minimizer dies mid-shrink
    SvcAcceptDrop,        ///< svc::Service drops a submission at accept
    SvcWorkerLost,        ///< svc worker dies after finishing a slice
};

/** Number of sites (array sizing). */
constexpr int kSiteCount =
    static_cast<int>(Site::SvcWorkerLost) + 1;

/** @return the canonical (SCAMV_FAULT_PLAN) name of a site. */
const char *siteName(Site site);

/** @return the site with the given canonical name, if any. */
std::optional<Site> siteFromName(std::string_view name);

/** Which sites fire, and how often. */
struct FaultPlan {
    /** Injection probability per (site, attempt), in [0, 1]. */
    double rate = 0.0;
    /** Bitmask of enabled sites (bit = static_cast<int>(site)). */
    std::uint32_t mask = 0;

    bool enabled() const { return rate > 0.0 && mask != 0; }

    bool
    covers(Site site) const
    {
        return mask & (1u << static_cast<int>(site));
    }

    /** @return the mask enabling every site. */
    static std::uint32_t maskAll();

    /**
     * Plan of `rate` over the sites `sites` names (canonical names,
     * comma/space separated, "all" for every site; empty selects
     * every site).  Unknown names are skipped, with a warning when
     * `origin` names where the list came from; a list selecting no
     * site disables the plan.
     */
    static FaultPlan of(double rate, std::string_view sites,
                        const char *origin = nullptr);

    /**
     * Plan from the environment: `SCAMV_FAULT_RATE` sets the rate
     * (values outside [0,1] are rejected with a warning) and
     * `SCAMV_FAULT_PLAN` the sites (see `of`).  Unset or zero rate
     * yields a disabled plan.
     */
    static FaultPlan fromEnv();
};

/**
 * Per-program fault decision source.  `fire(site)` advances the
 * site's attempt counter and decides deterministically from
 * (campaign seed, program index, site, attempt); an injected fault
 * is tallied into `metrics::current()` as `faults.injected` plus
 * `faults.injected.<site>`.  Single-threaded by design: one injector
 * belongs to one pipeline task (or test scope).
 */
class Injector
{
  public:
    Injector(const FaultPlan &plan, std::uint64_t campaign_seed,
             int prog_i);

    /** Decide (and count) injection at `site`. */
    bool fire(Site site);

    /** @return total faults injected through this injector. */
    std::uint64_t injectedCount() const { return injected; }

    /** @return faults injected at one site (history recording needs to
     *  tell a pre-mutation SmtUnknown from a post-blast SatTimeout). */
    std::uint64_t
    injectedCountAt(Site site) const
    {
        return injectedPerSite[static_cast<int>(site)];
    }

  private:
    FaultPlan plan;
    std::uint64_t seed;
    int prog;
    std::array<std::uint64_t, kSiteCount> attempts{};
    std::array<std::uint64_t, kSiteCount> injectedPerSite{};
    std::uint64_t injected = 0;
};

/** @return the calling thread's installed injector, or nullptr. */
Injector *current();

/**
 * Ask the installed injector to fire at `site`.
 * @return false when no injector is installed (the production fast
 * path: one thread-local load and a null test).
 */
bool maybeInject(Site site);

/** @return injected count of the installed injector, or 0. */
std::uint64_t injectedCount();

/** @return the installed injector's injected count at `site`, or 0. */
std::uint64_t injectedCountAt(Site site);

/** Install an injector as the calling thread's `current()` (RAII). */
class ScopedInjector
{
  public:
    explicit ScopedInjector(Injector &injector);
    ~ScopedInjector();

    ScopedInjector(const ScopedInjector &) = delete;
    ScopedInjector &operator=(const ScopedInjector &) = delete;

  private:
    Injector *prev;
};

/**
 * Temporarily uninstall the calling thread's injector (RAII).  Used
 * when replaying work whose original (counted) attempt already made
 * every fault decision — e.g. the query cache re-solving a cached
 * solver prefix to materialize an incremental solver — so the replay
 * cannot fire sites a byte-identical uninterrupted run never fired.
 */
class ScopedSuppress
{
  public:
    ScopedSuppress();
    ~ScopedSuppress();

    ScopedSuppress(const ScopedSuppress &) = delete;
    ScopedSuppress &operator=(const ScopedSuppress &) = delete;

  private:
    Injector *prev;
};

/**
 * Thrown by the pipeline's TaskAbort site.  The framework itself is
 * exception-free (support/logging.hh); this models the one failure
 * mode that still reaches tasks — library code throwing mid-program
 * (e.g. std::bad_alloc) — so the campaign's task guard is testable.
 */
class InjectedTaskFault : public std::runtime_error
{
  public:
    explicit InjectedTaskFault(int prog_i)
        : std::runtime_error("injected task fault in program " +
                             std::to_string(prog_i))
    {}
};

} // namespace scamv::faults

#endif // SCAMV_SUPPORT_FAULTS_HH
