#include "support/faults.hh"

#include <cctype>
#include <string>

#include "support/env.hh"
#include "support/logging.hh"
#include "support/metrics.hh"

namespace scamv::faults {

namespace {

thread_local Injector *tls_injector = nullptr;

/** splitmix64 finalizer (same avalanche as deriveProgramSeed). */
std::uint64_t
avalanche(std::uint64_t x)
{
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

} // namespace

const char *
siteName(Site site)
{
    switch (site) {
      case Site::SatTimeout: return "sat_timeout";
      case Site::SmtUnknown: return "smt_unknown";
      case Site::SamplerExhaust: return "sampler_exhaust";
      case Site::HwProbeJitter: return "hw_probe_jitter";
      case Site::HwFlake: return "hw_flake";
      case Site::DbWrite: return "db_write";
      case Site::TaskAbort: return "task_abort";
      case Site::QcacheCorrupt: return "qcache_corrupt";
      case Site::CoverLedgerMerge: return "cover.ledger_merge";
      case Site::ShardArtifactCorrupt: return "shard_artifact_corrupt";
      case Site::TriageMinimizeFlake: return "triage_minimize_flake";
      case Site::SvcAcceptDrop: return "svc_accept_drop";
      case Site::SvcWorkerLost: return "svc_worker_lost";
    }
    return "?";
}

std::optional<Site>
siteFromName(std::string_view name)
{
    for (int i = 0; i < kSiteCount; ++i) {
        const Site s = static_cast<Site>(i);
        if (name == siteName(s))
            return s;
    }
    return std::nullopt;
}

std::uint32_t
FaultPlan::maskAll()
{
    return (1u << kSiteCount) - 1;
}

FaultPlan
FaultPlan::of(double rate, std::string_view sites, const char *origin)
{
    FaultPlan plan;
    plan.rate = rate;
    if (sites.empty()) {
        plan.mask = maskAll();
        return plan;
    }
    std::string_view rest = sites;
    while (!rest.empty()) {
        const std::size_t split = rest.find_first_of(", \t");
        std::string_view token = rest.substr(0, split);
        rest = split == std::string_view::npos
                   ? std::string_view()
                   : rest.substr(split + 1);
        if (token.empty())
            continue;
        if (token == "all") {
            plan.mask = maskAll();
        } else if (auto site = siteFromName(token)) {
            plan.mask |= 1u << static_cast<int>(*site);
        } else if (origin) {
            warn(std::string(origin) + ": unknown fault site '" +
                 std::string(token) + "' ignored");
        }
    }
    if (plan.mask == 0) {
        if (origin)
            warn(std::string(origin) + " selected no valid site; "
                 "fault injection disabled");
        plan.rate = 0.0;
    }
    return plan;
}

FaultPlan
FaultPlan::fromEnv()
{
    const auto rate = envDouble("SCAMV_FAULT_RATE", 0.0, 1.0);
    if (!rate || *rate <= 0.0)
        return {}; // disabled
    const char *sites = std::getenv("SCAMV_FAULT_PLAN");
    return of(*rate, sites ? sites : "", "SCAMV_FAULT_PLAN");
}

Injector::Injector(const FaultPlan &plan, std::uint64_t campaign_seed,
                   int prog_i)
    : plan(plan), seed(campaign_seed), prog(prog_i)
{}

bool
Injector::fire(Site site)
{
    const int i = static_cast<int>(site);
    const std::uint64_t attempt = attempts[i]++;
    if (!plan.covers(site))
        return false;
    // splitmix64 of (campaign seed, program index, site, attempt):
    // the same recipe as deriveProgramSeed, so fault decisions are a
    // pure function of campaign coordinates — identical for any
    // thread count and on every replay.
    std::uint64_t x =
        seed +
        0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(prog) + 1) +
        0xbf58476d1ce4e5b9ULL * (static_cast<std::uint64_t>(i) + 1) +
        0x94d049bb133111ebULL * (attempt + 1);
    x = avalanche(x);
    // Top 53 bits as a uniform double in [0, 1).
    const double u = static_cast<double>(x >> 11) * 0x1.0p-53;
    if (u >= plan.rate)
        return false;
    ++injected;
    ++injectedPerSite[i];
    metrics::Registry &reg = metrics::current();
    reg.counter("faults.injected").inc();
    reg.counter(std::string("faults.injected.") + siteName(site)).inc();
    return true;
}

Injector *
current()
{
    return tls_injector;
}

bool
maybeInject(Site site)
{
    return tls_injector && tls_injector->fire(site);
}

std::uint64_t
injectedCount()
{
    return tls_injector ? tls_injector->injectedCount() : 0;
}

std::uint64_t
injectedCountAt(Site site)
{
    return tls_injector ? tls_injector->injectedCountAt(site) : 0;
}

ScopedInjector::ScopedInjector(Injector &injector) : prev(tls_injector)
{
    tls_injector = &injector;
}

ScopedInjector::~ScopedInjector()
{
    tls_injector = prev;
}

ScopedSuppress::ScopedSuppress() : prev(tls_injector)
{
    tls_injector = nullptr;
}

ScopedSuppress::~ScopedSuppress()
{
    tls_injector = prev;
}

} // namespace scamv::faults
