/**
 * @file
 * Shared pieces of the benchmark driver: clocks, the raw-result JSON
 * writer, the workload table and the correctness-check ledger.
 *
 * The driver measures and checks; it does not summarize.  It writes
 * every raw sample (per repetition, per submission, per span) to a
 * JSON file that perfbench/run.py reduces to the reported metrics,
 * so the statistics (medians, the percentile rule, span self time)
 * live in one tested place.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/pipeline.hh"

namespace perfbench {

/** Monotonic wall clock, seconds. */
double wallNow();

/** Process CPU time (user + system, all threads), seconds. */
double cpuNow();

/** Peak resident set size of the process so far, MiB. */
double peakRssMb();

/** 64-bit FNV-1a over `bytes`. */
std::uint64_t fnv1a(const std::string &bytes);

/** Whole file contents; empty when unreadable. */
std::string readFile(const std::string &path);

/** splitmix64 finalizer: derives independent seeds from one seed. */
std::uint64_t mix(std::uint64_t x);

/** What the command line asked for. */
struct Options {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    /** Repository root (holds src/ and examples/corpus/). */
    std::string root = ".";
    /** Work directory for campaign artifacts. */
    std::string work;
    /** Raw-result JSON path. */
    std::string out;
    /** Span dump path (traced runs). */
    std::string spans;
};

/** Setups timed per run; setup_s is their median. */
inline constexpr int kSetups = 21;

/** Worker threads of every campaign: min(4, nproc). */
int benchThreads();

/**
 * Minimal JSON object writer for the raw-result file.  Keys are
 * emitted in insertion order; values are pre-rendered JSON.
 */
class Json
{
  public:
    Json &num(const std::string &key, double v);
    Json &num(const std::string &key, std::int64_t v);
    Json &str(const std::string &key, const std::string &v);
    Json &boolean(const std::string &key, bool v);
    Json &raw(const std::string &key, const std::string &json);
    std::string render() const;

  private:
    std::vector<std::pair<std::string, std::string>> fields;
};

/** JSON array of pre-rendered values. */
std::string jsonArray(const std::vector<std::string> &items);

/** JSON array of numbers. */
std::string jsonNumbers(const std::vector<double> &values);

/** JSON string literal. */
std::string jsonString(const std::string &s);

/**
 * Correctness checks of one run.  Each check is one attempted
 * operation; a failed check also counts as a failed operation.
 * Thread-safe.
 */
class Checks
{
  public:
    void record(const std::string &name, bool ok,
                const std::string &detail = "");
    std::int64_t total() const;
    std::int64_t failedCount() const;
    std::string json() const;

  private:
    struct Entry {
        std::string name;
        bool ok;
        std::string detail;
    };
    mutable std::mutex mu;
    std::vector<Entry> entries;
};

/** Verdict tallies of a campaign plus its ExperimentDb CSV digest. */
struct Tally {
    int programs = 0;
    int programsWithCex = 0;
    std::int64_t experiments = 0;
    std::int64_t counterexamples = 0;
    std::int64_t inconclusive = 0;
    std::int64_t generationFailures = 0;
    std::int64_t screened = 0;
    int failedPrograms = 0;
    int quarantined = 0;
    std::uint64_t csvDigest = 0;

    bool operator==(const Tally &) const = default;
    std::string describe() const;
};

/** Tally of `stats`, digesting `db` through its CSV export at `csv`. */
Tally tallyOf(const scamv::core::RunStats &stats,
              const scamv::core::ExperimentDb &db,
              const std::string &csv);

/** @return counter `name` of `snap`, 0 when absent. */
std::uint64_t counterOf(const scamv::metrics::Snapshot &snap,
                        const std::string &name);

/** Build/compiler facts compiled into the driver. */
std::string buildJson();

/** Run one workload; writes the raw-result JSON to opts.out. */
int runCampaignWorkload(const Options &opts);
int runTenantsWorkload(const Options &opts);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
