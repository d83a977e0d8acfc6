/**
 * @file
 * Sharded multi-process campaigns: planner, worker, coordinator.
 *
 * A campaign's program budget is embarrassingly parallel (see
 * DESIGN.md, "Concurrency model"), so it can be split across worker
 * *processes* just as PR 1 split it across threads: the planner
 * partitions the program-index range [0, programs) into contiguous
 * slices as a pure function of (seed, shardCount, shardIndex) — any
 * worker can compute its own slice from the campaign config alone —
 * each worker runs its slice through the existing pipeline machinery
 * (`core::runCampaignSlice`) and serializes the per-program outcomes
 * into a checksummed text artifact ("scamv-shard-v1"), and the
 * coordinator (`mergeCampaign`) folds N shard outputs in
 * program-index order through the same merge tail a single-process
 * run uses (`core::mergeCampaignOutcomes`).
 *
 * Determinism contract (ARCHITECTURE.md, invariant 8): under the
 * Uniform schedule the merged campaign artifacts — metrics JSON,
 * coverage JSON, qcache checkpoint, ExperimentDb CSV — are
 * byte-identical to a 1-process, 1-thread run of the same config, for
 * any shard count.  Workers ship raw per-program outcomes, never
 * pre-merged aggregates: metric folding is associative but not
 * commutative over doubles, so only the coordinator folds, in
 * program-index order, with fresh per-program fault injectors whose
 * decisions replay exactly (attempt counters restart at 0 per
 * program, as in the single-process tail).  The Adaptive schedule
 * degrades deterministically to *per-shard* round planning (each
 * worker plans rounds from a shard-local ledger over its own budget;
 * recorded as `shard.schedule_local` in the global registry) — the
 * merge is still deterministic for a fixed partition, but not
 * bit-equal to a global adaptive run.
 *
 * Failure model: shard artifacts are validated like qcache
 * checkpoints — every line carries an fnv1a checksum, a corrupt or
 * truncated program group is dropped and counted
 * (`shard.load_dropped` in the global registry), and the
 * `shard_artifact_corrupt` fault site (support/faults.hh) injects
 * exactly such damage.  The coordinator either completes with the
 * lost programs recorded as a coverage gap (`MergeResult::
 * missingPrograms`) or re-executes them (`rerunMissing`) — re-runs
 * are pure functions of (cfg, program index), so a recovered
 * campaign is byte-identical to an undamaged one.
 */

#ifndef SCAMV_SHARD_SHARD_HH
#define SCAMV_SHARD_SHARD_HH

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/pipeline.hh"

namespace scamv::shard {

/** Which shard of how many ("i/N"). */
struct ShardSpec {
    int index = 0;
    int count = 1;

    bool operator==(const ShardSpec &) const = default;
};

/** Contiguous program-index slice owned by one shard. */
struct Slice {
    int first = 0;
    int count = 0;

    bool operator==(const Slice &) const = default;
};

/**
 * Parse a "i/N" shard spec (0 <= i < N, N >= 1).
 * @return nullopt on malformed input.
 */
std::optional<ShardSpec> parseShardSpec(std::string_view spec);

/**
 * Shard spec from the `SCAMV_SHARD` environment variable ("i/N").
 * @return nullopt when unset; malformed values warn and count as
 * unset.
 */
std::optional<ShardSpec> specFromEnv();

/** `SCAMV_SHARD_DIR` environment variable, or `fallback` if unset. */
std::string dirFromEnv(const std::string &fallback);

/**
 * Deterministic partition of [0, programs) into `shard_count`
 * contiguous slices.  Pure function of the arguments: every worker
 * computes its own slice without coordination, and the slices are
 * exhaustive and non-overlapping for any input (ctest proves it).
 * The remainder programs are distributed by a seed-derived rotation,
 * so which shards carry an extra program is campaign-specific but
 * reproducible.
 */
Slice planShard(std::uint64_t seed, int programs, int shard_count,
                int shard_index);

/** @return the shard directory `<root>/shard-<index>`. */
std::string shardDir(const std::string &root, int shard_index);

/** Artifact file names inside a shard (or campaign root) directory. */
inline constexpr const char *kOutcomesFile = "outcomes.shard";
inline constexpr const char *kMetricsFile = "metrics.json";
inline constexpr const char *kCoverageFile = "coverage.json";
inline constexpr const char *kDbFile = "db.csv";
inline constexpr const char *kStatsFile = "stats.json";
inline constexpr const char *kQcacheFile = "qcache.txt";

/**
 * Serialize a campaign slice as a "scamv-shard-v1" artifact: a header
 * line binding the shard coordinates to the campaign config (seed,
 * program budget, slice bounds, early-stop and local-planning flags)
 * followed by one checksummed record group per slice slot — outcome
 * flags, the task's full metrics snapshot, its coverage delta and its
 * buffered experiment records.  Every line ends in an fnv1a checksum
 * over the line's prefix (the qcache checkpoint convention), and
 * string fields are percent-escaped, so the format survives program
 * names with spaces and multi-line program text.
 */
std::string encodeSlice(const core::CampaignSlice &slice,
                        const ShardSpec &spec,
                        const core::PipelineConfig &cfg);

/** A decoded shard artifact. */
struct DecodedSlice {
    ShardSpec spec;
    std::uint64_t seed = 0;
    int programs = 0;
    core::CampaignSlice slice;
    /** present[k]: slot k's record group loaded intact.  A corrupt or
     *  truncated group is dropped whole (drop-and-count, like qcache
     *  load) and its slot left empty. */
    std::vector<bool> present;
    /** Record groups dropped by checksum/parse failure or an injected
     *  shard_artifact_corrupt fault. */
    std::uint64_t droppedGroups = 0;
};

/**
 * Parse a "scamv-shard-v1" artifact.  Checksum-validates every line;
 * a damaged line drops its whole program group (never a partial
 * outcome).  Fires the `shard_artifact_corrupt` fault site once per
 * group when an injector is installed, mirroring qcache's load-time
 * injection.  @return nullopt when the header itself is missing,
 * foreign or damaged (the whole artifact is unusable).
 */
std::optional<DecodedSlice> decodeSlice(std::string_view text);

/**
 * Merge shard qcache checkpoint files into `out_path`: the header
 * plus every checksum-valid record, concatenated in shard order with
 * keep-first deduplication by cache key — the same keep-first rule
 * `QueryCache::store` applies, which is what makes the merged file
 * byte-identical to a 1-process checkpoint (contiguous ascending
 * slices append their records in program-index order; duplicate
 * cross-shard solves are byte-identical and dropped).  Invalid
 * records are dropped and counted (`shard.load_dropped`); inputs
 * that do not exist are skipped.
 * @return number of records written, or nullopt when `out_path`
 * cannot be written.
 */
std::optional<std::uint64_t>
mergeQcacheFiles(const std::vector<std::string> &inputs,
                 const std::string &out_path);

/**
 * Write the standard campaign artifact set into `dir`: metrics.json
 * (scamv-metrics-v1), coverage.json (scamv-coverage-v1, only when
 * coverage was tracked), db.csv (when `db` is given) and stats.json
 * (scamv-shard-stats-v1 — the RunStats counters; wall-clock fields
 * are excluded so the file is byte-comparable across runs).
 * @return success of every write.
 */
bool writeCampaignArtifacts(const core::RunStats &stats,
                            const core::ExperimentDb *db,
                            const std::string &dir);

/** What a worker run produced. */
struct WorkerResult {
    /** Shard-local stats (the slice folded through the merge tail). */
    core::RunStats stats;
    /** Slice bounds this worker owned. */
    Slice slice;
    /** Every artifact write succeeded. */
    bool ok = false;
};

/**
 * Run one shard of the campaign and emit its artifacts into `dir`:
 * outcomes.shard (the transfer format the coordinator consumes),
 * plus the shard-local metrics.json / coverage.json / db.csv /
 * stats.json and — when SCAMV_QCACHE_MB enables caching and no cache
 * was configured — a per-shard qcache checkpoint qcache.txt.
 * `cfg` is resolved internally (`core::resolveCampaignEnv`); the
 * slice is computed with `planShard`.  Thread-safe against other
 * workers in the same process (shard state is all local).
 */
WorkerResult runWorker(core::PipelineConfig cfg, const ShardSpec &spec,
                       const std::string &dir);

/** Coordinator options. */
struct MergeOptions {
    /** Re-execute lost programs instead of recording a gap.  Re-runs
     *  are deterministic, so recovery is byte-identical. */
    bool rerunMissing = false;
    /** Fail (`MergeResult::ok = false`) when any shard dropped
     *  database writes or programs stayed missing. */
    bool strict = false;
};

/** What the coordinator produced. */
struct MergeResult {
    core::RunStats stats;
    /** Strict verdict (always true when !MergeOptions::strict). */
    bool ok = true;
    /** Programs with no usable outcome (empty after a successful
     *  rerunMissing recovery). */
    std::vector<int> missingPrograms;
    /** Programs re-executed by rerunMissing. */
    std::vector<int> rerunPrograms;
    /** Shard artifact files that were missing or foreign. */
    std::uint64_t droppedShards = 0;
    /** Record groups dropped across all shard artifacts. */
    std::uint64_t droppedGroups = 0;
    /** Database-write drops of the merged flush attributed to the
     *  shard that produced each program (index = shard). */
    std::vector<std::int64_t> shardDbWriteDrops;
};

/**
 * Fold `shard_count` shard outputs under `root` (see shardDir) into
 * campaign-level artifacts written to `root`, byte-identical under
 * the Uniform schedule to a 1-process, 1-thread run — same merge
 * tail, same per-program injector coordinates, same export writers.
 * Artifact damage is handled like qcache load: checksum-validate,
 * drop-and-count (`shard.load_dropped`), then either record the gap
 * or re-dispatch the lost programs (`MergeOptions::rerunMissing`).
 * The campaign qcache checkpoint is rebuilt from the per-shard
 * checkpoint files with `mergeQcacheFiles`.
 */
MergeResult mergeCampaign(core::PipelineConfig cfg, int shard_count,
                          const std::string &root,
                          const MergeOptions &opts = {});

/**
 * The small deterministic campaign the scamv_worker / scamv_merge
 * binaries and bench_shard share: Stride template, Mpart validated
 * against refined MpartRefined, attacker-visible set window 61..127,
 * deterministic metrics clock, single worker thread per process.
 * `line` selects Mline coverage (PcAndLine) instead of the default
 * path-pair coverage whose Canonical/Pc enumeration exercises the
 * query cache.
 */
core::PipelineConfig defaultWorkload(int programs, int tests,
                                     std::uint64_t seed, bool adaptive,
                                     bool line);

/**
 * The deterministic corpus campaign: like defaultWorkload but the
 * programs are the compiled `.sc` kernels of `corpus_dir` (sorted by
 * filename) instead of generated Stride programs, validating the
 * cacheless Mpc model refined by the constant-time Mct model — the
 * refinement that makes secret-dependent addresses "interesting".
 * The whole cache-set window is attacker-visible so address leaks are
 * observable wherever the kernel's arrays land.  Corpus programs use
 * Pc coverage (their ledger bucket is "corpus:<name>").
 */
core::PipelineConfig corpusWorkload(int programs, int tests,
                                    std::uint64_t seed, bool adaptive,
                                    const std::string &corpus_dir);

/**
 * The workload flags every scamv_worker of a campaign and its
 * scamv_merge must agree on (defaults: the CI campaign size).
 */
struct WorkloadFlags {
    int programs = 24;
    int tests = 6;
    std::uint64_t seed = 99;
    bool adaptive = false;
    bool line = false;
    std::string corpus;

    /** corpusWorkload when a corpus was given, else defaultWorkload. */
    core::PipelineConfig config() const;
};

/** How parseWorkloadFlag treated one argument. */
enum class FlagParse { Other, Taken, Bad };

/**
 * Offer argv[i] to the workload parser: --programs N and --tests N
 * (strict decimal, >= 1), --seed S (strict decimal), --adaptive,
 * --line, --corpus DIR.  Advances `i` past a consumed value.
 * @return Other when argv[i] is no workload flag, Bad when its value
 * is missing or malformed.
 */
FlagParse parseWorkloadFlag(int argc, char **argv, int &i,
                            WorkloadFlags &flags);

} // namespace scamv::shard

#endif // SCAMV_SHARD_SHARD_HH
