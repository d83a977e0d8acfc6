/**
 * @file
 * Thread-safe, semantically keyed SMT query cache with optional
 * persistence.
 *
 * Entries are keyed by the canonical form of a query (see canon.hh)
 * and gated on its exactness fingerprint: a lookup only hits when the
 * stored fingerprint equals the querier's, so every hit is an exact
 * replay of the original solve — same outcome, same model (modulo
 * variable-name translation) and, via the captured metric delta, the
 * same instrumentation effects.  Because a hit never changes *what*
 * the pipeline computes (only how much work it redoes), the campaign
 * determinism invariants (thread-count byte-identity, cold-vs-resumed
 * byte-identity) hold unconditionally.
 *
 * Capacity is bounded in bytes (`SCAMV_QCACHE_MB`, least-recently-used
 * eviction).  With `SCAMV_QCACHE_FILE` set the cache doubles as a
 * campaign checkpoint: stores are appended to a versioned text log
 * ("scamv-qcache-v1", one checksummed record per line) and reloaded on
 * construction, so an interrupted campaign resumed against the same
 * file replays its completed queries from disk and produces
 * byte-identical results.  Corrupt, truncated or foreign records are
 * dropped and counted (`qcache.load_dropped`), never trusted; the
 * `qcache_corrupt` fault site injects exactly such damage for tests.
 *
 * Operational counters (`qcache.hit`, `qcache.miss`, ...) go to the
 * process-global metrics registry — never to the thread's scoped
 * registry — so cache bookkeeping stays out of the deterministic
 * campaign snapshot.
 */

#ifndef SCAMV_SUPPORT_QCACHE_QCACHE_HH
#define SCAMV_SUPPORT_QCACHE_QCACHE_HH

#include <cstdint>
#include <fstream>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "expr/eval.hh"
#include "support/metrics.hh"
#include "support/qcache/canon.hh"

namespace scamv::qcache {

/** First line of every checkpoint file. */
inline constexpr const char *kFileHeader = "scamv-qcache-v1";

/** One cached query result. */
struct Entry {
    /** true = Sat (model present), false = Unsat.  Unknown is never
     *  cached: it depends on the budget, not on the formula. */
    bool sat = false;
    /** Enumeration chaining: blocking the model killed the pair. */
    bool pairDead = false;
    /** Exactness fingerprint of the formula that produced this. */
    std::uint64_t fingerprint = 0;
    /** Satisfying assignment in canonical variable names (Sat only). */
    expr::Assignment model;
    /** Solver metric delta captured while computing the result;
     *  merged into the querier's registry on every hit so cached and
     *  uncached runs tally identically. */
    metrics::Snapshot delta;
};

/** Cache configuration (see configFromEnv). */
struct CacheConfig {
    /** Byte bound for in-memory entries; 0 disables the cache. */
    std::size_t maxBytes = 0;
    /** Persistence/checkpoint file; empty = in-memory only. */
    std::string filePath;
};

/**
 * The cheap framing check of one checkpoint record line — checksum,
 * field count, hex key — short of decoding its payload.  A record
 * that fails it is dropped by every reader; one that passes it may
 * still fail the full decode at load.  @return the record's key, or
 * nullopt when the framing is damaged.
 */
std::optional<Key> recordKey(std::string_view line);

/** The cache proper.  All public members are thread-safe. */
class QueryCache
{
  public:
    explicit QueryCache(CacheConfig config);
    ~QueryCache();

    QueryCache(const QueryCache &) = delete;
    QueryCache &operator=(const QueryCache &) = delete;

    /**
     * Fingerprint-gated lookup.  @return a copy of the entry when the
     * key is present *and* its stored fingerprint equals
     * `fingerprint`; nullopt otherwise.  Counts qcache.hit /
     * qcache.miss / qcache.fp_conflict in the global registry and
     * refreshes the entry's LRU position on a hit.
     */
    std::optional<Entry> lookup(const Key &key,
                                std::uint64_t fingerprint);

    /**
     * Insert an entry (keep-first: an existing key is not replaced —
     * determinism makes duplicates byte-identical anyway).  Evicts
     * least-recently-used entries past the byte bound and appends the
     * record to the persistence log when one is configured.
     */
    void store(const Key &key, Entry entry);

    /**
     * Remove an entry whose model failed revalidation against the
     * querier's formula (defense against a corrupt or stale
     * persistence file; the caller counts the drop).
     */
    void dropInvalid(const Key &key);

    /** @return number of live entries. */
    std::size_t size() const;
    /** @return estimated bytes held by live entries. */
    std::size_t totalBytes() const;
    /** @return configured byte bound. */
    std::size_t maxBytes() const { return cfg.maxBytes; }
    /** @return true iff the key is present (any fingerprint). */
    bool contains(const Key &key) const;
    /** @return records dropped while loading the persistence file. */
    std::uint64_t loadDropped() const { return dropped_; }

    /**
     * Configuration from SCAMV_QCACHE_MB (0..1048576 MiB; unset or 0
     * disables) and SCAMV_QCACHE_FILE.  Pure: reads the environment,
     * touches no global state — unit-testable, unlike the latched
     * sharedFromEnv().
     */
    static CacheConfig configFromEnv();

    /**
     * Process-wide cache configured from the environment, created on
     * first use and kept for the process lifetime (the persistence
     * stream flushes on destruction at exit).  @return nullptr when
     * SCAMV_QCACHE_MB is unset or 0.
     */
    static QueryCache *sharedFromEnv();

  private:
    struct Slot {
        Key key;
        Entry entry;
        std::size_t bytes = 0;
    };

    void loadFile();
    void appendRecord(const Key &key, const Entry &entry);
    void evictToFit();

    CacheConfig cfg;
    mutable std::mutex m;
    std::list<Slot> lru; ///< front = most recently used
    std::unordered_map<Key, std::list<Slot>::iterator, KeyHash> index;
    std::size_t bytes_ = 0;
    std::uint64_t dropped_ = 0;
    std::ofstream append_;
};

} // namespace scamv::qcache

#endif // SCAMV_SUPPORT_QCACHE_QCACHE_HH
