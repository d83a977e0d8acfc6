/**
 * @file
 * Outside-in spans for the traced run.
 *
 * The traced run times calls into each layer's public functions from
 * the benchmark's own code: every call is wrapped in a `Span`, which
 * records its name, start, end, parent span and the program (or
 * submission) it works for.  Spans are buffered in memory per thread
 * and written out once, after the run, so the hot path costs two
 * clock reads and a vector append.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/** One finished span. */
struct SpanRecord {
    std::uint64_t id = 0;
    std::uint64_t parent = 0; ///< 0: a root span
    const char *name = "";    ///< static string
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    std::int64_t key = -1; ///< program index or submission id
    int rep = 0;           ///< traced repetition
};

/**
 * Span collector shared by every thread of a traced run.  Each thread
 * appends to a buffer of its own, so recording a span takes no lock
 * after the thread's first span.
 */
class Tracer
{
  public:
    Tracer();
    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /** Repetition stamped onto spans opened from now on. */
    void setRep(int rep) { currentRep = rep; }
    int rep() const { return currentRep; }

    /** Fresh span id (never 0). */
    std::uint64_t nextId();

    /** Append a finished span to the calling thread's buffer. */
    void push(const SpanRecord &rec);

    /**
     * Write all spans as tab-separated lines.  Call only after every
     * thread that recorded spans has finished.  @return success.
     */
    bool write(const std::string &path) const;

  private:
    std::vector<SpanRecord> &localBuffer();

    /** Tells this tracer's thread buffers from an earlier tracer's
     *  that lived at the same address. */
    const std::uint64_t generation;
    mutable std::mutex mu; ///< guards `buffers`
    std::vector<std::unique_ptr<std::vector<SpanRecord>>> buffers;
    std::atomic<std::uint64_t> lastId{0};
    std::atomic<int> currentRep{0};
};

/**
 * RAII span.  The parent is the innermost open span of this thread,
 * or `parent` when given (spans opened on pool threads hang off the
 * span that submitted them).
 */
class Span
{
  public:
    Span(Tracer &tracer, const char *name, std::int64_t key,
         std::uint64_t parent = 0);
    ~Span();

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    std::uint64_t id() const { return rec.id; }

  private:
    Tracer &tr;
    SpanRecord rec;
    std::uint64_t savedTop;
};

/** Nanoseconds on the monotonic clock. */
std::int64_t monoNs();

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
