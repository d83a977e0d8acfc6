#include "trace.hh"

#include <chrono>
#include <cstdio>

namespace perfbench {

namespace {

/** Innermost open span of this thread (0: none). */
thread_local std::uint64_t tlsTop = 0;

/** This thread's span buffer and the tracer generation owning it. */
thread_local std::uint64_t tlsGeneration = 0;
thread_local std::vector<SpanRecord> *tlsBuffer = nullptr;

std::atomic<std::uint64_t> lastGeneration{0};

} // namespace

Tracer::Tracer() : generation(++lastGeneration) {}

std::vector<SpanRecord> &
Tracer::localBuffer()
{
    if (tlsGeneration != generation) {
        std::lock_guard<std::mutex> lk(mu);
        buffers.push_back(std::make_unique<std::vector<SpanRecord>>());
        tlsBuffer = buffers.back().get();
        tlsGeneration = generation;
    }
    return *tlsBuffer;
}

std::int64_t
monoNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::uint64_t
Tracer::nextId()
{
    return ++lastId;
}

void
Tracer::push(const SpanRecord &rec)
{
    localBuffer().push_back(rec);
}

bool
Tracer::write(const std::string &path) const
{
    std::lock_guard<std::mutex> lk(mu);
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fputs("rep\tid\tparent\tname\tstart_ns\tend_ns\tkey\n", f);
    for (const auto &buf : buffers)
        for (const SpanRecord &s : *buf)
            std::fprintf(f, "%d\t%llu\t%llu\t%s\t%lld\t%lld\t%lld\n",
                         s.rep, static_cast<unsigned long long>(s.id),
                         static_cast<unsigned long long>(s.parent), s.name,
                         static_cast<long long>(s.startNs),
                         static_cast<long long>(s.endNs),
                         static_cast<long long>(s.key));
    return std::fclose(f) == 0;
}

Span::Span(Tracer &tracer, const char *name, std::int64_t key,
           std::uint64_t parent)
    : tr(tracer), savedTop(tlsTop)
{
    rec.id = tr.nextId();
    rec.parent = parent ? parent : tlsTop;
    rec.name = name;
    rec.key = key;
    rec.rep = tr.rep();
    tlsTop = rec.id;
    rec.startNs = monoNs();
}

Span::~Span()
{
    rec.endNs = monoNs();
    tlsTop = savedTop;
    tr.push(rec);
}

} // namespace perfbench
