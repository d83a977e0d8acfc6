#include "support/metrics.hh"

#include <algorithm>
#include <chrono>

#include "support/logging.hh"
#include "support/textcodec.hh"

namespace scamv::metrics {

void
Gauge::add(double x)
{
    double cur = v.load(std::memory_order_relaxed);
    while (!v.compare_exchange_weak(cur, cur + x,
                                    std::memory_order_relaxed))
        ;
}

Histogram::Histogram(std::vector<double> bounds) : bnds(std::move(bounds))
{
    SCAMV_ASSERT(std::is_sorted(bnds.begin(), bnds.end()),
                 "histogram bounds must be ascending");
    SCAMV_ASSERT(std::adjacent_find(bnds.begin(), bnds.end()) ==
                     bnds.end(),
                 "histogram bounds must be distinct");
    counts =
        std::make_unique<std::atomic<std::uint64_t>[]>(bnds.size() + 1);
}

void
Histogram::observe(double x)
{
    // First bound >= x; everything above the last bound lands in the
    // implicit overflow bucket at index bnds.size().
    const std::size_t i = static_cast<std::size_t>(
        std::lower_bound(bnds.begin(), bnds.end(), x) - bnds.begin());
    counts[i].fetch_add(1, std::memory_order_relaxed);
    n.fetch_add(1, std::memory_order_relaxed);
    double cur = total.load(std::memory_order_relaxed);
    while (!total.compare_exchange_weak(cur, cur + x,
                                        std::memory_order_relaxed))
        ;
}

void
Histogram::accumulate(const HistogramData &data)
{
    SCAMV_ASSERT(data.bounds == bnds,
                 "histogram accumulate: bounds mismatch");
    SCAMV_ASSERT(data.counts.size() == bnds.size() + 1,
                 "histogram accumulate: bucket count mismatch");
    for (std::size_t i = 0; i < data.counts.size(); ++i)
        counts[i].fetch_add(data.counts[i], std::memory_order_relaxed);
    n.fetch_add(data.count, std::memory_order_relaxed);
    double cur = total.load(std::memory_order_relaxed);
    while (!total.compare_exchange_weak(cur, cur + data.sum,
                                        std::memory_order_relaxed))
        ;
}

std::uint64_t
Histogram::bucketCount(std::size_t i) const
{
    SCAMV_ASSERT(i <= bnds.size(), "histogram bucket out of range");
    return counts[i].load(std::memory_order_relaxed);
}

double
HistogramData::quantile(double q) const
{
    SCAMV_ASSERT(q >= 0.0 && q <= 1.0, "quantile: q out of [0, 1]");
    if (count == 0)
        return 0.0;
    // Rank of the requested sample, 1-based; q=0 maps to rank 1.
    const double rank = q * static_cast<double>(count);
    double cum = 0.0;
    for (std::size_t i = 0; i < counts.size(); ++i) {
        const double prev = cum;
        cum += static_cast<double>(counts[i]);
        if (cum < rank || counts[i] == 0)
            continue;
        if (i >= bounds.size()) {
            // Overflow bucket has no upper bound; clamp to the last
            // finite bound (Prometheus convention).
            return bounds.empty() ? 0.0 : bounds.back();
        }
        const double lo = i == 0 ? 0.0 : bounds[i - 1];
        const double hi = bounds[i];
        const double frac =
            (rank - prev) / static_cast<double>(counts[i]);
        return lo + (hi - lo) * (frac < 0.0 ? 0.0 : frac);
    }
    return bounds.empty() ? 0.0 : bounds.back();
}

const std::vector<double> &
latencyBounds()
{
    static const std::vector<double> bounds{1e-6, 1e-5, 1e-4, 1e-3,
                                            1e-2, 1e-1, 1.0,  10.0};
    return bounds;
}

Registry::Registry(ClockMode clock_mode) : mode(clock_mode) {}

Counter &
Registry::counter(std::string_view name)
{
    std::lock_guard<std::mutex> lock(m);
    auto it = counters.find(name);
    if (it == counters.end())
        it = counters
                 .emplace(std::string(name), std::make_unique<Counter>())
                 .first;
    return *it->second;
}

Gauge &
Registry::gauge(std::string_view name)
{
    std::lock_guard<std::mutex> lock(m);
    auto it = gauges.find(name);
    if (it == gauges.end())
        it = gauges.emplace(std::string(name), std::make_unique<Gauge>())
                 .first;
    return *it->second;
}

Histogram &
Registry::histogram(std::string_view name,
                    const std::vector<double> &bounds)
{
    std::lock_guard<std::mutex> lock(m);
    auto it = histograms.find(name);
    if (it == histograms.end()) {
        it = histograms
                 .emplace(std::string(name),
                          std::make_unique<Histogram>(bounds))
                 .first;
    } else {
        SCAMV_ASSERT(it->second->bounds() == bounds,
                     "histogram re-registered with different bounds: " +
                         std::string(name));
    }
    return *it->second;
}

double
Registry::now()
{
    if (mode == ClockMode::Deterministic) {
        // A synthetic clock: 1 µs per call, so durations depend only
        // on the instrumented call sequence, never on the machine.
        return static_cast<double>(
                   ticks.fetch_add(1, std::memory_order_relaxed) + 1) *
               1e-6;
    }
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

Snapshot
Registry::snapshot() const
{
    Snapshot snap;
    std::lock_guard<std::mutex> lock(m);
    for (const auto &[name, c] : counters)
        snap.counters[name] = c->value();
    for (const auto &[name, g] : gauges)
        snap.gauges[name] = g->value();
    for (const auto &[name, h] : histograms) {
        HistogramData d;
        d.bounds = h->bounds();
        d.counts.reserve(d.bounds.size() + 1);
        for (std::size_t i = 0; i <= d.bounds.size(); ++i)
            d.counts.push_back(h->bucketCount(i));
        d.sum = h->sum();
        d.count = h->count();
        snap.histograms[name] = std::move(d);
    }
    return snap;
}

void
Registry::merge(const Snapshot &snap)
{
    for (const auto &[name, v] : snap.counters)
        counter(name).add(v);
    for (const auto &[name, v] : snap.gauges)
        gauge(name).add(v);
    for (const auto &[name, h] : snap.histograms)
        histogram(name, h.bounds).accumulate(h);
}

void
Registry::reset()
{
    std::lock_guard<std::mutex> lock(m);
    counters.clear();
    gauges.clear();
    histograms.clear();
    ticks.store(0, std::memory_order_relaxed);
}

Registry &
Registry::global()
{
    static Registry instance;
    return instance;
}

void
Snapshot::merge(const Snapshot &other)
{
    for (const auto &[name, v] : other.counters)
        counters[name] += v;
    for (const auto &[name, v] : other.gauges)
        gauges[name] += v;
    for (const auto &[name, h] : other.histograms) {
        auto it = histograms.find(name);
        if (it == histograms.end()) {
            histograms[name] = h;
            continue;
        }
        HistogramData &mine = it->second;
        SCAMV_ASSERT(mine.bounds == h.bounds,
                     "snapshot merge: histogram bounds mismatch: " +
                         name);
        for (std::size_t i = 0; i < mine.counts.size(); ++i)
            mine.counts[i] += h.counts[i];
        mine.sum += h.sum;
        mine.count += h.count;
    }
}

namespace {

thread_local Registry *tlsRegistry = nullptr;

using text::g17;

} // namespace

Registry &
current()
{
    return tlsRegistry ? *tlsRegistry : Registry::global();
}

ScopedRegistry::ScopedRegistry(Registry &registry) : prev(tlsRegistry)
{
    tlsRegistry = &registry;
}

ScopedRegistry::~ScopedRegistry() { tlsRegistry = prev; }

PhaseTimer::PhaseTimer(Registry &registry, std::string_view phase)
    : reg(registry),
      name("phase." + std::string(phase) + "_seconds"),
      start(reg.now())
{}

PhaseTimer::PhaseTimer(std::string_view phase)
    : PhaseTimer(current(), phase)
{}

PhaseTimer::~PhaseTimer()
{
    reg.histogram(name).observe(reg.now() - start);
}

std::string
toJson(const Snapshot &snap)
{
    std::string out;
    out += "{\n  \"schema\": \"scamv-metrics-v1\",\n";

    out += "  \"counters\": {";
    std::size_t i = 0;
    for (const auto &[name, v] : snap.counters) {
        out += i++ ? ",\n    " : "\n    ";
        out += "\"" + name + "\": " + std::to_string(v);
    }
    out += snap.counters.empty() ? "},\n" : "\n  },\n";

    out += "  \"gauges\": {";
    i = 0;
    for (const auto &[name, v] : snap.gauges) {
        out += i++ ? ",\n    " : "\n    ";
        out += "\"" + name + "\": " + g17(v);
    }
    out += snap.gauges.empty() ? "},\n" : "\n  },\n";

    out += "  \"histograms\": {";
    i = 0;
    for (const auto &[name, h] : snap.histograms) {
        out += i++ ? ",\n    " : "\n    ";
        out += "\"" + name + "\": {\"bounds\": [";
        for (std::size_t k = 0; k < h.bounds.size(); ++k) {
            if (k)
                out += ", ";
            out += g17(h.bounds[k]);
        }
        out += "], \"counts\": [";
        for (std::size_t k = 0; k < h.counts.size(); ++k) {
            if (k)
                out += ", ";
            out += std::to_string(h.counts[k]);
        }
        out += "], \"sum\": " + g17(h.sum) +
               ", \"count\": " + std::to_string(h.count) +
               ", \"p50\": " + g17(h.quantile(0.5)) +
               ", \"p99\": " + g17(h.quantile(0.99)) + "}";
    }
    out += snap.histograms.empty() ? "}\n" : "\n  }\n";
    out += "}\n";
    return out;
}

bool
writeJson(const Snapshot &snap, const std::string &path)
{
    return text::writeFile(path, toJson(snap));
}

TextTable
toTable(const Snapshot &snap)
{
    TextTable t;
    t.setHeader({"metric", "kind", "count", "total", "mean"});
    for (const auto &[name, v] : snap.counters)
        t.addRow({name, "counter", std::to_string(v), "", ""});
    for (const auto &[name, v] : snap.gauges)
        t.addRow({name, "gauge", "", fmtDouble(v, 6), ""});
    for (const auto &[name, h] : snap.histograms) {
        t.addRow({name, "histogram", std::to_string(h.count),
                  fmtDouble(h.sum, 6),
                  h.count ? fmtDouble(h.sum /
                                          static_cast<double>(h.count),
                                      6)
                          : "-"});
    }
    return t;
}

} // namespace scamv::metrics
