#include "common.hh"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include <sys/resource.h>

namespace perfbench {

double
wallNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
cpuNow()
{
    rusage u{};
    getrusage(RUSAGE_SELF, &u);
    auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return sec(u.ru_utime) + sec(u.ru_stime);
}

double
peakRssMb()
{
    rusage u{};
    getrusage(RUSAGE_SELF, &u);
    return static_cast<double>(u.ru_maxrss) / 1024.0; // KiB on Linux
}

std::uint64_t
fnv1a(const std::string &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    return in ? text.str() : std::string();
}

std::uint64_t
mix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

int
benchThreads()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw < 4 ? hw : 4);
}

namespace {

std::string
renderDouble(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    return buf;
}

} // namespace

Json &
Json::num(const std::string &key, double v)
{
    fields.emplace_back(key, renderDouble(v));
    return *this;
}

Json &
Json::num(const std::string &key, std::int64_t v)
{
    fields.emplace_back(key, std::to_string(v));
    return *this;
}

Json &
Json::str(const std::string &key, const std::string &v)
{
    fields.emplace_back(key, jsonString(v));
    return *this;
}

Json &
Json::boolean(const std::string &key, bool v)
{
    fields.emplace_back(key, v ? "true" : "false");
    return *this;
}

Json &
Json::raw(const std::string &key, const std::string &json)
{
    fields.emplace_back(key, json);
    return *this;
}

std::string
Json::render() const
{
    std::string out = "{";
    for (std::size_t i = 0; i < fields.size(); ++i) {
        if (i)
            out += ", ";
        out += jsonString(fields[i].first) + ": " + fields[i].second;
    }
    return out + "}";
}

std::string
jsonArray(const std::vector<std::string> &items)
{
    std::string out = "[";
    for (std::size_t i = 0; i < items.size(); ++i)
        out += (i ? ", " : "") + items[i];
    return out + "]";
}

std::string
jsonNumbers(const std::vector<double> &values)
{
    std::vector<std::string> items;
    items.reserve(values.size());
    for (double v : values)
        items.push_back(renderDouble(v));
    return jsonArray(items);
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (unsigned char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += static_cast<char>(c);
        } else if (c < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += static_cast<char>(c);
        }
    }
    return out + "\"";
}

void
Checks::record(const std::string &name, bool ok,
               const std::string &detail)
{
    std::lock_guard<std::mutex> lk(mu);
    entries.push_back(Entry{name, ok, detail});
    if (!ok)
        std::fprintf(stderr, "perfbench: check %s FAILED: %s\n",
                     name.c_str(), detail.c_str());
}

std::int64_t
Checks::total() const
{
    std::lock_guard<std::mutex> lk(mu);
    return static_cast<std::int64_t>(entries.size());
}

std::int64_t
Checks::failedCount() const
{
    std::lock_guard<std::mutex> lk(mu);
    std::int64_t n = 0;
    for (const Entry &e : entries)
        n += e.ok ? 0 : 1;
    return n;
}

std::string
Checks::json() const
{
    std::lock_guard<std::mutex> lk(mu);
    // Repeated checks of one name collapse to a count, keeping the
    // raw file small; every failure keeps its detail.
    std::map<std::string, std::pair<std::int64_t, std::int64_t>> by_name;
    std::vector<std::string> failures;
    for (const Entry &e : entries) {
        auto &[n, bad] = by_name[e.name];
        ++n;
        if (!e.ok) {
            ++bad;
            failures.push_back(Json()
                                   .str("name", e.name)
                                   .str("detail", e.detail)
                                   .render());
        }
    }
    std::vector<std::string> items;
    for (const auto &[name, nb] : by_name)
        items.push_back(Json()
                            .str("name", name)
                            .num("runs", nb.first)
                            .num("failed", nb.second)
                            .render());
    return Json()
        .raw("summary", jsonArray(items))
        .raw("failures", jsonArray(failures))
        .render();
}

std::string
Tally::describe() const
{
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "programs=%d with_cex=%d experiments=%lld cex=%lld "
                  "inconclusive=%lld gen_failures=%lld screened=%lld "
                  "failed=%d quarantined=%d csv=%016llx",
                  programs, programsWithCex,
                  static_cast<long long>(experiments),
                  static_cast<long long>(counterexamples),
                  static_cast<long long>(inconclusive),
                  static_cast<long long>(generationFailures),
                  static_cast<long long>(screened), failedPrograms,
                  quarantined,
                  static_cast<unsigned long long>(csvDigest));
    return buf;
}

Tally
tallyOf(const scamv::core::RunStats &stats,
        const scamv::core::ExperimentDb &db, const std::string &csv)
{
    Tally t;
    t.programs = stats.programs;
    t.programsWithCex = stats.programsWithCex;
    t.experiments = stats.experiments;
    t.counterexamples = stats.counterexamples;
    t.inconclusive = stats.inconclusive;
    t.generationFailures = stats.generationFailures;
    t.screened = stats.screened;
    t.failedPrograms = static_cast<int>(stats.failedPrograms.size());
    t.quarantined = static_cast<int>(stats.quarantinedPrograms.size());
    t.csvDigest = db.exportCsv(csv) ? fnv1a(readFile(csv)) : 0;
    std::remove(csv.c_str());
    return t;
}

std::uint64_t
counterOf(const scamv::metrics::Snapshot &snap, const std::string &name)
{
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0 : it->second;
}

std::string
buildJson()
{
    return Json()
        .str("type", PERFBENCH_BUILD_TYPE)
        .str("flags", PERFBENCH_CXX_FLAGS)
        .str("compiler", PERFBENCH_COMPILER)
        .render();
}

} // namespace perfbench
