/**
 * @file
 * The bench rig: one report envelope for every gated comparison, plus
 * the helpers the comparisons share.
 *
 * A comparison fills one Report and finish() prints it, writes
 * `BENCH_<bench>.json` (schema "scamv-bench-v1") and returns the
 * verdict.  The envelope carries:
 *
 *  - `bench` and a free-form `workload` object;
 *  - `legs`: leg name -> named numbers, every one finite and >= 0;
 *  - `gates`: each `{name, value, op, bound}` with op one of `>=`,
 *    `<=`, `==`, or `{any_of: [...]}` when either of two measures may
 *    carry a claim (an exact, host-independent count or the honest
 *    wall clock);
 *  - `pass`: every gate holds.
 *
 * Numbers are written with %.17g, so scripts/check_bench_json.py
 * re-evaluates each gate on the very doubles the bench compared and
 * never has to trust the writer's `pass`.  A non-finite number is
 * written as null, which the validator rejects.
 */

#ifndef SCAMV_BENCH_RIG_HH
#define SCAMV_BENCH_RIG_HH

#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/expdb.hh"
#include "core/pipeline.hh"
#include "shard/shard.hh"
#include "support/metrics.hh"
#include "support/stopwatch.hh"
#include "support/thread_pool.hh"

namespace scamv::bench {

enum class Op { Ge, Le, Eq };

inline const char *
opText(Op op)
{
    switch (op) {
    case Op::Ge:
        return ">=";
    case Op::Le:
        return "<=";
    case Op::Eq:
        return "==";
    }
    return "?";
}

/** One measured value held against its bound. */
struct Check {
    std::string name;
    double value = 0.0;
    Op op = Op::Ge;
    double bound = 0.0;

    bool
    ok() const
    {
        switch (op) {
        case Op::Ge:
            return value >= bound;
        case Op::Le:
            return value <= bound;
        case Op::Eq:
            return value == bound;
        }
        return false;
    }
};

/** Named numbers in insertion order. */
using Numbers = std::vector<std::pair<std::string, double>>;

/** JSON number at full precision; null when not finite. */
inline std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/** One gated comparison's report in the "scamv-bench-v1" envelope. */
class Report
{
  public:
    explicit Report(std::string bench) : bench_(std::move(bench)) {}

    void
    workload(const std::string &key, double v)
    {
        workload_.emplace_back(key, jsonNumber(v));
    }

    void
    workload(const std::string &key, const std::string &v)
    {
        workload_.emplace_back(key, "\"" + v + "\"");
    }

    void
    leg(const std::string &name, Numbers numbers)
    {
        legs_.emplace_back(name, std::move(numbers));
    }

    void
    gate(std::string name, double value, Op op, double bound)
    {
        gates_.push_back({{std::move(name), value, op, bound}});
    }

    /** A gate that holds when any one of `checks` does. */
    void
    anyOf(std::vector<Check> checks)
    {
        gates_.push_back(std::move(checks));
    }

    /** Nest an artifact that carries its own schema (the validator
     *  checks it by that schema). */
    void
    embed(const std::string &key, std::string json)
    {
        while (!json.empty() &&
               std::isspace(static_cast<unsigned char>(json.back())))
            json.pop_back();
        embedded_.emplace_back(key, std::move(json));
    }

    /** True when there is at least one gate and every gate holds. */
    bool
    pass() const
    {
        if (gates_.empty())
            return false;
        for (const std::vector<Check> &g : gates_)
            if (!holds(g))
                return false;
        return true;
    }

    std::string path() const { return "BENCH_" + bench_ + ".json"; }

    std::string
    json() const
    {
        std::string out = "{\n  \"schema\": \"scamv-bench-v1\",\n"
                          "  \"bench\": \"" +
                          bench_ + "\",\n  \"workload\": {";
        for (std::size_t i = 0; i < workload_.size(); ++i)
            out += (i ? ", \"" : "\"") + workload_[i].first +
                   "\": " + workload_[i].second;
        out += "},\n  \"legs\": {";
        for (std::size_t i = 0; i < legs_.size(); ++i) {
            out += (i ? ",\n    \"" : "\n    \"") + legs_[i].first +
                   "\": {";
            const Numbers &nums = legs_[i].second;
            for (std::size_t k = 0; k < nums.size(); ++k)
                out += (k ? ", \"" : "\"") + nums[k].first +
                       "\": " + jsonNumber(nums[k].second);
            out += "}";
        }
        out += "\n  },\n  \"gates\": [";
        for (std::size_t i = 0; i < gates_.size(); ++i) {
            out += i ? ",\n    " : "\n    ";
            const std::vector<Check> &g = gates_[i];
            if (g.size() == 1) {
                out += checkJson(g[0]);
                continue;
            }
            out += "{\"any_of\": [";
            for (std::size_t k = 0; k < g.size(); ++k)
                out += (k ? ", " : "") + checkJson(g[k]);
            out += "]}";
        }
        out += "\n  ],\n";
        for (const auto &[key, text] : embedded_)
            out += "  \"" + key + "\": " + text + ",\n";
        out += std::string("  \"pass\": ") +
               (pass() ? "true" : "false") + "\n}\n";
        return out;
    }

    /**
     * Print every leg and gate, write path(), and return true only
     * when the file was written and pass() holds.  The report is
     * written whatever the verdict, so a failing gate leaves its
     * numbers behind.
     */
    bool
    finish() const
    {
        const char *tag = bench_.c_str();
        for (const auto &[name, nums] : legs_) {
            std::printf("[%s] %s:", tag, name.c_str());
            for (const auto &[key, v] : nums)
                std::printf("  %s %.6g", key.c_str(), v);
            std::printf("\n");
        }
        for (const std::vector<Check> &g : gates_) {
            std::printf("[%s] gate", tag);
            for (std::size_t k = 0; k < g.size(); ++k)
                std::printf("%s %s %.6g %s %.6g", k ? " |" : "",
                            g[k].name.c_str(), g[k].value,
                            opText(g[k].op), g[k].bound);
            std::printf("  %s\n", holds(g) ? "ok" : "FAIL");
        }
        std::ofstream out(path());
        const bool wrote = out && (out << json()) && out.flush();
        if (!wrote)
            std::printf("[%s] cannot write %s\n", tag, path().c_str());
        const bool ok = wrote && pass();
        std::printf("[%s] %s (%s)\n", tag, ok ? "PASS" : "FAIL",
                    path().c_str());
        std::fflush(stdout);
        return ok;
    }

  private:
    static bool
    holds(const std::vector<Check> &g)
    {
        for (const Check &c : g)
            if (c.ok())
                return true;
        return false;
    }

    static std::string
    checkJson(const Check &c)
    {
        return "{\"name\": \"" + c.name + "\", \"value\": " +
               jsonNumber(c.value) + ", \"op\": \"" + opText(c.op) +
               "\", \"bound\": " + jsonNumber(c.bound) + "}";
    }

    std::string bench_;
    std::vector<std::pair<std::string, std::string>> workload_;
    std::vector<std::pair<std::string, Numbers>> legs_;
    std::vector<std::vector<Check>> gates_;
    std::vector<std::pair<std::string, std::string>> embedded_;
};

/** Whole file contents, or nullopt when it cannot be read. */
inline std::optional<std::string>
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return std::nullopt;
    std::ostringstream text;
    text << in.rdbuf();
    if (in.bad())
        return std::nullopt;
    return text.str();
}

/**
 * The one byte-compare: true only when both sides were read, are
 * non-empty and are identical.  An unreadable or empty side never
 * agrees, so two failed exports cannot pass as "deterministic".
 */
inline bool
sameBytes(const std::optional<std::string> &a,
          const std::optional<std::string> &b)
{
    return a && b && !a->empty() && *a == *b;
}

/** `db` exported through a CSV file at `path` (removed afterwards);
 *  nullopt when the export or the read-back fails. */
inline std::optional<std::string>
exportedCsv(const core::ExperimentDb &db, const std::string &path)
{
    std::remove(path.c_str());
    std::optional<std::string> text;
    if (db.exportCsv(path))
        text = slurp(path);
    std::remove(path.c_str());
    return text;
}

/** Byte-compare the campaign artifact set of two directories. */
inline bool
sameCampaignArtifacts(const std::string &a, const std::string &b)
{
    for (const char *f : {shard::kMetricsFile, shard::kCoverageFile,
                          shard::kDbFile, shard::kStatsFile})
        if (!sameBytes(slurp(a + "/" + f), slurp(b + "/" + f)))
            return false;
    return true;
}

inline std::uint64_t
globalCounter(const char *name)
{
    return metrics::Registry::global().counter(name).value();
}

/** The paper's stride workload that the hotpath and coverage
 *  comparisons share: Mpart refined by Mpart' with Mline coverage,
 *  attacker partition = sets 61..127. */
inline core::PipelineConfig
strideCampaign(int programs)
{
    core::PipelineConfig cfg;
    cfg.templateKind = gen::TemplateKind::Stride;
    cfg.model = obs::ModelKind::Mpart;
    cfg.refinement = obs::ModelKind::MpartRefined;
    cfg.coverage = core::Coverage::PcAndLine;
    cfg.testsPerProgram = 8;
    cfg.seed = 99;
    cfg.modelParams.attacker.loSet = 61;
    cfg.platform.visibleLoSet = 61;
    cfg.platform.visibleHiSet = 127;
    cfg.programs = programs;
    return cfg;
}

/**
 * Run `cfg` at threads=1 and threads=hardware_concurrency, record
 * both wall clocks as leg `campaign` and gate on the two runs
 * agreeing on every counter (they share a seed), so the speedup
 * always describes equivalent work.
 * @return the serial run's stats (timing fields carry the reference
 *         single-thread meaning).
 */
inline core::RunStats
compareParallel(Report &report, const std::string &campaign,
                core::PipelineConfig cfg)
{
    const int n = static_cast<int>(ThreadPool::defaultThreadCount());

    cfg.threads = 1;
    Stopwatch serial_watch;
    const core::RunStats serial = core::Pipeline(cfg).run();
    const double serial_s = serial_watch.seconds();

    cfg.threads = n;
    Stopwatch parallel_watch;
    const core::RunStats parallel = core::Pipeline(cfg).run();
    const double parallel_s = parallel_watch.seconds();

    // The merged metrics counters subsume the legacy RunStats fields
    // (which are rebuilt from them), and also cover every
    // solver/hardware counter reported by the layers below.  Timings
    // are excluded: in wall-clock mode they legitimately differ
    // between the two runs.
    const bool identical =
        serial.programs == parallel.programs &&
        serial.programsWithCex == parallel.programsWithCex &&
        serial.experiments == parallel.experiments &&
        serial.counterexamples == parallel.counterexamples &&
        serial.inconclusive == parallel.inconclusive &&
        serial.generationFailures == parallel.generationFailures &&
        serial.metrics.counters == parallel.metrics.counters;

    report.leg(campaign, {{"threads", n},
                          {"serial_s", serial_s},
                          {"parallel_s", parallel_s},
                          {"speedup", parallel_s > 0
                                          ? serial_s / parallel_s
                                          : 0.0}});
    report.gate(campaign + ".threads", n, Op::Ge, 1);
    report.gate(campaign + ".deterministic", identical, Op::Eq, 1);
    return serial;
}

} // namespace scamv::bench

#endif // SCAMV_BENCH_RIG_HH
