/** @file Tests for the metrics registry and campaign observability. */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "core/pipeline.hh"
#include "support/metrics.hh"
#include "support/thread_pool.hh"

namespace scamv::metrics {
namespace {

// ---- Primitives ----------------------------------------------------

TEST(Metrics, CounterBasics)
{
    Registry reg;
    Counter &c = reg.counter("c");
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    c.add(41);
    EXPECT_EQ(c.value(), 42u);
    // Lookup by name returns the same counter.
    EXPECT_EQ(&reg.counter("c"), &c);
    EXPECT_NE(&reg.counter("other"), &c);
}

TEST(Metrics, GaugeSetAndAdd)
{
    Registry reg;
    Gauge &g = reg.gauge("g");
    g.set(1.5);
    EXPECT_DOUBLE_EQ(g.value(), 1.5);
    g.add(2.0);
    EXPECT_DOUBLE_EQ(g.value(), 3.5);
    g.set(-1.0);
    EXPECT_DOUBLE_EQ(g.value(), -1.0);
}

TEST(Metrics, HistogramBucketingEdgeCases)
{
    Registry reg;
    Histogram &h = reg.histogram("h", {1.0, 2.0, 4.0});
    // bounds.size() + 1 buckets, all empty.
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_EQ(h.bucketCount(i), 0u);

    h.observe(0.5);  // below first bound -> bucket 0
    h.observe(1.0);  // exactly on a bound -> inclusive upper: bucket 0
    h.observe(1.01); // just above -> bucket 1
    h.observe(2.0);  // bucket 1
    h.observe(4.0);  // bucket 2
    h.observe(4.01); // above last bound -> overflow bucket 3
    h.observe(1e30); // far overflow -> bucket 3

    EXPECT_EQ(h.bucketCount(0), 2u);
    EXPECT_EQ(h.bucketCount(1), 2u);
    EXPECT_EQ(h.bucketCount(2), 1u);
    EXPECT_EQ(h.bucketCount(3), 2u);
    EXPECT_EQ(h.count(), 7u);
    EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.01 + 2.0 + 4.0 + 4.01 + 1e30);
}

TEST(Metrics, QuantileEdgeCases)
{
    // Empty histogram: every quantile is 0 by convention.
    HistogramData empty;
    empty.bounds = {1.0, 2.0};
    empty.counts = {0, 0, 0};
    EXPECT_DOUBLE_EQ(empty.quantile(0.0), 0.0);
    EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);
    EXPECT_DOUBLE_EQ(empty.quantile(1.0), 0.0);
    // Degenerate: no bounds at all.
    HistogramData bare;
    EXPECT_DOUBLE_EQ(bare.quantile(0.5), 0.0);

    // Single sample in bucket (1, 2]: q=0 interpolates to the bucket
    // floor, q=1 to its ceiling.
    HistogramData single;
    single.bounds = {1.0, 2.0};
    single.counts = {0, 1, 0};
    single.sum = 1.5;
    single.count = 1;
    EXPECT_DOUBLE_EQ(single.quantile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(single.quantile(1.0), 2.0);

    // Samples in the overflow bucket clamp to the last finite bound.
    HistogramData overflow;
    overflow.bounds = {1.0, 2.0};
    overflow.counts = {0, 0, 3};
    overflow.count = 3;
    EXPECT_DOUBLE_EQ(overflow.quantile(0.5), 2.0);
    EXPECT_DOUBLE_EQ(overflow.quantile(1.0), 2.0);
}

TEST(Metrics, HistogramBoundsMustAgreeOnReLookup)
{
    Registry reg;
    reg.histogram("h", {1.0, 2.0});
    // Same bounds: fine, same object.
    Histogram &again = reg.histogram("h", {1.0, 2.0});
    EXPECT_EQ(again.bounds().size(), 2u);
    EXPECT_DEATH(reg.histogram("h", {3.0}), "");
}

// ---- Thread safety -------------------------------------------------

TEST(Metrics, ConcurrentIncrementsFromThreadPool)
{
    Registry reg;
    constexpr int kTasks = 64;
    constexpr int kPerTask = 1000;
    {
        ThreadPool pool(8);
        for (int t = 0; t < kTasks; ++t) {
            pool.submit([&reg] {
                for (int i = 0; i < kPerTask; ++i) {
                    reg.counter("shared").inc();
                    reg.gauge("accum").add(1.0);
                    reg.histogram("lat").observe(1e-5);
                }
            });
        }
        pool.wait();
    }
    const Snapshot snap = reg.snapshot();
    EXPECT_EQ(snap.counters.at("shared"),
              static_cast<std::uint64_t>(kTasks) * kPerTask);
    EXPECT_DOUBLE_EQ(snap.gauges.at("accum"), double(kTasks) * kPerTask);
    EXPECT_EQ(snap.histograms.at("lat").count,
              static_cast<std::uint64_t>(kTasks) * kPerTask);
}

TEST(Metrics, ScopedRegistryIsPerThread)
{
    Registry task_reg;
    {
        ScopedRegistry scoped(task_reg);
        current().counter("seen").inc();
        // Another thread without a scope reports to the global
        // registry, not to this thread's override.
        const std::uint64_t global0 =
            Registry::global().snapshot().counters.count("seen")
                ? Registry::global().snapshot().counters.at("seen")
                : 0;
        ThreadPool pool(1);
        pool.submit([] { current().counter("seen").inc(); });
        pool.wait();
        EXPECT_EQ(task_reg.counter("seen").value(), 1u);
        EXPECT_EQ(Registry::global().counter("seen").value(),
                  global0 + 1);
    }
    // Scope popped: this thread reports globally again.
    Registry &after = current();
    EXPECT_EQ(&after, &Registry::global());
}

TEST(Metrics, ScopedRegistryNests)
{
    Registry outer, inner;
    ScopedRegistry a(outer);
    EXPECT_EQ(&current(), &outer);
    {
        ScopedRegistry b(inner);
        EXPECT_EQ(&current(), &inner);
    }
    EXPECT_EQ(&current(), &outer);
}

// ---- Clock modes ---------------------------------------------------

TEST(Metrics, DeterministicClockAdvancesPerCall)
{
    Registry reg(ClockMode::Deterministic);
    const double t1 = reg.now();
    const double t2 = reg.now();
    // peek() reads the clock without adding a tick.
    EXPECT_DOUBLE_EQ(reg.peek(), t2);
    EXPECT_DOUBLE_EQ(reg.peek(), t2);
    const double t3 = reg.now();
    EXPECT_DOUBLE_EQ(t2 - t1, 1e-6);
    EXPECT_DOUBLE_EQ(t3 - t2, 1e-6);
}

TEST(Metrics, PhaseTimerRecordsIntoPhaseHistogram)
{
    Registry reg(ClockMode::Deterministic);
    {
        PhaseTimer phase(reg, "demo");
    }
    const Snapshot snap = reg.snapshot();
    const HistogramData &h = snap.histograms.at("phase.demo_seconds");
    EXPECT_EQ(h.count, 1u);
    // Ctor and dtor each read the clock once: exactly one tick.
    EXPECT_DOUBLE_EQ(h.sum, 1e-6);
}

// ---- Snapshots -----------------------------------------------------

TEST(Metrics, SnapshotMergeAddsEverything)
{
    Registry a, b;
    a.counter("c").add(2);
    b.counter("c").add(3);
    b.counter("only_b").inc();
    a.gauge("g").set(1.25);
    b.gauge("g").set(0.25);
    a.histogram("h", {1.0}).observe(0.5);
    b.histogram("h", {1.0}).observe(2.0);

    Snapshot merged = a.snapshot();
    merged.merge(b.snapshot());
    EXPECT_EQ(merged.counters.at("c"), 5u);
    EXPECT_EQ(merged.counters.at("only_b"), 1u);
    EXPECT_DOUBLE_EQ(merged.gauges.at("g"), 1.5);
    const HistogramData &h = merged.histograms.at("h");
    EXPECT_EQ(h.count, 2u);
    EXPECT_EQ(h.counts[0], 1u); // 0.5 <= 1.0
    EXPECT_EQ(h.counts[1], 1u); // 2.0 overflows
    EXPECT_DOUBLE_EQ(h.sum, 2.5);
}

TEST(Metrics, JsonIsByteStableAndRoundTripsToDisk)
{
    Registry reg(ClockMode::Deterministic);
    reg.counter("z.last").add(7);
    reg.counter("a.first").inc();
    reg.gauge("mid").set(0.1);
    reg.histogram("lat").observe(2e-6);

    const Snapshot snap = reg.snapshot();
    const std::string json = toJson(snap);
    EXPECT_EQ(json, toJson(snap)); // pure function of the snapshot
    EXPECT_NE(json.find("\"schema\": \"scamv-metrics-v1\""),
              std::string::npos);
    // Sorted key order: "a.first" renders before "z.last".
    EXPECT_LT(json.find("a.first"), json.find("z.last"));

    const std::string path = "test_metrics_out.json";
    ASSERT_TRUE(writeJson(snap, path));
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    EXPECT_EQ(buf.str(), json);
    std::remove(path.c_str());
}

TEST(Metrics, TableListsEveryMetric)
{
    Registry reg;
    reg.counter("pipeline.experiments").add(12);
    reg.histogram("phase.smt_seconds").observe(0.5);
    const std::string table = toTable(reg.snapshot()).render();
    EXPECT_NE(table.find("pipeline.experiments"), std::string::npos);
    EXPECT_NE(table.find("phase.smt_seconds"), std::string::npos);
}

// ---- Campaign integration ------------------------------------------

core::PipelineConfig
campaignConfig()
{
    core::PipelineConfig cfg;
    cfg.programs = 6;
    cfg.testsPerProgram = 6;
    cfg.seed = 42;
    cfg.deterministicMetricsTiming = true;
    return cfg;
}

TEST(MetricsPipeline, SnapshotPopulatedAndConsistentWithStats)
{
    core::PipelineConfig cfg = campaignConfig();
    cfg.threads = 1;
    const core::RunStats stats = core::Pipeline(cfg).run();

    const auto &c = stats.metrics.counters;
    // The legacy RunStats fields are views of the snapshot.
    EXPECT_EQ(c.at("pipeline.programs"),
              static_cast<std::uint64_t>(stats.programs));
    EXPECT_EQ(c.at("pipeline.experiments"),
              static_cast<std::uint64_t>(stats.experiments));
    // The instrumented layers below all reported in.
    EXPECT_GT(c.at("smt.queries"), 0u);
    EXPECT_GT(c.at("sat.solve_calls"), 0u);
    EXPECT_GT(c.at("hw.runs"), 0u);
    EXPECT_GT(c.at("platform.experiments"), 0u);
    EXPECT_GT(c.at("hw.cache.hits") + c.at("hw.cache.misses"), 0u);
    // Phase histograms cover the whole path, including the merge.
    for (const char *phase :
         {"phase.generate_seconds", "phase.symbolic_exec_seconds",
          "phase.relation_synthesis_seconds", "phase.smt_seconds",
          "phase.hw_run_seconds", "phase.db_merge_seconds"})
        EXPECT_GT(stats.metrics.histograms.at(phase).count, 0u)
            << phase;
    // Derived timing fields come from the phase histograms.
    EXPECT_GT(stats.totalGenSeconds, 0.0);
    EXPECT_GT(stats.totalExeSeconds, 0.0);
}

TEST(MetricsPipeline, JsonByteIdenticalAcrossThreadCounts)
{
    core::PipelineConfig cfg = campaignConfig();

    cfg.threads = 1;
    const core::RunStats serial = core::Pipeline(cfg).run();
    cfg.threads = 4;
    const core::RunStats parallel = core::Pipeline(cfg).run();

    EXPECT_EQ(serial.metrics, parallel.metrics);
    EXPECT_EQ(toJson(serial.metrics), toJson(parallel.metrics));
}

TEST(MetricsPipeline, WallClockCountersStillDeterministic)
{
    // Without the deterministic clock the timings differ, but every
    // counter must still be thread-count independent.
    core::PipelineConfig cfg = campaignConfig();
    cfg.deterministicMetricsTiming = false;

    cfg.threads = 1;
    const core::RunStats serial = core::Pipeline(cfg).run();
    cfg.threads = 4;
    const core::RunStats parallel = core::Pipeline(cfg).run();

    EXPECT_EQ(serial.metrics.counters, parallel.metrics.counters);
}

TEST(MetricsPipeline, ScamvMetricsEnvWritesJson)
{
    const std::string path = "test_metrics_env.json";
    ::setenv("SCAMV_METRICS", path.c_str(), 1);
    core::PipelineConfig cfg = campaignConfig();
    cfg.programs = 2;
    cfg.threads = 1;
    const core::RunStats stats = core::Pipeline(cfg).run();
    ::unsetenv("SCAMV_METRICS");

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream buf;
    buf << in.rdbuf();
    EXPECT_EQ(buf.str(), toJson(stats.metrics));
    std::remove(path.c_str());
}

} // namespace
} // namespace scamv::metrics
