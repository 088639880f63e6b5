// Tests for the telemetry layer: histogram percentile bounds and merge
// semantics, concurrent recording, the metric registry and its model
// label, the sampler ring, and golden-file checks of every exporter.

#include <gtest/gtest.h>

#include <cstdint>
#include <iomanip>
#include <sstream>
#include <thread>
#include <vector>

#include "neuro/telemetry/export.h"
#include "neuro/telemetry/histogram.h"
#include "neuro/telemetry/metrics.h"
#include "neuro/telemetry/sampler.h"

namespace neuro {
namespace telemetry {
namespace {

// --------------------------------------------------------------------
// LatencyHistogram

TEST(LatencyHistogram, EmptyIsZero)
{
    LatencyHistogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);
    EXPECT_DOUBLE_EQ(h.maxMicros(), 0.0);
    EXPECT_DOUBLE_EQ(h.sumMicros(), 0.0);
}

TEST(LatencyHistogram, PercentileUpperBoundWithinBucketError)
{
    // Log-linear bucketing with 8 sub-buckets per octave bounds the
    // quantile error by the bucket width: <= 12.5% above the true
    // value, never below it.
    LatencyHistogram h;
    for (int i = 1; i <= 1000; ++i)
        h.record(static_cast<double>(i));
    EXPECT_EQ(h.count(), 1000u);
    for (double q : {0.5, 0.95, 0.99}) {
        const double exact = q * 1000.0;
        const double estimate = h.percentile(q);
        EXPECT_GE(estimate, exact * 0.999) << "q=" << q;
        EXPECT_LE(estimate, exact * 1.125 + 1.0) << "q=" << q;
    }
    EXPECT_GE(h.maxMicros(), 1000.0);
    EXPECT_LE(h.maxMicros(), 1125.0);
    // sumMicros is an upper bound built from bucket upper bounds.
    const double exactSum = 1000.0 * 1001.0 / 2.0;
    EXPECT_GE(h.sumMicros(), exactSum);
    EXPECT_LE(h.sumMicros(), exactSum * 1.125);
}

TEST(LatencyHistogram, PercentilesBoundSamplesWithin12Percent)
{
    LatencyHistogram h;
    for (int v = 1; v <= 100; ++v)
        h.record(static_cast<double>(v));
    EXPECT_EQ(h.count(), 100u);
    const double p50 = h.percentile(0.50);
    const double p99 = h.percentile(0.99);
    EXPECT_GE(p50, 50.0);
    EXPECT_LE(p50, 50.0 * 1.125 + 1.0);
    EXPECT_GE(p99, 99.0);
    EXPECT_LE(p99, 99.0 * 1.125 + 1.0);
    EXPECT_GE(h.maxMicros(), 100.0);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.percentile(0.5), 0.0);
}

TEST(LatencyHistogram, SummaryMatchesPercentiles)
{
    LatencyHistogram h;
    for (int v = 0; v < 1000; ++v)
        h.record(static_cast<double>(v % 97));
    const LatencyHistogram::Summary s = h.summary();
    EXPECT_EQ(s.count, 1000u);
    EXPECT_DOUBLE_EQ(s.p50Us, h.percentile(0.50));
    EXPECT_DOUBLE_EQ(s.p95Us, h.percentile(0.95));
    EXPECT_DOUBLE_EQ(s.p99Us, h.percentile(0.99));
}

TEST(LatencyHistogram, MergeMatchesCombinedRecording)
{
    LatencyHistogram a, b, combined;
    for (int i = 0; i < 500; ++i) {
        const double va = 10.0 + i;
        const double vb = 5000.0 + 3 * i;
        a.record(va);
        b.record(vb);
        combined.record(va);
        combined.record(vb);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), combined.count());
    for (double q : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0})
        EXPECT_DOUBLE_EQ(a.percentile(q), combined.percentile(q))
            << "q=" << q;
    EXPECT_DOUBLE_EQ(a.sumMicros(), combined.sumMicros());
    EXPECT_DOUBLE_EQ(a.maxMicros(), combined.maxMicros());
}

TEST(LatencyHistogram, MergeIntoEmptyCopies)
{
    LatencyHistogram a, b;
    b.record(42.0);
    b.record(64.0);
    a.merge(b);
    EXPECT_EQ(a.count(), 2u);
    EXPECT_DOUBLE_EQ(a.percentile(1.0), b.percentile(1.0));
}

TEST(LatencyHistogram, ConcurrentRecordingLosesNothing)
{
    // record() is two relaxed atomic increments; four writers hammering
    // the same histogram must never lose a sample (run under TSan in
    // CI).
    LatencyHistogram h;
    constexpr int kThreads = 4;
    constexpr int kPerThread = 20000;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&h, t] {
            for (int i = 0; i < kPerThread; ++i)
                h.record(static_cast<double>((t + 1) * 17 + i % 997));
        });
    }
    for (std::thread &thread : threads)
        thread.join();
    EXPECT_EQ(h.count(),
              static_cast<uint64_t>(kThreads) * kPerThread);
    const LatencyHistogram::Summary total = h.summary();
    EXPECT_EQ(total.count, h.count());
    EXPECT_GT(total.p50Us, 0.0);
}

// --------------------------------------------------------------------
// MetricRegistry

TEST(MetricRegistry, GetOrCreateReturnsSameHandle)
{
    MetricRegistry reg;
    auto c1 = reg.counter("a.count");
    auto c2 = reg.counter("a.count");
    EXPECT_EQ(c1.get(), c2.get());
    c1->inc(3);
    EXPECT_EQ(c2->value(), 3u);
    EXPECT_EQ(reg.size(), 1u);
}

TEST(MetricRegistry, GaugeLastWriteWins)
{
    MetricRegistry reg;
    auto g = reg.gauge("depth");
    g->set(4.0);
    g->set(2.5);
    EXPECT_DOUBLE_EQ(g->value(), 2.5);
}

TEST(MetricRegistry, SnapshotIsSortedByName)
{
    MetricRegistry reg;
    reg.counter("z.last")->inc();
    reg.counter("a.first")->inc(2);
    reg.gauge("m.middle")->set(1.0);
    reg.histogram("h.lat")->record(10.0);

    const MetricsSnapshot snap = reg.snapshot();
    ASSERT_EQ(snap.counters.size(), 2u);
    EXPECT_EQ(snap.counters[0].name, "a.first");
    EXPECT_EQ(snap.counters[0].value, 2u);
    EXPECT_EQ(snap.counters[1].name, "z.last");
    ASSERT_EQ(snap.gauges.size(), 1u);
    EXPECT_EQ(snap.gauges[0].name, "m.middle");
    ASSERT_EQ(snap.histograms.size(), 1u);
    EXPECT_EQ(snap.histograms[0].name, "h.lat");
    EXPECT_EQ(snap.histograms[0].summary.count, 1u);
}

TEST(MetricRegistry, ResetValuesKeepsRegistrations)
{
    MetricRegistry reg;
    auto c = reg.counter("n");
    auto h = reg.histogram("lat");
    c->inc(9);
    h->record(100.0);
    reg.resetValues();
    EXPECT_EQ(reg.size(), 2u);
    EXPECT_EQ(c->value(), 0u);   // same handle, zeroed value.
    EXPECT_EQ(h->count(), 0u);
}

TEST(MetricRegistry, ModelLabelsAreSeparateSeries)
{
    MetricRegistry reg;
    auto plain = reg.counter("serve.completed");
    auto m0 = reg.counter("serve.completed", "m0");
    auto m1 = reg.counter("serve.completed", "m1");
    EXPECT_NE(plain.get(), m0.get());
    EXPECT_NE(m0.get(), m1.get());
    EXPECT_EQ(m0.get(), reg.counter("serve.completed", "m0").get());
    m0->inc(4);
    m1->inc();
    EXPECT_EQ(plain->value(), 0u);
    const MetricsSnapshot snap = reg.snapshot();
    ASSERT_EQ(snap.counters.size(), 3u);
    // Sorted by name, then label; the unlabeled series first.
    EXPECT_EQ(snap.counters[0].model, "");
    EXPECT_EQ(snap.counters[1].model, "m0");
    EXPECT_EQ(snap.counters[1].value, 4u);
    EXPECT_EQ(snap.counters[2].model, "m1");
}

TEST(MetricRegistryDeathTest, KindIsFixedAcrossLabels)
{
    MetricRegistry reg;
    reg.counter("x", "m0");
    EXPECT_DEATH(reg.gauge("x", "m1"), "different kind");
    EXPECT_DEATH(reg.histogram("x"), "different kind");
}

TEST(MetricRegistry, GlobalInstanceIsStable)
{
    EXPECT_EQ(&MetricRegistry::instance(), &MetricRegistry::instance());
}

// --------------------------------------------------------------------
// Sampler

TEST(Sampler, SampleOnceAppendsRows)
{
    MetricRegistry reg;
    auto c = reg.counter("ticks");
    Sampler sampler(reg);
    c->inc();
    sampler.sampleOnce();
    c->inc();
    sampler.sampleOnce();
    const auto rows = sampler.rows();
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[0].snapshot.counters[0].value, 1u);
    EXPECT_EQ(rows[1].snapshot.counters[0].value, 2u);
    EXPECT_LE(rows[0].timeS, rows[1].timeS);
    EXPECT_EQ(sampler.dropped(), 0u);
}

TEST(Sampler, RingEvictsOldestAtCapacity)
{
    MetricRegistry reg;
    auto c = reg.counter("n");
    SamplerConfig config;
    config.capacity = 3;
    Sampler sampler(reg, config);
    for (int i = 0; i < 5; ++i) {
        c->inc();
        sampler.sampleOnce();
    }
    const auto rows = sampler.rows();
    ASSERT_EQ(rows.size(), 3u);
    // Oldest two rows (values 1 and 2) were evicted.
    EXPECT_EQ(rows[0].snapshot.counters[0].value, 3u);
    EXPECT_EQ(rows[2].snapshot.counters[0].value, 5u);
    EXPECT_EQ(sampler.dropped(), 2u);
}

TEST(Sampler, BackgroundThreadCollectsRows)
{
    MetricRegistry reg;
    reg.counter("alive")->inc();
    SamplerConfig config;
    config.periodMillis = 1;
    Sampler sampler(reg, config);
    sampler.start();
    sampler.start(); // idempotent.
    while (sampler.rows().size() < 3)
        std::this_thread::yield();
    sampler.stop();
    sampler.stop(); // idempotent.
    EXPECT_GE(sampler.rows().size(), 3u);
}

// --------------------------------------------------------------------
// Exporters (golden strings — deterministic %.6g formatting)

MetricsSnapshot
goldenSnapshot()
{
    MetricRegistry reg;
    reg.counter("serve.completed")->inc(128);
    reg.counter("serve.rejected")->inc(2);
    reg.gauge("serve.queue_depth")->set(7.5);
    auto h = reg.histogram("serve.stage.queue");
    // 64 falls in the [64, 72) bucket, whose upper bound 72 is what
    // every quantile readout reports.
    for (int i = 0; i < 10; ++i)
        h->record(64.0);
    return reg.snapshot();
}

TEST(Exporters, PrometheusGolden)
{
    std::ostringstream os;
    writePrometheus(goldenSnapshot(), os);
    const std::string expected =
        "# TYPE serve_completed counter\n"
        "serve_completed 128\n"
        "# TYPE serve_rejected counter\n"
        "serve_rejected 2\n"
        "# TYPE serve_queue_depth gauge\n"
        "serve_queue_depth 7.5\n"
        "# TYPE serve_stage_queue summary\n"
        "serve_stage_queue{quantile=\"0.5\"} 72\n"
        "serve_stage_queue{quantile=\"0.95\"} 72\n"
        "serve_stage_queue{quantile=\"0.99\"} 72\n"
        "serve_stage_queue_sum 720\n"
        "serve_stage_queue_count 10\n";
    EXPECT_EQ(os.str(), expected);
}

/** Unlabeled and model-labeled series sharing names. */
MetricsSnapshot
labeledSnapshot()
{
    MetricRegistry reg;
    reg.counter("serve.completed")->inc(3);
    reg.counter("serve.completed", "m0")->inc(5);
    reg.gauge("serve.queue_depth", "m0")->set(2.0);
    auto h = reg.histogram("serve.latency", "m0");
    h->record(64.0);
    h->record(64.0);
    return reg.snapshot();
}

TEST(Exporters, PrometheusLabeledSeriesShareOneTypeLine)
{
    std::ostringstream os;
    writePrometheus(labeledSnapshot(), os);
    const std::string expected =
        "# TYPE serve_completed counter\n"
        "serve_completed 3\n"
        "serve_completed{model=\"m0\"} 5\n"
        "# TYPE serve_queue_depth gauge\n"
        "serve_queue_depth{model=\"m0\"} 2\n"
        "# TYPE serve_latency summary\n"
        "serve_latency{model=\"m0\",quantile=\"0.5\"} 72\n"
        "serve_latency{model=\"m0\",quantile=\"0.95\"} 72\n"
        "serve_latency{model=\"m0\",quantile=\"0.99\"} 72\n"
        "serve_latency_sum{model=\"m0\"} 144\n"
        "serve_latency_count{model=\"m0\"} 2\n";
    EXPECT_EQ(os.str(), expected);
}

TEST(Exporters, PrometheusEscapesLabelValues)
{
    MetricRegistry reg;
    reg.counter("c", "a\"b\\c\nd")->inc();
    std::ostringstream os;
    writePrometheus(reg.snapshot(), os);
    EXPECT_EQ(os.str(), "# TYPE c counter\n"
                        "c{model=\"a\\\"b\\\\c\\nd\"} 1\n");
}

TEST(Exporters, JsonAndCsvNameLabeledSeries)
{
    std::ostringstream json;
    writeJson(labeledSnapshot(), json);
    EXPECT_NE(json.str().find("\"serve.completed\": 3"),
              std::string::npos);
    EXPECT_NE(json.str().find("\"serve.completed{model=\\\"m0\\\"}\": 5"),
              std::string::npos);
    EXPECT_NE(json.str().find("\"serve.latency{model=\\\"m0\\\"}\": "
                              "{\"count\": 2"),
              std::string::npos);

    MetricRegistry reg;
    Sampler sampler(reg);
    reg.counter("serve.completed", "m0")->inc(5);
    reg.histogram("serve.latency", "m0")->record(64.0);
    sampler.sampleOnce();
    auto rows = sampler.rows();
    rows[0].timeS = 1.0;
    std::ostringstream csv;
    writeTimelineCsv(rows, csv);
    EXPECT_EQ(csv.str(),
              "time_s,\"serve.completed{model=\"\"m0\"\"}\","
              "\"serve.latency.count{model=\"\"m0\"\"}\","
              "\"serve.latency.p50_us{model=\"\"m0\"\"}\","
              "\"serve.latency.p95_us{model=\"\"m0\"\"}\","
              "\"serve.latency.p99_us{model=\"\"m0\"\"}\"\n"
              "1,5,1,72,72,72\n");
}

// The stats dump (NEURO_STATS_DUMP / --stats-dump) is the text exporter
// over the metric registry; its tests keep the StatRegistry suite name.

TEST(StatRegistry, DumpContainsNames)
{
    MetricRegistry reg;
    reg.counter("fires")->inc(3);
    reg.counter("fires", "m0")->inc();
    reg.gauge("acc")->set(0.5);
    reg.histogram("dist")->record(1.0);
    std::ostringstream os;
    writeText(reg.snapshot(), os);
    const std::string out = os.str();
    EXPECT_NE(out.find("fires "), std::string::npos);
    EXPECT_NE(out.find("fires{model=\"m0\"}"), std::string::npos);
    EXPECT_NE(out.find("acc "), std::string::npos);
    EXPECT_NE(out.find("dist "), std::string::npos);
}

TEST(StatRegistry, DumpIsDeterministic)
{
    // The stats dump is a machine-diffable artifact: sorted series,
    // fixed %.6g floats, and immune to stream state left by earlier
    // writers.
    MetricRegistry reg;
    reg.counter("b.counter")->inc(7);
    reg.counter("a.counter")->inc(2);
    reg.counter("a.counter", "m0")->inc(1);
    reg.gauge("scalar.pi")->set(3.14159265358979);
    reg.histogram("dist.x")->record(1.0);
    reg.histogram("dist.x")->record(2.0);

    std::ostringstream os;
    os << std::setprecision(2) << std::fixed; // hostile stream state.
    writeText(reg.snapshot(), os);
    const std::string expected =
        "---------- stats ----------\n"
        "a.counter                               2\n"
        "a.counter{model=\"m0\"}                   1\n"
        "b.counter                               7\n"
        "scalar.pi                               3.14159\n"
        "dist.x                                  count=2 p50=2 p99=3 "
        "max=3 sum=5\n"
        "---------------------------\n";
    EXPECT_EQ(os.str(), expected);

    std::ostringstream again;
    writeText(reg.snapshot(), again);
    EXPECT_EQ(again.str(), expected);
}

TEST(StatRegistry, ResetClearsEverything)
{
    // resetValues() zeroes every kind, labeled series included, and
    // the dump then shows the zeroed values under the same names.
    MetricRegistry reg;
    auto c = reg.counter("a");
    auto cm = reg.counter("a", "m0");
    auto g = reg.gauge("b");
    auto h = reg.histogram("c", "m0");
    c->inc();
    cm->inc(2);
    g->set(1.0);
    h->record(1.0);
    reg.resetValues();
    EXPECT_EQ(c->value(), 0u);
    EXPECT_EQ(cm->value(), 0u);
    EXPECT_DOUBLE_EQ(g->value(), 0.0);
    EXPECT_EQ(h->count(), 0u);

    std::ostringstream os;
    writeText(reg.snapshot(), os);
    EXPECT_EQ(os.str(),
              "---------- stats ----------\n"
              "a                                       0\n"
              "a{model=\"m0\"}                           0\n"
              "b                                       0\n"
              "c{model=\"m0\"}                           count=0 p50=0 "
              "p99=0 max=0 sum=0\n"
              "---------------------------\n");
}

TEST(Exporters, PrometheusNameSanitization)
{
    EXPECT_EQ(prometheusName("serve.stage.queue"), "serve_stage_queue");
    EXPECT_EQ(prometheusName("ok_name:sub"), "ok_name:sub");
    EXPECT_EQ(prometheusName("weird-name x"), "weird_name_x");
}

TEST(Exporters, JsonGolden)
{
    std::ostringstream os;
    writeJson(goldenSnapshot(), os);
    const std::string expected =
        "{\n"
        "  \"counters\": {\n"
        "    \"serve.completed\": 128,\n"
        "    \"serve.rejected\": 2\n"
        "  },\n"
        "  \"gauges\": {\n"
        "    \"serve.queue_depth\": 7.5\n"
        "  },\n"
        "  \"histograms\": {\n"
        "    \"serve.stage.queue\": {\"count\": 10, \"p50_us\": 72, "
        "\"p95_us\": 72, \"p99_us\": 72, \"max_us\": 72, "
        "\"sum_us\": 720}\n"
        "  }\n"
        "}\n";
    EXPECT_EQ(os.str(), expected);
}

TEST(Exporters, JsonEmptySnapshotIsValid)
{
    std::ostringstream os;
    writeJson(MetricsSnapshot{}, os);
    EXPECT_EQ(os.str(),
              "{\n  \"counters\": {},\n  \"gauges\": {},\n"
              "  \"histograms\": {}\n}\n");
}

TEST(Exporters, TimelineCsvGolden)
{
    MetricRegistry reg;
    auto c = reg.counter("serve.completed");
    auto g = reg.gauge("serve.queue_depth");
    auto h = reg.histogram("serve.latency");
    Sampler sampler(reg);

    c->inc(10);
    g->set(3.0);
    h->record(64.0);
    sampler.sampleOnce();
    c->inc(5);
    g->set(1.0);
    h->record(64.0);
    sampler.sampleOnce();

    auto rows = sampler.rows();
    ASSERT_EQ(rows.size(), 2u);
    // Pin the timestamps so the golden string is exact.
    rows[0].timeS = 0.25;
    rows[1].timeS = 0.5;

    std::ostringstream os;
    writeTimelineCsv(rows, os);
    const std::string expected =
        "time_s,serve.completed,serve.latency.count,"
        "serve.latency.p50_us,serve.latency.p95_us,"
        "serve.latency.p99_us,serve.queue_depth\n"
        "0.25,10,1,72,72,72,3\n"
        "0.5,15,2,72,72,72,1\n";
    EXPECT_EQ(os.str(), expected);
}

TEST(Exporters, TimelineCsvTakesColumnUnionAcrossRows)
{
    MetricRegistry reg;
    Sampler sampler(reg);
    reg.counter("a")->inc();
    sampler.sampleOnce();
    reg.counter("b")->inc(2); // registered after the first row.
    sampler.sampleOnce();

    auto rows = sampler.rows();
    rows[0].timeS = 1.0;
    rows[1].timeS = 2.0;
    std::ostringstream os;
    writeTimelineCsv(rows, os);
    EXPECT_EQ(os.str(), "time_s,a,b\n1,1,\n2,1,2\n");
}

} // namespace
} // namespace telemetry
} // namespace neuro
