// Tests for the instrumentation call sites: scopes, counts, samples and
// gauges all land in the metric registry, always on, through a handle
// each site resolves once.

#include <gtest/gtest.h>

#include <sstream>
#include <thread>
#include <vector>

#include "neuro/common/profile.h"
#include "neuro/telemetry/export.h"
#include "neuro/telemetry/metrics.h"

namespace neuro {
namespace {

/** Zero every registry value, so each test reads its own signals. */
class ProfileTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        telemetry::MetricRegistry::instance().resetValues();
    }

    static const telemetry::LatencyHistogram &
    histogram(const char *name)
    {
        return *telemetry::MetricRegistry::instance().histogram(name);
    }

    static uint64_t
    counter(const char *name)
    {
        return telemetry::MetricRegistry::instance()
            .counter(name)
            ->value();
    }
};

TEST_F(ProfileTest, ScopeAggregatesCountSumMax)
{
    for (int i = 0; i < 3; ++i) {
        NEURO_PROFILE_SCOPE("test/scope");
    }
    const telemetry::LatencyHistogram::Summary s =
        histogram("scope/test/scope").summary();
    EXPECT_EQ(s.count, 3u);
    EXPECT_GE(s.p50Us, 0.0);
    EXPECT_GE(s.maxUs, s.p50Us);
    EXPECT_GE(s.sumUs, s.maxUs);
}

TEST_F(ProfileTest, NestedScopesRecordBothLevels)
{
    {
        NEURO_PROFILE_SCOPE("test/outer");
        NEURO_PROFILE_SCOPE("test/outer/inner");
    }
    EXPECT_EQ(histogram("scope/test/outer").count(), 1u);
    EXPECT_EQ(histogram("scope/test/outer/inner").count(), 1u);
    // The outer scope brackets the inner one.
    EXPECT_GE(histogram("scope/test/outer").sumMicros(),
              histogram("scope/test/outer/inner").sumMicros());
}

TEST_F(ProfileTest, ObsCountersAndSamplesAlwaysRecord)
{
    obsCount<"test.counter">(5);
    obsCount<"test.counter">();
    obsSample<"test.sample">(2.5);
    // Fractional values belong in a gauge: histogram buckets are
    // integer-valued and would round 0.03 to 0.
    obsGauge<"test.gauge">(0.03);
    EXPECT_EQ(counter("test.counter"), 6u);
    EXPECT_EQ(histogram("test.sample").count(), 1u);
    EXPECT_GE(histogram("test.sample").maxMicros(), 2.5);
    EXPECT_DOUBLE_EQ(
        telemetry::MetricRegistry::instance().gauge("test.gauge")->value(),
        0.03);
}

TEST_F(ProfileTest, SitesResolveTheirSeriesOnce)
{
    auto &reg = telemetry::MetricRegistry::instance();
    obsCount<"test.once">();
    const std::size_t registered = reg.size();
    for (int i = 0; i < 10; ++i) {
        obsCount<"test.once">();
        NEURO_PROFILE_SCOPE("test/once");
    }
    // The scope registered its histogram on first entry; nothing
    // else was added, and every call reached the same series.
    EXPECT_EQ(reg.size(), registered + 1);
    EXPECT_EQ(counter("test.once"), 11u);
    EXPECT_EQ(histogram("scope/test/once").count(), 10u);
}

TEST_F(ProfileTest, DumpListsScopeTimingsWithTotals)
{
    {
        NEURO_PROFILE_SCOPE("test/dumped");
    }
    std::ostringstream os;
    telemetry::writeText(telemetry::MetricRegistry::instance().snapshot(),
                         os);
    const std::string out = os.str();
    EXPECT_NE(out.find("scope/test/dumped"), std::string::npos);
    EXPECT_NE(out.find("count="), std::string::npos);
    EXPECT_NE(out.find("sum="), std::string::npos);
    EXPECT_NE(out.find("max="), std::string::npos);
}

TEST_F(ProfileTest, ConcurrentScopesAndCountersAreLossless)
{
    constexpr int kThreads = 4;
    constexpr int kIters = 200;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([] {
            for (int i = 0; i < kIters; ++i) {
                NEURO_PROFILE_SCOPE("test/mt");
                obsCount<"test.mt_counter">();
            }
        });
    }
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(histogram("scope/test/mt").count(),
              static_cast<uint64_t>(kThreads * kIters));
    EXPECT_EQ(counter("test.mt_counter"),
              static_cast<uint64_t>(kThreads * kIters));
}

} // namespace
} // namespace neuro
