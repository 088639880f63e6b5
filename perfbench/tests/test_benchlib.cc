// Tests for the benchmark's own logic (perfbench/benchlib.h). Run with
// `python3 perfbench/run.py --test`.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "benchlib.h"
#include "neuro/datasets/synth_digits.h"

namespace {

using perfbench::Span;
using perfbench::WireCheck;
using perfbench::WireStatus;

TEST(TailPercentile, HighestWithTenSamplesBeyond)
{
    EXPECT_EQ(perfbench::tailPermille(9), 0);
    EXPECT_EQ(perfbench::tailPermille(19), 0);
    EXPECT_EQ(perfbench::tailPermille(20), 500);
    EXPECT_EQ(perfbench::tailPermille(99), 500);
    EXPECT_EQ(perfbench::tailPermille(100), 900);
    EXPECT_EQ(perfbench::tailPermille(999), 900);
    EXPECT_EQ(perfbench::tailPermille(1000), 990);
    EXPECT_EQ(perfbench::tailPermille(9999), 990);
    EXPECT_EQ(perfbench::tailPermille(10000), 999);
    EXPECT_EQ(perfbench::tailPermille(1000000), 999);
}

TEST(TailPercentile, NearestRankLeavesTenBeyond)
{
    std::vector<double> v;
    for (int i = 1; i <= 1000; ++i)
        v.push_back(i);
    EXPECT_EQ(perfbench::percentileSorted(v, 990), 990.0);
    EXPECT_EQ(perfbench::percentileSorted(v, 500), 500.0);
    EXPECT_EQ(perfbench::percentileSorted({7.0}, 990), 7.0);
    EXPECT_EQ(perfbench::median({3.0, 1.0, 2.0, 10.0}), 2.5);
}

TEST(SelfTime, SubtractsDirectChildren)
{
    // Parent [0,100) with children [10,30) and [40,70); the grandchild
    // [12,18) counts against its own parent only.
    const std::vector<Span> spans = {
        {"parent", 1, -1, 0, 100},
        {"a", 1, 0, 10, 30},
        {"b", 1, 0, 40, 70},
        {"grandchild", 1, 1, 12, 18},
    };
    const std::vector<int64_t> self = perfbench::selfTimesNs(spans);
    EXPECT_EQ(self[0], 100 - 20 - 30);
    EXPECT_EQ(self[1], 20 - 6);
    EXPECT_EQ(self[2], 30);
    EXPECT_EQ(self[3], 6);
}

TEST(SelfTime, TracerIndicesAreParentHandles)
{
    perfbench::Tracer tracer;
    const int root = tracer.add("rep", 3, -1, 0, 50);
    tracer.add("child", 3, root, 10, 20);
    ASSERT_EQ(tracer.spans().size(), 2U);
    EXPECT_EQ(perfbench::selfTimesNs(tracer.spans())[0], 40);
}

TEST(SelfTime, WireRemainderAddsUpToLatency)
{
    // A request span with server stages laid back to back at its end.
    const int64_t sched = 1000, recv = 9000, q = 3000, b = 200, k = 700;
    const std::vector<Span> spans = {
        {"wire.request", 5, -1, sched, recv},
        {"serve.compute", 5, 0, recv - k, recv},
        {"serve.batch", 5, 0, recv - k - b, recv - k},
        {"serve.queue", 5, 0, recv - k - b - q, recv - k - b},
    };
    const int64_t wire = perfbench::selfTimesNs(spans)[0];
    EXPECT_EQ(wire, 8000 - q - b - k);
    EXPECT_EQ(wire + q + b + k, recv - sched);
}

TEST(Seeding, SameSeedSameScheduleAndDataset)
{
    const auto a = perfbench::poissonScheduleNs(500.0, 2.0, 42);
    const auto b = perfbench::poissonScheduleNs(500.0, 2.0, 42);
    const auto other = perfbench::poissonScheduleNs(500.0, 2.0, 43);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, other);
    EXPECT_GT(a.size(), 800U);
    EXPECT_LT(a.size(), 1200U);
    for (std::size_t i = 1; i < a.size(); ++i)
        EXPECT_LE(a[i - 1], a[i]);
    EXPECT_LT(a.back(), 2'000'000'000);

    const auto d1 = neuro::datasets::mnistLike(50, 20, 7);
    const auto d2 = neuro::datasets::mnistLike(50, 20, 7);
    const auto d3 = neuro::datasets::mnistLike(50, 20, 8);
    bool differs = false;
    for (std::size_t i = 0; i < d1.train.size(); ++i) {
        EXPECT_EQ(d1.train[i].pixels, d2.train[i].pixels);
        EXPECT_EQ(d1.train[i].label, d2.train[i].label);
        differs = differs || d1.train[i].pixels != d3.train[i].pixels;
    }
    for (std::size_t i = 0; i < d1.test.size(); ++i)
        EXPECT_EQ(d1.test[i].pixels, d2.test[i].pixels);
    EXPECT_TRUE(differs);
}

TEST(WireCheck, AllCorrectPasses)
{
    WireCheck check(3, false);
    check.record(0, WireStatus::Ok, 4, 4);
    check.record(2, WireStatus::Ok, 1, 1);
    check.record(1, WireStatus::Ok, 9, 9);
    EXPECT_EQ(check.failed(), 0U);
    EXPECT_EQ(check.ok(), 3U);
    EXPECT_EQ(check.sent(), 3U);
}

TEST(WireCheck, WrongClassFails)
{
    WireCheck check(2, true);
    check.record(0, WireStatus::Ok, 3, 3);
    check.record(1, WireStatus::Ok, 2, 5);
    EXPECT_EQ(check.failed(), 1U);
}

TEST(WireCheck, LostResponseFails)
{
    WireCheck check(3, true);
    check.record(0, WireStatus::Ok, 3, 3);
    check.record(2, WireStatus::Shed, -1, 1);
    EXPECT_EQ(check.lost(), 1U);
    EXPECT_EQ(check.failed(), 1U);
}

TEST(WireCheck, ShedFailsOnlyWhereNotAllowed)
{
    WireCheck light(1, false);
    light.record(0, WireStatus::Shed, -1, 2);
    EXPECT_EQ(light.failed(), 1U);
    WireCheck overload(1, true);
    overload.record(0, WireStatus::Shed, -1, 2);
    EXPECT_EQ(overload.failed(), 0U);
    EXPECT_EQ(overload.shed(), 1U);
}

TEST(WireCheck, DuplicateUnknownAndErrorResponsesFail)
{
    WireCheck check(2, true);
    check.record(0, WireStatus::Ok, 1, 1);
    check.record(0, WireStatus::Ok, 1, 1);
    check.record(7, WireStatus::Ok, 1, 1);
    check.record(1, WireStatus::Error, -1, 1);
    EXPECT_EQ(check.lost(), 0U);
    EXPECT_EQ(check.failed(), 3U);
}

} // namespace
