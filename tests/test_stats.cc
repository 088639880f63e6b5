// Tests for the streaming Distribution.

#include <gtest/gtest.h>

#include "neuro/common/stats.h"

namespace neuro {
namespace {

TEST(Distribution, EmptyIsZero)
{
    Distribution d;
    EXPECT_EQ(d.count(), 0u);
    EXPECT_DOUBLE_EQ(d.mean(), 0.0);
    EXPECT_DOUBLE_EQ(d.min(), 0.0);
    EXPECT_DOUBLE_EQ(d.max(), 0.0);
}

TEST(Distribution, MomentsOfKnownSamples)
{
    Distribution d;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        d.sample(v);
    EXPECT_EQ(d.count(), 8u);
    EXPECT_DOUBLE_EQ(d.mean(), 5.0);
    EXPECT_DOUBLE_EQ(d.min(), 2.0);
    EXPECT_DOUBLE_EQ(d.max(), 9.0);
}

// Edge cases analyses depend on: empty, single-sample, negative-only.

TEST(DistributionEdge, SingleSampleMinEqualsMax)
{
    Distribution d;
    d.sample(3.5);
    EXPECT_EQ(d.count(), 1u);
    EXPECT_DOUBLE_EQ(d.min(), 3.5);
    EXPECT_DOUBLE_EQ(d.max(), 3.5);
    EXPECT_DOUBLE_EQ(d.mean(), 3.5);
}

TEST(DistributionEdge, NegativeOnlySamplesKeepSign)
{
    // min()/max() must initialize from the first sample, not from 0:
    // a negative-only stream has a negative max.
    Distribution d;
    for (double v : {-5.0, -2.0, -9.0})
        d.sample(v);
    EXPECT_DOUBLE_EQ(d.min(), -9.0);
    EXPECT_DOUBLE_EQ(d.max(), -2.0);
    EXPECT_DOUBLE_EQ(d.sum(), -16.0);
}

TEST(DistributionEdge, MixedSignStream)
{
    Distribution d;
    for (double v : {-1.0, 0.0, 1.0})
        d.sample(v);
    EXPECT_DOUBLE_EQ(d.min(), -1.0);
    EXPECT_DOUBLE_EQ(d.max(), 1.0);
    EXPECT_DOUBLE_EQ(d.mean(), 0.0);
}

} // namespace
} // namespace neuro
