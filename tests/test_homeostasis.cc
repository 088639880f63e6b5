// Tests for homeostatic threshold adaptation.

#include <gtest/gtest.h>

#include <vector>

#include "neuro/snn/homeostasis.h"

namespace neuro {
namespace snn {
namespace {

/** One network's worth of per-neuron homeostasis state, in the
 *  structure-of-arrays layout SnnNetwork passes to advance(). */
struct Neurons
{
    explicit Neurons(std::size_t n) : threshold(n, 0.0), fireCount(n, 0) {}

    int
    advance(Homeostasis &homeo, int64_t dt_ms)
    {
        return homeo.advance(dt_ms, threshold.data(), fireCount.data(),
                             threshold.size());
    }

    std::vector<double> threshold;
    std::vector<uint32_t> fireCount;
};

HomeostasisConfig
makeConfig()
{
    HomeostasisConfig config;
    config.epochMs = 1000;
    config.activityTarget = 5.0;
    config.rate = 0.1;
    config.downFactor = 1.0;
    config.minThreshold = 1.0;
    return config;
}

TEST(Homeostasis, NoAdjustmentBeforeEpochEnds)
{
    Homeostasis homeo(makeConfig());
    Neurons neurons(2);
    neurons.threshold[0] = 100.0;
    neurons.fireCount[0] = 50;
    EXPECT_EQ(neurons.advance(homeo, 999), 0);
    EXPECT_DOUBLE_EQ(neurons.threshold[0], 100.0);
}

TEST(Homeostasis, OveractiveNeuronPunished)
{
    Homeostasis homeo(makeConfig());
    Neurons neurons(1);
    neurons.threshold[0] = 100.0;
    neurons.fireCount[0] = 50; // above target of 5.
    EXPECT_EQ(neurons.advance(homeo, 1000), 1);
    EXPECT_DOUBLE_EQ(neurons.threshold[0], 110.0);
    EXPECT_EQ(neurons.fireCount[0], 0u) << "counter must reset";
}

TEST(Homeostasis, SilentNeuronPromoted)
{
    Homeostasis homeo(makeConfig());
    Neurons neurons(1);
    neurons.threshold[0] = 100.0;
    neurons.fireCount[0] = 0;
    neurons.advance(homeo, 1000);
    EXPECT_DOUBLE_EQ(neurons.threshold[0], 90.0);
}

TEST(Homeostasis, ExactTargetUnchanged)
{
    Homeostasis homeo(makeConfig());
    Neurons neurons(1);
    neurons.threshold[0] = 100.0;
    neurons.fireCount[0] = 5;
    neurons.advance(homeo, 1000);
    EXPECT_DOUBLE_EQ(neurons.threshold[0], 100.0);
}

TEST(Homeostasis, DownFactorSlowsDecay)
{
    HomeostasisConfig config = makeConfig();
    config.downFactor = 0.25;
    Homeostasis homeo(config);
    Neurons neurons(1);
    neurons.threshold[0] = 100.0;
    neurons.fireCount[0] = 0;
    neurons.advance(homeo, 1000);
    EXPECT_DOUBLE_EQ(neurons.threshold[0], 97.5);
}

TEST(Homeostasis, FloorHolds)
{
    HomeostasisConfig config = makeConfig();
    config.minThreshold = 50.0;
    Homeostasis homeo(config);
    Neurons neurons(1);
    neurons.threshold[0] = 51.0;
    neurons.fireCount[0] = 0;
    for (int i = 0; i < 20; ++i)
        neurons.advance(homeo, 1000);
    EXPECT_DOUBLE_EQ(neurons.threshold[0], 50.0);
}

TEST(Homeostasis, MultipleEpochBoundariesInOneAdvance)
{
    Homeostasis homeo(makeConfig());
    Neurons neurons(1);
    neurons.threshold[0] = 100.0;
    neurons.fireCount[0] = 50;
    // 2.5 epochs: two boundaries processed (the second epoch sees the
    // reset counter, below target).
    EXPECT_EQ(neurons.advance(homeo, 2500), 2);
    EXPECT_EQ(homeo.epochsProcessed(), 2);
    EXPECT_NEAR(neurons.threshold[0], 110.0 * 0.9, 1e-9);
}

TEST(Homeostasis, DisabledIsNoOp)
{
    HomeostasisConfig config = makeConfig();
    config.enabled = false;
    Homeostasis homeo(config);
    Neurons neurons(1);
    neurons.threshold[0] = 100.0;
    neurons.fireCount[0] = 99;
    EXPECT_EQ(neurons.advance(homeo, 10000), 0);
    EXPECT_DOUBLE_EQ(neurons.threshold[0], 100.0);
}

} // namespace
} // namespace snn
} // namespace neuro
