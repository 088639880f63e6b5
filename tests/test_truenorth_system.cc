// Tests for the multi-core TrueNorth system model and the trainer's
// observability counters.

#include <gtest/gtest.h>

#include "neuro/common/rng.h"
#include "neuro/hw/truenorth.h"
#include "neuro/snn/trainer.h"
#include "neuro/telemetry/metrics.h"

namespace neuro {
namespace {

TEST(TrueNorthSystem, CoreCountArithmetic)
{
    EXPECT_EQ(hw::trueNorthCoresFor(1), 1u);
    EXPECT_EQ(hw::trueNorthCoresFor(256), 1u);
    EXPECT_EQ(hw::trueNorthCoresFor(257), 2u);
    EXPECT_EQ(hw::trueNorthCoresFor(300), 2u);
    EXPECT_EQ(hw::trueNorthCoresFor(1024), 4u);
}

TEST(TrueNorthSystem, SingleCoreMatchesCoreModel)
{
    const hw::Design core = hw::buildTrueNorthCore();
    const hw::Design system = hw::buildTrueNorthSystem(256, 784);
    EXPECT_NEAR(system.totalAreaMm2(), core.totalAreaMm2(),
                core.totalAreaMm2() * 0.02);
    EXPECT_EQ(system.cyclesPerImage(), core.cyclesPerImage());
}

TEST(TrueNorthSystem, AreaAndEnergyScaleWithCores)
{
    const hw::Design one = hw::buildTrueNorthSystem(256, 784);
    const hw::Design two = hw::buildTrueNorthSystem(300, 784);
    const hw::Design four = hw::buildTrueNorthSystem(1000, 784);
    EXPECT_NEAR(two.totalAreaMm2() / one.totalAreaMm2(), 2.0, 0.1);
    EXPECT_NEAR(four.totalAreaMm2() / one.totalAreaMm2(), 4.0, 0.2);
    // Latency does not scale: cores tick in parallel.
    EXPECT_EQ(two.timePerImageNs(), one.timePerImageNs());
    EXPECT_GT(two.totalEnergyPerImageUj(),
              one.totalEnergyPerImageUj() * 1.5);
}

TEST(TrainerStats, CountsImagesAndSpikes)
{
    snn::SnnConfig config;
    config.numInputs = 64;
    config.numNeurons = 5;
    config.coding.periodMs = 100;
    config.coding.minIntervalMs = 10;
    config.initialThreshold = 2000.0;
    config.homeostasis.enabled = false;

    datasets::Dataset data("toy", 8, 8, 2);
    Rng gen(1);
    for (int i = 0; i < 12; ++i) {
        datasets::Sample s;
        s.label = i % 2;
        s.pixels.assign(64, 0);
        for (int k = 0; k < 24; ++k)
            s.pixels[gen.uniformInt(64)] = 220;
        data.add(std::move(s));
    }

    Rng rng(2);
    snn::SnnNetwork net(config, rng);
    snn::SnnStdpTrainer trainer(config);
    snn::SnnTrainConfig train;
    train.epochs = 2;
    std::size_t reported_output_spikes = 0;
    telemetry::MetricRegistry::instance().resetValues();
    trainer.train(net, data, train, [&](const snn::SnnEpochReport &r) {
        reported_output_spikes += r.outputSpikes;
    });
    auto counter = [](const char *name) {
        return telemetry::MetricRegistry::instance()
            .counter(name)
            ->value();
    };

    EXPECT_EQ(counter("snn.images_presented"), 24u);
    EXPECT_GT(counter("snn.input_spikes"), 0u);
    EXPECT_EQ(counter("snn.output_spikes"), reported_output_spikes);
}

} // namespace
} // namespace neuro
