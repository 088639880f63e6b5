// Tests for the spike-train and selectivity analysis utilities.

#include <gtest/gtest.h>

#include "neuro/common/rng.h"
#include "neuro/snn/analysis.h"

namespace neuro {
namespace snn {
namespace {

PackedSpikeGrid
gridFrom(std::size_t num_inputs, int period,
         const std::vector<std::pair<int, uint16_t>> &spikes)
{
    PackedSpikeGrid grid(num_inputs, period);
    for (const auto &[t, p] : spikes)
        grid.addSpike(t, p);
    grid.finalize();
    return grid;
}

TEST(IsiDistribution, MeasuresIntervals)
{
    // Pixel 0 spikes at 10, 60, 160: ISIs 50 and 100.
    const auto grid = gridFrom(1, 200, {{10, 0}, {60, 0}, {160, 0}});
    const Distribution isi = isiDistribution(grid);
    EXPECT_EQ(isi.count(), 2u);
    EXPECT_DOUBLE_EQ(isi.mean(), 75.0);
    EXPECT_DOUBLE_EQ(isi.min(), 50.0);
    EXPECT_DOUBLE_EQ(isi.max(), 100.0);
}

TEST(IsiDistribution, PoissonEncoderMatchesRate)
{
    CodingConfig config;
    const SpikeEncoder encoder(config);
    Rng rng(1);
    const uint8_t pixels[1] = {255}; // mean interval 50 ms.
    Distribution pooled;
    PackedSpikeGrid grid;
    for (int trial = 0; trial < 100; ++trial) {
        encoder.encodePacked(pixels, 1, rng, grid);
        const Distribution isi = isiDistribution(grid);
        // Distribution has no per-sample access; pool the trial means.
        if (isi.count() > 0)
            pooled.sample(isi.mean());
    }
    EXPECT_NEAR(pooled.mean(), 50.0, 8.0);
}

TEST(FiringRateMap, ConvertsToHz)
{
    // 5 spikes on pixel 1 over a 500 ms window -> 10 Hz.
    const auto grid = gridFrom(
        2, 500, {{0, 1}, {100, 1}, {200, 1}, {300, 1}, {400, 1}});
    const auto rates = firingRateMap(grid);
    ASSERT_EQ(rates.size(), 2u);
    EXPECT_DOUBLE_EQ(rates[0], 0.0);
    EXPECT_DOUBLE_EQ(rates[1], 10.0);
}

TEST(NeuronSelectivity, DetectsPerfectSpecialists)
{
    // Two neurons keyed to disjoint pixels; two classes lighting
    // exactly those pixels.
    SnnConfig config;
    config.numInputs = 4;
    config.numNeurons = 2;
    Rng rng(2);
    SnnNetwork net(config, rng);
    net.weights().fill(0.0f);
    net.weights()(0, 0) = 100.0f;
    net.weights()(0, 1) = 100.0f;
    net.weights()(1, 2) = 100.0f;
    net.weights()(1, 3) = 100.0f;

    datasets::Dataset data("toy", 4, 1, 2);
    for (int i = 0; i < 20; ++i) {
        datasets::Sample s;
        s.label = i % 2;
        s.pixels = s.label == 0
            ? std::vector<uint8_t>{255, 255, 0, 0}
            : std::vector<uint8_t>{0, 0, 255, 255};
        data.add(std::move(s));
    }

    const SpikeEncoder encoder(config.coding);
    const auto report = neuronSelectivity(net, data, encoder);
    EXPECT_EQ(report.preferredClass[0], 0);
    EXPECT_EQ(report.preferredClass[1], 1);
    EXPECT_GT(report.selectivity[0], 0.95);
    EXPECT_GT(report.selectivity[1], 0.95);
}

TEST(NeuronSelectivity, UntunedNeuronScoresLow)
{
    SnnConfig config;
    config.numInputs = 4;
    config.numNeurons = 1;
    Rng rng(3);
    SnnNetwork net(config, rng);
    net.weights().fill(50.0f); // responds equally to everything.

    datasets::Dataset data("toy", 4, 1, 2);
    for (int i = 0; i < 20; ++i) {
        datasets::Sample s;
        s.label = i % 2;
        s.pixels = s.label == 0
            ? std::vector<uint8_t>{200, 200, 0, 0}
            : std::vector<uint8_t>{0, 0, 200, 200};
        data.add(std::move(s));
    }
    const SpikeEncoder encoder(config.coding);
    const auto report = neuronSelectivity(net, data, encoder);
    EXPECT_LT(report.selectivity[0], 0.1);
}

} // namespace
} // namespace snn
} // namespace neuro
