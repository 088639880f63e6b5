// Edge-case and API-misuse tests across modules, including death tests
// for the NEURO_ASSERT contract (invariants abort rather than corrupt
// results).

#include <gtest/gtest.h>

#include "neuro/common/rng.h"
#include "neuro/datasets/synth_digits.h"
#include "neuro/mlp/quantized.h"
#include "neuro/snn/trainer.h"

namespace neuro {
namespace {

TEST(EdgeCases, EvaluationWithAllNeuronsUnlabeled)
{
    snn::SnnConfig config;
    config.numInputs = 16;
    config.numNeurons = 4;
    config.coding.periodMs = 50;
    config.homeostasis.enabled = false;
    Rng rng(1);
    snn::SnnNetwork net(config, rng);
    snn::SnnStdpTrainer trainer(config);

    datasets::Dataset data("toy", 4, 4, 2);
    datasets::Sample s;
    s.label = 1;
    s.pixels.assign(16, 180);
    data.add(s);

    const std::vector<int> labels(4, -1); // nothing ever labeled.
    const auto result =
        trainer.evaluate(net, labels, data, snn::EvalMode::Wot, 2);
    EXPECT_DOUBLE_EQ(result.accuracy, 0.0);
}

TEST(EdgeCases, SingleNeuronSingleInputNetwork)
{
    snn::SnnConfig config;
    config.numInputs = 1;
    config.numNeurons = 1;
    config.coding.periodMs = 20;
    config.initialThreshold = 50.0;
    config.wInitMin = 100.0f;
    config.wInitMax = 100.0f;
    config.thresholdJitter = 0.0;
    config.homeostasis.enabled = false;
    Rng rng(2);
    snn::SnnNetwork net(config, rng);
    snn::PackedSpikeGrid grid(1, 20);
    grid.addSpike(0, 0);
    grid.finalize();
    const auto result = net.presentImage(grid, false);
    EXPECT_EQ(result.outputSpikeCount, 1u);
    EXPECT_EQ(result.firstSpikeNeuron, 0);
}

TEST(EdgeCases, EncoderHandlesAllBlackAndAllWhiteImages)
{
    snn::CodingConfig config;
    const snn::SpikeEncoder encoder(config);
    Rng rng(3);
    std::vector<uint8_t> black(64, 0), white(64, 255);
    snn::PackedSpikeGrid grid;
    encoder.encodePacked(black.data(), 64, rng, grid);
    EXPECT_EQ(grid.totalSpikes(), 0u);
    EXPECT_EQ(grid.activeTickCount(), 0u);
    encoder.encodePacked(white.data(), 64, rng, grid);
    // ~10 spikes per pixel on average.
    EXPECT_GT(grid.totalSpikes(), 64u * 5);
    EXPECT_LT(grid.totalSpikes(), 64u * 20);
}

using EdgeDeathTest = ::testing::Test;

/** A 4-input, 20-tick net for the presentImage() shape guards. */
snn::SnnNetwork
guardNetwork()
{
    snn::SnnConfig config;
    config.numInputs = 4;
    config.numNeurons = 1;
    config.coding.periodMs = 20;
    config.homeostasis.enabled = false;
    Rng rng(4);
    return snn::SnnNetwork(config, rng);
}

TEST(EdgeDeathTest, PresentImageRejectsOutOfRangeSpike)
{
    // Input 7 on a 4-input net: a grid as wide as the net cannot hold
    // it, and a wider grid that does is rejected before any weight row
    // is read with it.
    snn::PackedSpikeGrid narrow(4, 20);
    EXPECT_DEATH(narrow.addSpike(3, 7), "input spike out of range");

    snn::SnnNetwork net = guardNetwork();
    snn::PackedSpikeGrid wide(8, 20);
    wide.addSpike(3, 7);
    wide.finalize();
    EXPECT_DEATH(net.presentImage(wide, false),
                 "packed grid inputs 8 != config inputs 4");
}

TEST(EdgeDeathTest, PresentImageRejectsPeriodMismatch)
{
    snn::SnnNetwork net = guardNetwork();
    snn::PackedSpikeGrid grid(4, 30);
    grid.addSpike(25, 1); // past the net's 20-tick window.
    grid.finalize();
    EXPECT_DEATH(net.presentImage(grid, false),
                 "packed grid period 30 != config period 20");
}

TEST(EdgeDeathTest, PresentImageRejectsWidthMismatch)
{
    snn::SnnNetwork net = guardNetwork();
    snn::PackedSpikeGrid grid(3, 20);
    grid.finalize();
    EXPECT_DEATH(net.presentImage(grid, false),
                 "packed grid inputs 3 != config inputs 4");
}

TEST(EdgeDeathTest, FullWindowWalksRejectTruncatedGrid)
{
    // A grid encoded only below its horizon may end a first-spike walk,
    // but never a full-window presentation, learning or not.
    snn::SnnNetwork net = guardNetwork();
    snn::PackedSpikeGrid grid;
    grid.reset(4, 20, 10);
    grid.addSpike(3, 1);
    grid.finalize();
    EXPECT_DEATH(net.present(grid), "grid truncated at 10 ms");
    for (const bool learn : {false, true}) {
        EXPECT_DEATH(net.presentImage(grid, learn),
                     "grid truncated at 10 ms");
    }
}

TEST(EdgeDeathTest, DatasetRejectsWrongGeometry)
{
    datasets::Dataset data("toy", 4, 4, 2);
    datasets::Sample s;
    s.label = 0;
    s.pixels.assign(15, 0); // one pixel short.
    EXPECT_DEATH(data.add(s), "pixels");
}

TEST(EdgeDeathTest, DatasetRejectsOutOfRangeLabel)
{
    datasets::Dataset data("toy", 2, 2, 2);
    datasets::Sample s;
    s.label = 7;
    s.pixels.assign(4, 0);
    EXPECT_DEATH(data.add(s), "label");
}

TEST(EdgeDeathTest, QuantizedEvaluateRejectsEmptyDataset)
{
    // An empty test set has no accuracy: asserting beats returning the
    // 0/0 NaN, and matches mlp::evaluate.
    mlp::MlpConfig config;
    config.layerSizes = {4, 3, 2};
    Rng rng(5);
    const mlp::QuantizedMlp quant(mlp::Mlp(config, rng));
    const datasets::Dataset empty("toy", 2, 2, 2);
    EXPECT_DEATH(quant.evaluate(empty), "empty dataset");
}

TEST(EdgeDeathTest, RngRejectsZeroRange)
{
    Rng rng(4);
    EXPECT_DEATH(rng.uniformInt(0), "nonzero");
}

} // namespace
} // namespace neuro
