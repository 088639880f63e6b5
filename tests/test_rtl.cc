// Tests for the RTL-level datapath simulators: bit-exact equivalence
// with the functional models (the paper's "validated both simulators
// against their RTL counterpart") plus cycle/activity accounting.

#include <gtest/gtest.h>

#include <numeric>

#include "neuro/common/rng.h"
#include "neuro/cycle/rtl_mlp.h"
#include "neuro/cycle/rtl_snn.h"
#include "neuro/datasets/synth_digits.h"
#include "neuro/hw/folded.h"
#include "neuro/mlp/backprop.h"
#include "neuro/snn/network.h"

namespace neuro {
namespace cycle {
namespace {

/** @return the SRAM reads per image the cost model charges @p design. */
uint64_t
costedSramReads(const hw::Design &design)
{
    return std::accumulate(design.srams().begin(), design.srams().end(),
                           uint64_t{0},
                           [](uint64_t sum, const hw::SramArray &array) {
                               return sum + array.readsPerImage;
                           });
}

class RtlMlpTest : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(RtlMlpTest, BitIdenticalToFunctionalModel)
{
    const std::size_t ni = GetParam();
    mlp::MlpConfig config;
    config.layerSizes = {64, 10, 4};
    Rng rng(1);
    const mlp::Mlp net(config, rng);
    const mlp::QuantizedMlp quant(net);
    RtlFoldedMlp rtl(quant, ni);

    Rng data_rng(2);
    for (int trial = 0; trial < 30; ++trial) {
        std::vector<uint8_t> pixels(64);
        for (auto &p : pixels)
            p = static_cast<uint8_t>(data_rng.uniformInt(256));
        std::vector<uint8_t> func_out(4), rtl_out(4);
        quant.forward(pixels.data(), func_out.data());
        rtl.run(pixels.data(), rtl_out.data());
        ASSERT_EQ(func_out, rtl_out) << "trial " << trial
                                     << " ni=" << ni;
    }
}

INSTANTIATE_TEST_SUITE_P(Folds, RtlMlpTest,
                         ::testing::Values(1u, 2u, 4u, 7u, 16u));

TEST(RtlMlp, CycleCountMatchesScheduleFormula)
{
    mlp::MlpConfig config;
    config.layerSizes = {784, 100, 10};
    Rng rng(3);
    const mlp::Mlp net(config, rng);
    const mlp::QuantizedMlp quant(net);
    for (std::size_t ni : {1UL, 4UL, 8UL, 16UL}) {
        RtlFoldedMlp rtl(quant, ni);
        std::vector<uint8_t> pixels(784, 100);
        std::vector<uint8_t> out(10);
        const RtlRunStats stats = rtl.run(pixels.data(), out.data());
        EXPECT_EQ(stats.cycles,
                  hw::foldedMlpCycles({784, 100, 10}, ni))
            << "ni=" << ni;
        EXPECT_EQ(stats.multOps, 784u * 100 + 100 * 10);
        EXPECT_EQ(stats.activations, 110u);
        EXPECT_GT(stats.regToggles, 0u);
    }
}

TEST(RtlMlp, TrainedNetworkAccuracyIdentical)
{
    datasets::SynthDigitsOptions opt;
    opt.trainSize = 300;
    opt.testSize = 80;
    const datasets::Split split = datasets::makeSynthDigits(opt);
    mlp::MlpConfig config;
    config.layerSizes = {784, 15, 10};
    Rng rng(4);
    mlp::Mlp net(config, rng);
    mlp::TrainConfig train;
    train.epochs = 4;
    mlp::train(net, split.train, train);
    const mlp::QuantizedMlp quant(net);
    RtlFoldedMlp rtl(quant, 8);
    for (std::size_t i = 0; i < split.test.size(); ++i) {
        ASSERT_EQ(quant.predict(split.test[i].pixels.data()),
                  rtl.predict(split.test[i].pixels.data()));
    }
}

class RtlSnnTest : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(RtlSnnTest, WinnerAndPotentialsMatchFunctionalModel)
{
    const std::size_t ni = GetParam();
    snn::SnnConfig config;
    config.numInputs = 49;
    config.numNeurons = 12;
    Rng rng(5);
    snn::SnnNetwork net(config, rng);
    const snn::SnnWotDatapath datapath(net);
    const snn::SpikeEncoder encoder(config.coding);
    RtlFoldedSnnWot rtl(datapath, encoder, ni);

    Rng data_rng(6);
    for (int trial = 0; trial < 30; ++trial) {
        std::vector<uint8_t> pixels(49);
        for (auto &p : pixels)
            p = static_cast<uint8_t>(data_rng.uniformInt(256));
        // Functional reference computes from counts.
        std::vector<uint8_t> counts(49);
        for (std::size_t i = 0; i < 49; ++i)
            counts[i] = encoder.spikeCount(pixels[i]);
        std::vector<uint32_t> func_pot, rtl_pot;
        const int func_winner =
            datapath.forward(counts.data(), &func_pot);
        const auto [rtl_winner, stats] =
            rtl.run(pixels.data(), &rtl_pot);
        ASSERT_EQ(func_winner, rtl_winner);
        ASSERT_EQ(func_pot, rtl_pot);
    }
}

INSTANTIATE_TEST_SUITE_P(Folds, RtlSnnTest,
                         ::testing::Values(1u, 3u, 8u, 16u));

TEST(RtlSnn, CycleCountMatchesScheduleFormula)
{
    snn::SnnConfig config;
    config.numInputs = 784;
    config.numNeurons = 300;
    Rng rng(7);
    snn::SnnNetwork net(config, rng);
    const snn::SnnWotDatapath datapath(net);
    const snn::SpikeEncoder encoder(config.coding);
    std::vector<uint8_t> pixels(784, 128);
    for (std::size_t ni : {1UL, 4UL, 8UL, 16UL}) {
        RtlFoldedSnnWot rtl(datapath, encoder, ni);
        const auto [winner, stats] = rtl.run(pixels.data());
        EXPECT_EQ(stats.cycles, hw::foldedSnnWotCycles({784, 300}, ni))
            << "ni=" << ni;
        EXPECT_EQ(stats.multOps, 784u * 300);
        (void)winner;
    }
}

/** The RTL datapaths fetch as many weight words as the cost model
 *  charges the matching folded design. */
class RtlSramReadsMatchCostModel
    : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(RtlSramReadsMatchCostModel, FoldedMlp)
{
    const std::size_t ni = GetParam();
    mlp::MlpConfig config;
    config.layerSizes = {784, 100, 10};
    Rng rng(8);
    const mlp::Mlp net(config, rng);
    const mlp::QuantizedMlp quant(net);
    RtlFoldedMlp rtl(quant, ni);
    std::vector<uint8_t> pixels(784, 100);
    std::vector<uint8_t> out(10);
    EXPECT_EQ(rtl.run(pixels.data(), out.data()).sramReads,
              costedSramReads(hw::buildFoldedMlp({784, 100, 10}, ni)));
}

TEST_P(RtlSramReadsMatchCostModel, FoldedSnnWot)
{
    const std::size_t ni = GetParam();
    snn::SnnConfig config;
    config.numInputs = 784;
    config.numNeurons = 300;
    Rng rng(9);
    snn::SnnNetwork net(config, rng);
    const snn::SnnWotDatapath datapath(net);
    const snn::SpikeEncoder encoder(config.coding);
    RtlFoldedSnnWot rtl(datapath, encoder, ni);
    std::vector<uint8_t> pixels(784, 128);
    EXPECT_EQ(rtl.run(pixels.data()).second.sramReads,
              costedSramReads(hw::buildFoldedSnnWot({784, 300}, ni)));
}

INSTANTIATE_TEST_SUITE_P(Folds, RtlSramReadsMatchCostModel,
                         ::testing::Values(1u, 2u, 4u, 8u, 16u));

} // namespace
} // namespace cycle
} // namespace neuro
