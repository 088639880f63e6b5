// Tests for the SNNwot shifter/adder hardware datapath model.

#include <gtest/gtest.h>

#include "neuro/common/rng.h"
#include "neuro/snn/network.h"
#include "neuro/snn/snn_wot.h"

namespace neuro {
namespace snn {
namespace {

TEST(ShiftMultiply, MatchesMultiplicationExhaustively)
{
    // All 4-bit counts x all 8-bit weights: the 4-shifter decomposition
    // n3*8W + n2*4W + n1*2W + n0*W must equal count * weight.
    for (unsigned count = 0; count < 16; ++count) {
        for (unsigned weight = 0; weight < 256; ++weight) {
            ASSERT_EQ(SnnWotDatapath::shiftMultiply(
                          static_cast<uint8_t>(count),
                          static_cast<uint8_t>(weight)),
                      count * weight)
                << count << " * " << weight;
        }
    }
}

SnnConfig
smallConfig()
{
    SnnConfig config;
    config.numInputs = 6;
    config.numNeurons = 4;
    config.coding.periodMs = 100;
    config.coding.minIntervalMs = 10;
    config.homeostasis.enabled = false;
    config.thresholdJitter = 0.0;
    return config;
}

TEST(SnnWotDatapath, QuantizesWeightsToBytes)
{
    Rng rng(1);
    SnnNetwork net(smallConfig(), rng);
    net.weights()(0, 0) = 41.7f;
    net.weights()(0, 1) = 300.0f;  // clamps to 255.
    net.weights()(0, 2) = -5.0f;   // clamps to 0.
    const SnnWotDatapath dp(net);
    EXPECT_EQ(dp.weight(0, 0), 42);
    EXPECT_EQ(dp.weight(0, 1), 255);
    EXPECT_EQ(dp.weight(0, 2), 0);
}

TEST(SnnWotDatapath, ForwardMatchesFloatReference)
{
    Rng rng(2);
    SnnNetwork net(smallConfig(), rng);
    // Integer-valued float weights: the byte datapath must agree
    // exactly with an ordered sum over the network's own weights.
    for (std::size_t n = 0; n < 4; ++n)
        for (std::size_t i = 0; i < 6; ++i)
            net.weights()(n, i) =
                static_cast<float>(rng.uniformInt(256));
    const SnnWotDatapath dp(net);

    for (int trial = 0; trial < 50; ++trial) {
        std::vector<uint8_t> counts(6);
        for (auto &c : counts)
            c = static_cast<uint8_t>(rng.uniformInt(11));
        std::vector<uint32_t> int_pot;
        const int int_winner = dp.forward(counts.data(), &int_pot);
        int ref_winner = 0;
        uint64_t ref_best = 0;
        for (std::size_t n = 0; n < 4; ++n) {
            uint64_t ref_pot = 0;
            for (std::size_t i = 0; i < 6; ++i)
                ref_pot += counts[i] *
                    static_cast<uint64_t>(net.weights()(n, i));
            EXPECT_EQ(ref_pot, int_pot[n]) << "neuron " << n;
            if (n == 0 || ref_pot > ref_best) {
                ref_best = ref_pot;
                ref_winner = static_cast<int>(n);
            }
        }
        EXPECT_EQ(ref_winner, int_winner);
    }
}

TEST(SnnWotDatapath, ForwardPicksLargestDotProduct)
{
    SnnConfig config = smallConfig();
    config.numInputs = 4;
    config.numNeurons = 3;
    Rng rng(6);
    SnnNetwork net(config, rng);
    net.weights().fill(0.0f);
    net.weights()(1, 2) = 50.0f; // neuron 1 keyed to input 2.
    const SnnWotDatapath dp(net);
    const std::vector<uint8_t> counts = {0, 0, 7, 0};
    std::vector<uint32_t> potentials;
    EXPECT_EQ(dp.forward(counts.data(), &potentials), 1);
    EXPECT_EQ(potentials[1], 350u);
    EXPECT_EQ(potentials[0], 0u);
}

TEST(SnnWotDatapath, ForwardPixelsCountsUnderTheNetworkCoding)
{
    Rng rng(4);
    SnnNetwork net(smallConfig(), rng);
    const SnnWotDatapath dp(net);
    const SpikeEncoder encoder(net.config().coding);
    for (int trial = 0; trial < 20; ++trial) {
        std::vector<uint8_t> pixels(6), counts(6);
        for (std::size_t p = 0; p < 6; ++p) {
            pixels[p] = static_cast<uint8_t>(rng.uniformInt(256));
            counts[p] = encoder.spikeCount(pixels[p]);
        }
        std::vector<uint32_t> from_pixels, from_counts;
        EXPECT_EQ(dp.forwardPixels(pixels.data(), &from_pixels),
                  dp.forward(counts.data(), &from_counts));
        EXPECT_EQ(from_pixels, from_counts);
    }
}

TEST(SnnWotDatapath, TieBreaksToLowerIndex)
{
    Rng rng(3);
    SnnNetwork net(smallConfig(), rng);
    net.weights().fill(10.0f); // all neurons identical.
    const SnnWotDatapath dp(net);
    const std::vector<uint8_t> counts = {1, 2, 3, 4, 5, 6};
    EXPECT_EQ(dp.forward(counts.data()), 0);
}

} // namespace
} // namespace snn
} // namespace neuro
