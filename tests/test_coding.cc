// Tests for the spike coding schemes (rate and temporal).

#include <gtest/gtest.h>

#include <vector>

#include "neuro/common/rng.h"
#include "neuro/snn/coding.h"

namespace neuro {
namespace snn {
namespace {

CodingConfig
makeConfig(CodingScheme scheme)
{
    CodingConfig config;
    config.scheme = scheme;
    config.periodMs = 500;
    config.minIntervalMs = 50;
    return config;
}

PackedSpikeGrid
encodeGrid(const SpikeEncoder &encoder, const uint8_t *pixels,
           std::size_t n, Rng &rng)
{
    PackedSpikeGrid grid;
    encoder.encodePacked(pixels, n, rng, grid);
    return grid;
}

/** Inputs of every spike, in tick order (emission order within one). */
std::vector<uint16_t>
spikeOrder(const PackedSpikeGrid &grid)
{
    std::vector<uint16_t> order;
    for (std::size_t k = 0; k < grid.activeTickCount(); ++k) {
        std::size_t count = 0;
        const uint16_t *inputs = grid.inputsAt(k, &count);
        order.insert(order.end(), inputs, inputs + count);
    }
    return order;
}

class RateCodingTest : public ::testing::TestWithParam<CodingScheme>
{
};

TEST_P(RateCodingTest, RateProportionalToLuminance)
{
    const SpikeEncoder encoder(makeConfig(GetParam()));
    Rng rng(1);
    // Pixel 0 dark, pixel 1 mid, pixel 2 bright; average over trials.
    const uint8_t pixels[3] = {0, 128, 255};
    double counts[3] = {0, 0, 0};
    double brightGapSum = 0.0;
    int brightGaps = 0;
    const int trials = 60;
    for (int t = 0; t < trials; ++t) {
        const PackedSpikeGrid grid = encodeGrid(encoder, pixels, 3, rng);
        int lastBright = -1;
        for (std::size_t k = 0; k < grid.activeTickCount(); ++k) {
            std::size_t count = 0;
            const uint16_t *inputs = grid.inputsAt(k, &count);
            for (std::size_t s = 0; s < count; ++s) {
                counts[inputs[s]] += 1.0;
                if (inputs[s] != 2)
                    continue;
                const int tick = grid.activeTicks()[k];
                if (lastBright >= 0) {
                    brightGapSum += tick - lastBright;
                    ++brightGaps;
                }
                lastBright = tick;
            }
        }
    }
    EXPECT_DOUBLE_EQ(counts[0], 0.0) << "zero luminance must not spike";
    EXPECT_GT(counts[2], counts[1] * 1.5);
    // Bright pixel: ~10 spikes per 500 ms window, ~50 ms apart.
    EXPECT_NEAR(counts[2] / trials, 10.0, 2.5);
    EXPECT_NEAR(counts[1] / trials, 5.0, 2.0);
    ASSERT_GT(brightGaps, 0);
    EXPECT_NEAR(brightGapSum / brightGaps, 50.0, 8.0);
}

TEST_P(RateCodingTest, SpikesWithinWindow)
{
    const SpikeEncoder encoder(makeConfig(GetParam()));
    Rng rng(2);
    const uint8_t pixels[2] = {255, 200};
    const PackedSpikeGrid grid = encodeGrid(encoder, pixels, 2, rng);
    EXPECT_EQ(grid.periodMs(), 500);
    EXPECT_GT(grid.totalSpikes(), 0u);
    ASSERT_GT(grid.activeTickCount(), 0u);
    EXPECT_GE(grid.activeTicks().front(), 0);
    EXPECT_LT(grid.activeTicks().back(), 500);
}

INSTANTIATE_TEST_SUITE_P(Schemes, RateCodingTest,
                         ::testing::Values(CodingScheme::RatePoisson,
                                           CodingScheme::RateGaussian,
                                           CodingScheme::RateRegular,
                                           CodingScheme::RateBernoulli));

TEST(TemporalCoding, TimeToFirstSpikeOrdersByLuminance)
{
    const SpikeEncoder encoder(
        makeConfig(CodingScheme::TimeToFirstSpike));
    Rng rng(3);
    const uint8_t pixels[4] = {255, 128, 10, 0};
    const PackedSpikeGrid grid = encodeGrid(encoder, pixels, 4, rng);
    // Exactly one spike per nonzero pixel.
    EXPECT_EQ(grid.totalSpikes(), 3u);
    int first_time[4] = {-1, -1, -1, -1};
    for (std::size_t k = 0; k < grid.activeTickCount(); ++k) {
        std::size_t count = 0;
        const uint16_t *inputs = grid.inputsAt(k, &count);
        for (std::size_t s = 0; s < count; ++s)
            if (first_time[inputs[s]] < 0)
                first_time[inputs[s]] = grid.activeTicks()[k];
    }
    EXPECT_LT(first_time[0], first_time[1]);
    EXPECT_LT(first_time[1], first_time[2]);
    EXPECT_EQ(first_time[3], -1);
}

TEST(TemporalCoding, RankOrderIsOnePerRank)
{
    const SpikeEncoder encoder(makeConfig(CodingScheme::RankOrder));
    Rng rng(4);
    const uint8_t pixels[5] = {50, 250, 0, 150, 100};
    const PackedSpikeGrid grid = encodeGrid(encoder, pixels, 5, rng);
    EXPECT_EQ(grid.totalSpikes(), 4u); // zero pixel silent.
    const std::vector<uint16_t> order = spikeOrder(grid);
    ASSERT_EQ(order.size(), 4u);
    EXPECT_EQ(order[0], 1); // brightest first.
    EXPECT_EQ(order[1], 3);
    EXPECT_EQ(order[2], 4);
    EXPECT_EQ(order[3], 0);
}

TEST(SpikeCount, FourBitDeterministicConversion)
{
    const SpikeEncoder encoder(makeConfig(CodingScheme::RatePoisson));
    EXPECT_EQ(encoder.spikeCount(0), 0);
    EXPECT_EQ(encoder.spikeCount(255), 10);
    EXPECT_EQ(encoder.maxSpikeCount(), 10);
    // Monotone in luminance, fits in 4 bits.
    int prev = -1;
    for (int p = 0; p <= 255; ++p) {
        const int c = encoder.spikeCount(static_cast<uint8_t>(p));
        ASSERT_GE(c, prev);
        ASSERT_LT(c, 16);
        prev = c;
    }
}

TEST(SpikeCount, MatchesMeanOfStochasticTrain)
{
    const SpikeEncoder encoder(makeConfig(CodingScheme::RatePoisson));
    Rng rng(5);
    const uint8_t pixels[1] = {200};
    double total = 0.0;
    const int trials = 200;
    for (int t = 0; t < trials; ++t) {
        total += static_cast<double>(
            encodeGrid(encoder, pixels, 1, rng).totalSpikes());
    }
    EXPECT_NEAR(total / trials,
                static_cast<double>(encoder.spikeCount(200)), 1.2);
}

TEST(Coding, SchemeNamesAreDistinct)
{
    EXPECT_NE(codingSchemeName(CodingScheme::RatePoisson),
              codingSchemeName(CodingScheme::RateGaussian));
    EXPECT_NE(codingSchemeName(CodingScheme::TimeToFirstSpike),
              codingSchemeName(CodingScheme::RankOrder));
}

} // namespace
} // namespace snn
} // namespace neuro
