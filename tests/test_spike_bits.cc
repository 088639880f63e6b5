// Tests for the event-indexed spike grid: packed/dense round trips
// across every coding scheme, duplicate merging, and the event index.

#include <gtest/gtest.h>

#include "neuro/common/rng.h"
#include "neuro/snn/coding.h"
#include "neuro/snn/spike_bits.h"

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

std::vector<uint8_t>
rampPixels(std::size_t n)
{
    std::vector<uint8_t> pixels(n);
    for (std::size_t p = 0; p < n; ++p)
        pixels[p] = static_cast<uint8_t>((p * 37) % 256);
    pixels[0] = 0;   // zero-luminance pixel must stay silent.
    pixels[1] = 255; // full-luminance pixel.
    return pixels;
}

class PackedRoundTripTest : public ::testing::TestWithParam<CodingScheme>
{
};

TEST_P(PackedRoundTripTest, PackedExpandsToDenseEncoding)
{
    const SpikeEncoder encoder(makeConfig(GetParam()));
    const auto pixels = rampPixels(64);

    // Same seed for both encoders: the packed encoder must consume the
    // Rng identically and produce the identical train.
    Rng dense_rng(11);
    SpikeTrainGrid dense;
    encoder.encodeInto(pixels.data(), pixels.size(), dense_rng, dense);

    Rng packed_rng(11);
    PackedSpikeGrid packed;
    encoder.encodePacked(pixels.data(), pixels.size(), packed_rng, packed);

    SpikeTrainGrid expanded;
    packed.toDense(expanded);
    ASSERT_EQ(expanded.ticks.size(), dense.ticks.size());
    for (std::size_t t = 0; t < dense.ticks.size(); ++t)
        EXPECT_EQ(expanded.ticks[t], dense.ticks[t]) << "tick " << t;
    EXPECT_EQ(packed.totalSpikes(), dense.totalSpikes());

    // And both Rngs ended in the same state.
    EXPECT_EQ(dense_rng.next(), packed_rng.next());
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, PackedRoundTripTest,
    ::testing::Values(CodingScheme::RatePoisson, CodingScheme::RateGaussian,
                      CodingScheme::RateRegular, CodingScheme::RateBernoulli,
                      CodingScheme::TimeToFirstSpike,
                      CodingScheme::RankOrder));

TEST(PackedSpikeGrid, EdgeTicksRoundTrip)
{
    // First and last tick of the window are representable and survive
    // the round trip (off-by-one guards on the tick range).
    PackedSpikeGrid grid(8, 500);
    grid.addSpike(0, 3);
    grid.addSpike(499, 3);
    grid.addSpike(499, 7);
    grid.finalize();

    EXPECT_EQ(grid.totalSpikes(), 3u);
    EXPECT_EQ(grid.activeTickCount(), 2u);
    ASSERT_EQ(grid.activeTicks().size(), 2u);
    EXPECT_EQ(grid.activeTicks().front(), 0);
    EXPECT_EQ(grid.activeTicks().back(), 499);

    SpikeTrainGrid dense;
    grid.toDense(dense);
    ASSERT_EQ(dense.ticks.size(), 500u);
    EXPECT_EQ(dense.ticks[0], (std::vector<uint16_t>{3}));
    EXPECT_EQ(dense.ticks[499], (std::vector<uint16_t>{3, 7}));
}

TEST(PackedSpikeGrid, DuplicateSpikesMerge)
{
    PackedSpikeGrid grid(4, 100);
    grid.addSpike(10, 2);
    grid.addSpike(10, 2);
    grid.finalize();
    EXPECT_EQ(grid.totalSpikes(), 1u) << "duplicate must merge";
    ASSERT_EQ(grid.activeTickCount(), 1u);
    std::size_t count = 0;
    const uint16_t *inputs = grid.inputsAt(0, &count);
    ASSERT_EQ(count, 1u);
    EXPECT_EQ(inputs[0], 2);
}

TEST(PackedSpikeGrid, NonAdjacentDuplicatesMergeFirstEmissionWins)
{
    // The repeat of (5, 2) arrives after a spike at another tick; the
    // merge still drops it, and tick 5 keeps its emission order.
    PackedSpikeGrid grid(4, 100);
    grid.addSpike(5, 2);
    grid.addSpike(3, 2);
    grid.addSpike(5, 2);
    grid.addSpike(5, 1);
    grid.finalize();

    EXPECT_EQ(grid.totalSpikes(), 3u);
    ASSERT_EQ(grid.activeTickCount(), 2u);
    EXPECT_EQ(grid.activeTicks()[0], 3);
    EXPECT_EQ(grid.activeTicks()[1], 5);
    std::size_t count = 0;
    const uint16_t *inputs = grid.inputsAt(1, &count);
    EXPECT_EQ(std::vector<uint16_t>(inputs, inputs + count),
              (std::vector<uint16_t>{2, 1}));
    inputs = grid.inputsAt(0, &count);
    EXPECT_EQ(std::vector<uint16_t>(inputs, inputs + count),
              (std::vector<uint16_t>{2}));
}

TEST(PackedSpikeGrid, EmptyGridCostsNoPerCellStorage)
{
    // Only events are stored: an empty MNIST-sized window holds no
    // per-(input, tick) state, before or after finalize().
    PackedSpikeGrid grid(784, 500);
    EXPECT_LT(grid.bytes(), 1024u);
    grid.finalize();
    EXPECT_LT(grid.bytes(), 1024u);
}

TEST(PackedSpikeGrid, EventIndexPreservesEmissionOrder)
{
    // Inputs emitted out of numeric order within a tick must come back
    // in emission order (the drive sums are ordered float reductions).
    PackedSpikeGrid grid(8, 100);
    grid.addSpike(5, 6);
    grid.addSpike(5, 1);
    grid.addSpike(5, 4);
    grid.addSpike(2, 7);
    grid.finalize();

    ASSERT_EQ(grid.activeTickCount(), 2u);
    EXPECT_EQ(grid.activeTicks()[0], 2);
    EXPECT_EQ(grid.activeTicks()[1], 5);
    std::size_t count = 0;
    const uint16_t *inputs = grid.inputsAt(1, &count);
    ASSERT_EQ(count, 3u);
    EXPECT_EQ(inputs[0], 6);
    EXPECT_EQ(inputs[1], 1);
    EXPECT_EQ(inputs[2], 4);
}

TEST(PackedSpikeGrid, FromDenseRoundTrip)
{
    SpikeTrainGrid dense;
    dense.ticks.resize(50);
    dense.ticks[0] = {2, 0};
    dense.ticks[49] = {1};
    PackedSpikeGrid packed;
    packed.fromDense(dense, 4);
    SpikeTrainGrid back;
    packed.toDense(back);
    ASSERT_EQ(back.ticks.size(), dense.ticks.size());
    for (std::size_t t = 0; t < dense.ticks.size(); ++t)
        EXPECT_EQ(back.ticks[t], dense.ticks[t]);
}

TEST(PackedSpikeGrid, EmptyGridHasNoActiveTicks)
{
    PackedSpikeGrid grid(16, 500);
    grid.finalize();
    EXPECT_EQ(grid.totalSpikes(), 0u);
    EXPECT_EQ(grid.activeTickCount(), 0u);
    SpikeTrainGrid dense;
    grid.toDense(dense);
    EXPECT_EQ(dense.ticks.size(), 500u);
    for (const auto &tick : dense.ticks)
        EXPECT_TRUE(tick.empty());
}

} // namespace
} // namespace snn
} // namespace neuro
