// Tests for the event-indexed spike grid: per-scheme encoding
// determinism, duplicate merging, and the event index.

#include <gtest/gtest.h>

#include <utility>
#include <vector>

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

/** The grid as (tick, input) pairs, in event-index order. */
std::vector<std::pair<int32_t, uint16_t>>
eventsOf(const PackedSpikeGrid &grid)
{
    std::vector<std::pair<int32_t, uint16_t>> events;
    for (std::size_t k = 0; k < grid.activeTickCount(); ++k) {
        std::size_t count = 0;
        const uint16_t *inputs = grid.inputsAt(k, &count);
        for (std::size_t s = 0; s < count; ++s)
            events.emplace_back(grid.activeTicks()[k], inputs[s]);
    }
    return events;
}

class PackedEncodingTest : public ::testing::TestWithParam<CodingScheme>
{
};

TEST_P(PackedEncodingTest, SameStreamSameGrid)
{
    // The grid cache relies on this: one Rng stream, one grid, and the
    // Rng consumed identically, even into a reused grid.
    const SpikeEncoder encoder(makeConfig(GetParam()));
    const auto pixels = rampPixels(64);

    Rng first_rng(11);
    PackedSpikeGrid first;
    encoder.encodePacked(pixels.data(), pixels.size(), first_rng, first);

    Rng second_rng(11);
    PackedSpikeGrid reused(8, 20);
    reused.addSpike(3, 5);
    reused.finalize();
    encoder.encodePacked(pixels.data(), pixels.size(), second_rng, reused);

    EXPECT_EQ(reused.numInputs(), pixels.size());
    EXPECT_EQ(reused.periodMs(), 500);
    EXPECT_GT(first.totalSpikes(), 0u);
    EXPECT_EQ(eventsOf(reused), eventsOf(first));
    EXPECT_EQ(first_rng.next(), second_rng.next());
    for (const auto &[t, p] : eventsOf(first))
        EXPECT_NE(p, 0) << "zero-luminance pixel spiked at tick " << t;
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, PackedEncodingTest,
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
    EXPECT_EQ(eventsOf(grid),
              (std::vector<std::pair<int32_t, uint16_t>>{
                  {0, 3}, {499, 3}, {499, 7}}));
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

TEST(PackedSpikeGrid, EmptyGridHasNoActiveTicks)
{
    PackedSpikeGrid grid(16, 500);
    grid.finalize();
    EXPECT_EQ(grid.totalSpikes(), 0u);
    EXPECT_EQ(grid.activeTickCount(), 0u);
    EXPECT_EQ(grid.periodMs(), 500);
}

} // namespace
} // namespace snn
} // namespace neuro
