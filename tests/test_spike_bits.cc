// Tests for the event-indexed spike grid: per-scheme encoding
// determinism, horizon encoding (its two passes and its fallback)
// against the full window, duplicate merging, and the event index.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "neuro/common/rng.h"
#include "neuro/datasets/synth_digits.h"
#include "neuro/snn/coding.h"
#include "neuro/snn/spike_bits.h"
#include "neuro/telemetry/metrics.h"

namespace neuro {
namespace snn {

/** Reaches into SpikeEncoder's horizon band. */
class SpikeEncoderTestPeer
{
  public:
    static void
    setBand(SpikeEncoder &encoder, double band)
    {
        encoder.horizonBand_ = band;
    }
};

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
    // The grid store relies on this: one Rng stream, one grid, and the
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

/** Images for the horizon tests: MNIST-like digits plus a ramp
 *  through every luminance. */
std::vector<std::vector<uint8_t>>
horizonImages(std::size_t digits)
{
    std::vector<std::vector<uint8_t>> images;
    const datasets::Dataset data = datasets::mnistLike(digits, 0, 9).train;
    for (std::size_t i = 0; i < data.size(); ++i)
        images.push_back(data[i].pixels);
    images.push_back(rampPixels(784));
    return images;
}

/**
 * encodeHorizon() into a reused grid against encodePacked() on the
 * same streams: the events below the horizon, and the Rng end state.
 * @return the number of truncated grids.
 */
std::size_t
expectHorizonGridsMatch(const SpikeEncoder &encoder,
                        const std::vector<std::vector<uint8_t>> &images,
                        const std::vector<int> &horizons)
{
    const int period = encoder.config().periodMs;
    PackedSpikeGrid full;
    PackedSpikeGrid cut;
    std::size_t truncated = 0;
    for (const int horizon : horizons) {
        for (std::size_t i = 0; i < images.size(); ++i) {
            const auto &px = images[i];
            Rng full_rng(deriveStreamSeed(5, i));
            encoder.encodePacked(px.data(), px.size(), full_rng, full);
            Rng cut_rng(deriveStreamSeed(5, i));
            encoder.encodeHorizon(px.data(), px.size(), cut_rng, horizon,
                                  cut);
            auto expected = eventsOf(full);
            const int covered = cut.horizonMs();
            EXPECT_TRUE(covered == period ||
                        (covered == horizon && horizon < period));
            truncated += covered < period;
            expected.erase(std::remove_if(expected.begin(), expected.end(),
                                          [&](const auto &e) {
                                              return e.first >= covered;
                                          }),
                           expected.end());
            EXPECT_EQ(eventsOf(cut), expected)
                << "image " << i << ", horizon " << horizon;
            EXPECT_EQ(cut_rng.next(), full_rng.next())
                << "image " << i << ", horizon " << horizon;
        }
    }
    return truncated;
}

class HorizonEncodingTest : public ::testing::TestWithParam<CodingScheme>
{
};

TEST_P(HorizonEncodingTest, EventsBelowHorizonAndRngEndStateMatch)
{
    // Poisson grids stop at the horizon; every other scheme encodes
    // its whole window. Horizons 125 and 250 read the encoder's
    // tables, the others compute their thresholds per pixel.
    const SpikeEncoder encoder(makeConfig(GetParam()));
    const std::size_t truncated = expectHorizonGridsMatch(
        encoder, horizonImages(200), {1, 37, 125, 250, 499, 500, 800});
    if (GetParam() == CodingScheme::RatePoisson)
        EXPECT_EQ(truncated, 5u * 201u);
    else
        EXPECT_EQ(truncated, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, HorizonEncodingTest,
    ::testing::Values(CodingScheme::RatePoisson, CodingScheme::RateGaussian,
                      CodingScheme::RateRegular, CodingScheme::RateBernoulli,
                      CodingScheme::TimeToFirstSpike,
                      CodingScheme::RankOrder));

/** Reads the horizon encoder's fallback count since construction. */
class FallbackCount
{
  public:
    FallbackCount()
        : counter_(telemetry::MetricRegistry::instance().counter(
              "snn.encode.horizon_fallbacks")),
          start_(counter_->value())
    {
    }

    uint64_t since() const { return counter_->value() - start_; }

  private:
    std::shared_ptr<telemetry::Counter> counter_;
    uint64_t start_;
};

TEST(HorizonEncoding, ExactReplayOfEveryPixelMatches)
{
    // An infinite band puts every product inside it, so every lit
    // image falls back to the full encode: its complete grid, and the
    // Rng it leaves, must still match. A 5 ms minimum interval gives
    // bright pixels ~100 draws.
    for (const int min_interval : {50, 5}) {
        CodingConfig config = makeConfig(CodingScheme::RatePoisson);
        config.minIntervalMs = min_interval;
        SpikeEncoder encoder(config);
        SpikeEncoderTestPeer::setBand(
            encoder, std::numeric_limits<double>::infinity());
        const FallbackCount forced;
        EXPECT_EQ(expectHorizonGridsMatch(encoder, horizonImages(40),
                                          {1, 125, 250, 499}),
                  0u);
        EXPECT_EQ(forced.since(), 4u * 41u);
        SpikeEncoderTestPeer::setBand(encoder, 1e-9);
        const FallbackCount normal;
        EXPECT_EQ(expectHorizonGridsMatch(encoder, horizonImages(40),
                                          {125, 250}),
                  2u * 41u);
        EXPECT_EQ(normal.since(), 0u);
    }
}

TEST(HorizonEncoding, TwoPassMatchesFullEncodeOnDarkBrightNoisyImages)
{
    // Dark (no lit pixel, or every pixel at luminance 1), bright
    // (every pixel at 255) and noisy images at the paper's coding and
    // at two other windows: every horizon below the period truncates
    // without a fallback, and matches the full encode below it.
    std::vector<std::vector<uint8_t>> images = {
        std::vector<uint8_t>(784, 0), std::vector<uint8_t>(784, 1),
        std::vector<uint8_t>(784, 255)};
    Rng noise(23);
    for (int k = 0; k < 3; ++k) {
        std::vector<uint8_t> px(784);
        for (auto &p : px)
            p = static_cast<uint8_t>(noise.uniformInt(256));
        images.push_back(std::move(px));
    }
    const std::vector<int> horizons = {1, 31, 62, 125, 250, 499, 500};
    struct Window
    {
        int periodMs;
        int minIntervalMs;
    };
    for (const Window w : {Window{500, 50}, Window{250, 20}, Window{1000, 7}}) {
        CodingConfig config = makeConfig(CodingScheme::RatePoisson);
        config.periodMs = w.periodMs;
        config.minIntervalMs = w.minIntervalMs;
        const SpikeEncoder encoder(config);
        const FallbackCount fallbacks;
        const auto below = static_cast<std::size_t>(
            std::count_if(horizons.begin(), horizons.end(),
                          [&](int h) { return h < w.periodMs; }));
        EXPECT_EQ(expectHorizonGridsMatch(encoder, images, horizons),
                  below * images.size())
            << "period " << w.periodMs;
        EXPECT_EQ(fallbacks.since(), 0u) << "period " << w.periodMs;
    }
}

TEST(HorizonEncoding, ExtremeRateEncodesTheWholeWindow)
{
    // 700 expected spikes per bright pixel: its thresholds would leave
    // the normal doubles, so the horizon path encodes the full window.
    CodingConfig config = makeConfig(CodingScheme::RatePoisson);
    config.periodMs = 700;
    config.minIntervalMs = 1;
    const SpikeEncoder encoder(config);
    EXPECT_EQ(expectHorizonGridsMatch(encoder, {rampPixels(64)}, {175}),
              0u);
}

TEST(PackedSpikeGrid, TruncatedGridRejectsSpikesPastItsHorizon)
{
    PackedSpikeGrid grid;
    grid.reset(8, 500, 100);
    EXPECT_FALSE(grid.complete());
    EXPECT_EQ(grid.horizonMs(), 100);
    grid.addSpike(99, 1);
    EXPECT_DEATH(grid.addSpike(100, 1), "tick 100 out of window");
    grid.finalize();
    EXPECT_EQ(grid.totalSpikes(), 1u);
    grid.reset(8, 500);
    EXPECT_TRUE(grid.complete());
}

TEST(PackedSpikeGrid, CompactCopyKeepsTheEventIndex)
{
    const SpikeEncoder encoder(makeConfig(CodingScheme::RatePoisson));
    const auto pixels = rampPixels(784);
    Rng rng(3);
    PackedSpikeGrid grid;
    encoder.encodePacked(pixels.data(), pixels.size(), rng, grid);
    const PackedSpikeGrid copy = grid.compactCopy();
    EXPECT_EQ(eventsOf(copy), eventsOf(grid));
    EXPECT_EQ(copy.periodMs(), grid.periodMs());
    EXPECT_TRUE(copy.complete());
    EXPECT_LT(copy.bytes(), grid.bytes());
}

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
