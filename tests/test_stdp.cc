// Tests for the simplified STDP rule (LTP window, LTD, bounds).

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "neuro/common/rng.h"
#include "neuro/snn/stdp.h"

namespace neuro {
namespace snn {
namespace {

/** (tick, input) spikes, in emission order. */
using Spikes = std::vector<std::pair<int, uint16_t>>;

/** A finalized grid of @p num_inputs inputs over 200 ms. */
PackedSpikeGrid
gridOf(const Spikes &spikes, std::size_t num_inputs)
{
    PackedSpikeGrid grid(num_inputs, 200);
    for (const auto &[tick, input] : spikes)
        grid.addSpike(tick, input);
    grid.finalize();
    return grid;
}

/** STDP on @p w for a firing at @p fire_ms of a presentation of
 *  @p spikes. @return the potentiated synapses. */
std::size_t
fireAfter(const StdpRule &rule, std::vector<float> &w, const Spikes &spikes,
          int64_t fire_ms)
{
    const PackedSpikeGrid grid = gridOf(spikes, w.size());
    std::vector<uint32_t> causal(w.size(), 0);
    const std::size_t marked =
        rule.markCausal(grid, fire_ms, causal.data());
    rule.onPostSpike(w.data(), causal.data(), w.size());
    return marked;
}

StdpConfig
hardConfig()
{
    StdpConfig config;
    config.ltpWindowMs = 45;
    config.ltpIncrement = 2.0f;
    config.ltdDecrement = 1.0f;
    config.softBounds = false;
    return config;
}

TEST(Stdp, CausalSpikesPotentiated)
{
    const StdpRule rule(hardConfig());
    std::vector<float> w = {100.0f, 100.0f, 100.0f, 100.0f};
    // Fire at t=100; spikes at 100, 60, 54, never.
    const std::size_t potentiated =
        fireAfter(rule, w, {{100, 0}, {60, 1}, {54, 2}}, 100);
    EXPECT_EQ(potentiated, 2u);
    EXPECT_FLOAT_EQ(w[0], 102.0f); // within window (dt = 0).
    EXPECT_FLOAT_EQ(w[1], 102.0f); // dt = 40 <= 45.
    EXPECT_FLOAT_EQ(w[2], 99.0f);  // dt = 46 > 45 -> LTD.
    EXPECT_FLOAT_EQ(w[3], 99.0f);  // never spiked -> LTD.
}

TEST(Stdp, FutureSpikeIsNotCausal)
{
    const StdpRule rule(hardConfig());
    std::vector<float> w = {100.0f};
    // The input's only spike comes *after* the postsynaptic one:
    // acausal -> LTD.
    fireAfter(rule, w, {{150, 0}}, 100);
    EXPECT_FLOAT_EQ(w[0], 99.0f);
}

TEST(Stdp, HardBoundsClamp)
{
    StdpConfig config = hardConfig();
    config.ltpIncrement = 50.0f;
    config.ltdDecrement = 50.0f;
    const StdpRule rule(config);
    std::vector<float> w = {240.0f, 20.0f};
    fireAfter(rule, w, {{100, 0}}, 100);
    EXPECT_FLOAT_EQ(w[0], 255.0f);
    EXPECT_FLOAT_EQ(w[1], 0.0f);
}

TEST(Stdp, SoftBoundsScaleWithHeadroom)
{
    StdpConfig config = hardConfig();
    config.softBounds = true;
    config.ltpIncrement = 10.0f;
    config.ltdDecrement = 10.0f;
    const StdpRule rule(config);
    std::vector<float> w = {0.0f, 255.0f, 127.5f, 127.5f};
    fireAfter(rule, w, {{100, 0}, {100, 1}, {100, 2}}, 100);
    EXPECT_FLOAT_EQ(w[0], 10.0f);   // full headroom -> full step.
    EXPECT_FLOAT_EQ(w[1], 255.0f);  // saturated -> no movement.
    EXPECT_NEAR(w[2], 127.5f + 5.0f, 1e-4f); // half headroom.
    EXPECT_NEAR(w[3], 127.5f - 5.0f, 1e-4f); // LTD scales with w.
}

TEST(Stdp, RepeatedPotentiationConvergesToMax)
{
    StdpConfig config = hardConfig();
    config.softBounds = true;
    config.ltpIncrement = 32.0f;
    const StdpRule rule(config);
    std::vector<float> w = {50.0f};
    for (int i = 0; i < 200; ++i)
        fireAfter(rule, w, {{0, 0}}, 0);
    EXPECT_NEAR(w[0], 255.0f, 1.0f);
}

class LtpWindowTest : public ::testing::TestWithParam<int>
{
};

TEST_P(LtpWindowTest, BoundaryIsInclusive)
{
    StdpConfig config = hardConfig();
    config.ltpWindowMs = GetParam();
    const StdpRule rule(config);
    std::vector<float> w = {100.0f, 100.0f};
    const int edge = 100 - GetParam();
    fireAfter(rule, w,
              {{edge, 0},      // exactly at the window edge -> LTP.
               {edge - 1, 1}}, // one ms beyond -> LTD.
              100);
    EXPECT_GT(w[0], 100.0f);
    EXPECT_LT(w[1], 100.0f);
}

INSTANTIATE_TEST_SUITE_P(Windows, LtpWindowTest,
                         ::testing::Values(1, 10, 45, 50));

TEST(Stdp, GridWindowEqualsTheLastSpikeRule)
{
    // The causal set read from the grid is the set the walks once
    // built from each input's last spike time: an input is causal to
    // a firing at t iff its latest spike at or before t is at most
    // TLTP old. Random sparse grids, every firing tick of the window
    // (spike-carrying or not, spikes after it included), and inputs
    // pinned to both window edges and to t itself.
    StdpConfig config = hardConfig();
    const StdpRule rule(config);
    const int window = config.ltpWindowMs;
    constexpr std::size_t kInputs = 40;
    Rng rng(31);
    std::size_t compared = 0;
    for (int trial = 0; trial < 20; ++trial) {
        Spikes spikes;
        for (int tick = 0; tick < 200; ++tick) {
            for (uint16_t p = 0; p < kInputs; ++p) {
                if (rng.uniform() < 0.02)
                    spikes.emplace_back(tick, p);
            }
        }
        const int t = 60 + trial * 7;
        // Inputs 0-2 spike only at t - TLTP, t - TLTP - 1 and t.
        std::erase_if(spikes, [](const auto &s) { return s.second < 3; });
        spikes.emplace_back(t - window, uint16_t{0});
        spikes.emplace_back(t - window - 1, uint16_t{1});
        spikes.emplace_back(t, uint16_t{2});
        const PackedSpikeGrid grid = gridOf(spikes, kInputs);

        for (int fire = 0; fire < 200; ++fire) {
            std::vector<int64_t> last(kInputs, -1);
            for (const auto &[tick, input] : spikes) {
                if (tick <= fire)
                    last[input] = std::max<int64_t>(last[input], tick);
            }
            std::vector<uint32_t> causal(kInputs, 0);
            const std::size_t marked =
                rule.markCausal(grid, fire, causal.data());
            std::size_t expected_marked = 0;
            for (std::size_t p = 0; p < kInputs; ++p) {
                const bool expected =
                    last[p] >= 0 && fire - last[p] <= window;
                expected_marked += expected;
                ASSERT_EQ(causal[p] != 0, expected)
                    << "trial " << trial << " fire " << fire << " input "
                    << p;
            }
            EXPECT_EQ(marked, expected_marked);
            ++compared;
        }
        std::vector<uint32_t> causal(kInputs, 0);
        rule.markCausal(grid, t, causal.data());
        EXPECT_EQ(causal[0], 1u); // at the window's start.
        EXPECT_EQ(causal[1], 0u); // one tick before it.
        EXPECT_EQ(causal[2], 1u); // at the firing.
    }
    EXPECT_EQ(compared, 20u * 200u);
}

TEST(Stdp, TiledUpdateEqualsThePerSynapseRule)
{
    // A row long enough for whole tiles and a tail: every synapse
    // moves as the branching rule moves it, in both bound modes.
    for (const bool soft : {true, false}) {
        StdpConfig config;
        config.softBounds = soft;
        config.ltpIncrement = 3.5f;
        config.ltdDecrement = 1.25f;
        const StdpRule rule(config);
        Rng rng(soft ? 41 : 42);
        std::vector<float> w(37);
        std::vector<uint32_t> causal(w.size());
        for (std::size_t i = 0; i < w.size(); ++i) {
            w[i] = static_cast<float>(rng.uniform() * 255.0);
            causal[i] = rng.uniform() < 0.4 ? 1u : 0u;
        }
        w[0] = 0.0f;
        w[1] = 255.0f;
        std::vector<float> expected = w;
        const float span = config.wMax - config.wMin;
        for (std::size_t i = 0; i < w.size(); ++i) {
            float &x = expected[i];
            if (causal[i]) {
                float step = config.ltpIncrement;
                if (soft)
                    step *= (config.wMax - x) / span;
                x = std::min(x + step, config.wMax);
            } else {
                float step = config.ltdDecrement;
                if (soft)
                    step *= (x - config.wMin) / span;
                x = std::max(x - step, config.wMin);
            }
        }
        rule.onPostSpike(w.data(), causal.data(), w.size());
        EXPECT_EQ(w, expected) << (soft ? "soft" : "hard");
    }
}

} // namespace
} // namespace snn
} // namespace neuro
