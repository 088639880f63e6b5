// Tests for the single-layer WTA spiking network.

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "neuro/common/rng.h"
#include "neuro/snn/lif.h"
#include "neuro/snn/network.h"

namespace neuro {
namespace snn {
namespace {

SnnConfig
tinyConfig()
{
    SnnConfig config;
    config.numInputs = 4;
    config.numNeurons = 3;
    config.coding.periodMs = 100;
    config.coding.minIntervalMs = 10;
    config.tLeakMs = 100.0;
    config.tInhibitMs = 5;
    config.tRefracMs = 20;
    config.initialThreshold = 150.0;
    config.thresholdJitter = 0.0;
    config.homeostasis.enabled = false;
    config.wInitMin = 100.0f;
    config.wInitMax = 100.0f;
    return config;
}

/** A finalized grid as wide as tinyConfig()'s input layer. */
PackedSpikeGrid
gridWithSpikes(int period,
               const std::vector<std::pair<int, uint16_t>> &spikes)
{
    PackedSpikeGrid grid(tinyConfig().numInputs, period);
    for (const auto &[t, p] : spikes)
        grid.addSpike(t, p);
    grid.finalize();
    return grid;
}

TEST(SnnNetwork, IntegratesWeightsOnSpikes)
{
    Rng rng(1);
    SnnNetwork net(tinyConfig(), rng);
    // Two spikes on input 0 at t=0: each neuron integrates w = 100,
    // staying below threshold 150 until the second spike fires one.
    const auto grid =
        gridWithSpikes(100, {{0, 0}, {10, 0}});
    const auto result = net.presentImage(grid, false);
    EXPECT_EQ(result.inputSpikeCount, 2u);
    EXPECT_EQ(result.outputSpikeCount, 1u);
    EXPECT_GE(result.firstSpikeNeuron, 0);
    EXPECT_EQ(result.firstSpikeTimeMs, 10);
}

TEST(SnnNetwork, OnlyOneNeuronFiresPerTick)
{
    Rng rng(2);
    SnnConfig config = tinyConfig();
    config.tInhibitMs = 50; // long inhibition: one fire total.
    SnnNetwork net(config, rng);
    const auto grid = gridWithSpikes(100, {{0, 0}, {0, 1}, {0, 2}});
    // Drive = 300 > threshold for every neuron simultaneously; the WTA
    // must pick exactly one.
    const auto result = net.presentImage(grid, false);
    EXPECT_EQ(result.outputSpikeCount, 1u);
}

TEST(SnnNetwork, WtaResetZeroesPeers)
{
    Rng rng(3);
    SnnConfig config = tinyConfig();
    config.wtaReset = true;
    SnnNetwork net(config, rng);
    // Make neuron 0 strictly stronger so it wins.
    Matrix weights = net.weights();
    weights(0, 0) = 200.0f;
    net.setWeights(std::move(weights));
    const auto grid = gridWithSpikes(100, {{0, 0}, {1, 0}});
    net.presentImage(grid, false);
    // After the presentation, losers' potentials were reset at the
    // firing tick; they only hold what arrived afterwards.
    EXPECT_LT(net.potentials()[1], 150.0);
}

TEST(SnnNetwork, RefractoryNeuronIgnoresInput)
{
    Rng rng(4);
    SnnConfig config = tinyConfig();
    config.numNeurons = 1;
    SnnNetwork net(config, rng);
    const auto grid = gridWithSpikes(
        100, {{0, 0}, {0, 1}, {5, 0}, {40, 0}, {40, 1}});
    // Fires at t=0 (drive 200 > 150); the t=5 spike lands inside the
    // 20 ms refractory window and must be ignored; t=40 integrates again.
    const auto result = net.presentImage(grid, false);
    EXPECT_EQ(result.outputSpikeCount, 2u);
    EXPECT_EQ(result.firstSpikeTimeMs, 0);
}

// Two neurons, four inputs, no WTA reset: input 0 fires neuron 0 and
// input 1 fires neuron 1 (weight 200 against threshold 150); inputs 2
// and 3 are sub-threshold probes (weight 10) of neuron 0 and neuron 1
// alone, so each neuron's end potential shows which probe it took.
SnnNetwork
gateProbeNetwork(int t_inhibit, int t_refrac, Rng &rng)
{
    SnnConfig config = tinyConfig();
    config.numNeurons = 2;
    config.tInhibitMs = t_inhibit;
    config.tRefracMs = t_refrac;
    config.wtaReset = false;
    SnnNetwork net(config, rng);
    Matrix weights(config.numNeurons, config.numInputs);
    weights(0, 0) = 200.0f;
    weights(1, 1) = 200.0f;
    weights(0, 2) = 10.0f;
    weights(1, 3) = 10.0f;
    net.setWeights(std::move(weights));
    return net;
}

// Presents @p spikes through presentImage() without learning: neuron n
// fires fires[n] times and ends the window holding only the probe it
// integrated at probe_tick[n], the probe one tick earlier having
// fallen inside its gate. A learning present() then matches a
// learning presentImage() under the same gates.
void
expectGateExpiry(const SnnNetwork &net,
                 const std::vector<std::pair<int, uint16_t>> &spikes,
                 const std::vector<std::size_t> &fires,
                 const std::vector<int> &probe_tick)
{
    const int period = net.config().coding.periodMs;
    const auto grid = gridWithSpikes(period, spikes);
    SnnNetwork reference(net);
    PresentationTrace trace;
    reference.presentImage(grid, false, &trace);
    std::vector<std::size_t> fired(fires.size(), 0);
    for (const auto &spike : trace.outputSpikes)
        ++fired[spike.second];
    EXPECT_EQ(fired, fires);
    for (std::size_t n = 0; n < fires.size(); ++n) {
        const double expected = lifDecay(
            10.0, static_cast<double>(period - probe_tick[n]),
            net.config().tLeakMs);
        EXPECT_NEAR(reference.potentials()[n], expected, 1e-9)
            << "neuron " << n;
    }

    SnnNetwork event(net);
    SnnNetwork oracle(net);
    const auto result = event.present(grid);
    const auto ref = oracle.presentImage(grid, true);
    EXPECT_EQ(result.outputSpikeCount, ref.outputSpikeCount);
    EXPECT_EQ(event.potentials(), oracle.potentials());
    EXPECT_EQ(event.weights().data(), oracle.weights().data());
}

TEST(SnnNetwork, InhibitionOutlastingRefractoryGatesEachNeuron)
{
    // Tinhibit 30 > Trefrac 10. Neuron 0 fires at t=0: it is gated
    // until 10 by its refractory period, its peer until 30 by the
    // inhibition. Each takes its probe at its own expiry, not before.
    Rng rng(9);
    SnnNetwork net = gateProbeNetwork(30, 10, rng);
    expectGateExpiry(net,
                     {{0, 0}, {9, 2}, {10, 2}, {29, 3}, {30, 3}},
                     {1, 0}, {10, 30});
}

TEST(SnnNetwork, RefractoryOutlastingInhibitionGatesEachNeuron)
{
    // Trefrac 20 > Tinhibit 5 (the defaults' order). Neuron 0 fires at
    // t=0 and inhibits neuron 1 until 5, so the t=4 drive is ignored
    // and neuron 1 fires at 5. That inhibits neuron 0 until 10, but
    // its refractory period still runs to 20: the later expiry holds.
    // Neuron 1 is then refractory until 25.
    Rng rng(10);
    SnnNetwork net = gateProbeNetwork(5, 20, rng);
    expectGateExpiry(
        net, {{0, 0}, {4, 1}, {5, 1}, {19, 2}, {20, 2}, {24, 3}, {25, 3}},
        {1, 1}, {20, 25});
}

TEST(SnnNetwork, LeakReducesPotentialBetweenSpikes)
{
    Rng rng(5);
    SnnConfig config = tinyConfig();
    config.initialThreshold = 1000.0; // never fires.
    SnnNetwork net(config, rng);
    const auto near_grid = gridWithSpikes(100, {{0, 0}, {1, 1}});
    const auto far_grid = gridWithSpikes(100, {{0, 0}, {99, 1}});
    net.presentImage(near_grid, false);
    const double near_pot = net.potentials()[0];
    net.presentImage(far_grid, false);
    const double far_pot = net.potentials()[0];
    // Potentials are both decayed to the window end; the early pair has
    // decayed longer, so with equal total drive the end potential is
    // *smaller* for the near pair... Check the opposite: sample right
    // after the second spike via a trace instead.
    EXPECT_GT(near_pot, 0.0);
    EXPECT_GT(far_pot, 0.0);
    // At the end of the window, the far grid's second spike is fresher.
    EXPECT_GT(far_pot, near_pot);
}

TEST(SnnNetwork, TraceRecordsRasterAndPotentials)
{
    Rng rng(7);
    SnnNetwork net(tinyConfig(), rng);
    const auto grid = gridWithSpikes(100, {{3, 1}, {20, 0}, {21, 0}});
    PresentationTrace trace;
    trace.neuronLimit = 2;
    const auto result = net.presentImage(grid, false, &trace);
    EXPECT_EQ(trace.inputSpikes.size(), 3u);
    EXPECT_EQ(trace.potentials.size(), 100u);
    EXPECT_EQ(trace.potentials[0].size(), 2u);
    EXPECT_EQ(trace.outputSpikes.size(), result.outputSpikeCount);
}

TEST(SnnNetwork, ThresholdJitterSpreadsThresholds)
{
    Rng rng(8);
    SnnConfig config = tinyConfig();
    config.numNeurons = 50;
    config.thresholdJitter = 0.1;
    SnnNetwork net(config, rng);
    double lo = 1e18, hi = 0;
    for (double threshold : net.thresholds()) {
        lo = std::min(lo, threshold);
        hi = std::max(hi, threshold);
    }
    EXPECT_GT(hi - lo, 1.0);
    EXPECT_NEAR(lo, config.initialThreshold, config.initialThreshold * 0.06);
}

TEST(PresentationResult, WinnerFallsBackToMaxPotential)
{
    PresentationResult result;
    result.firstSpikeNeuron = -1;
    result.maxPotentialNeuron = 4;
    EXPECT_EQ(result.winner(), 4);
    result.firstSpikeNeuron = 2;
    EXPECT_EQ(result.winner(), 2);
    EXPECT_EQ(result.maxPotentialNeuron, 4);
}

} // namespace
} // namespace snn
} // namespace neuro
