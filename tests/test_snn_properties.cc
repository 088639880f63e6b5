// Property-style tests over the SNN presentation dynamics: invariants
// that must hold for every coding scheme and for randomized inputs.

#include <gtest/gtest.h>

#include <vector>

#include "neuro/common/rng.h"
#include "neuro/datasets/synth_digits.h"
#include "neuro/snn/network.h"

namespace neuro {
namespace snn {
namespace {

/** Output spikes per neuron in @p trace. */
std::vector<std::size_t>
firingsPerNeuron(const PresentationTrace &trace, std::size_t neurons)
{
    std::vector<std::size_t> counts(neurons, 0);
    for (const auto &spike : trace.outputSpikes)
        ++counts[spike.second];
    return counts;
}

SnnConfig
propConfig(CodingScheme scheme)
{
    SnnConfig config;
    config.numInputs = 784;
    config.numNeurons = 15;
    config.coding.scheme = scheme;
    config.coding.periodMs = 250;
    config.coding.minIntervalMs = 25;
    config.tLeakMs = 250.0;
    config.initialThreshold = 20000.0;
    config.homeostasis.enabled = false;
    return config;
}

class PresentationInvariantTest
    : public ::testing::TestWithParam<CodingScheme>
{
};

TEST_P(PresentationInvariantTest, HoldsForRandomImages)
{
    const SnnConfig config = propConfig(GetParam());
    Rng rng(11);
    SnnNetwork net(config, rng);
    const SpikeEncoder encoder(config.coding);
    datasets::SynthDigitsOptions opt;
    opt.trainSize = 8;
    opt.testSize = 1;
    const auto split = datasets::makeSynthDigits(opt);

    Rng spike_rng(13);
    PackedSpikeGrid grid;
    for (std::size_t i = 0; i < split.train.size(); ++i) {
        encoder.encodePacked(split.train[i].pixels.data(), 784, spike_rng,
                             grid);
        PresentationTrace trace;
        const auto result =
            net.presentImage(grid, /*learn=*/false, &trace);

        // 1. Every input spike is accounted for.
        ASSERT_EQ(result.inputSpikeCount, grid.totalSpikes());
        // 2. Every output spike is one traced firing.
        ASSERT_EQ(trace.outputSpikes.size(), result.outputSpikeCount);
        // 3. First spike is consistent with the output count.
        if (result.outputSpikeCount > 0) {
            ASSERT_GE(result.firstSpikeNeuron, 0);
            ASSERT_LT(result.firstSpikeNeuron, 15);
            ASSERT_GE(result.firstSpikeTimeMs, 0);
            ASSERT_LT(result.firstSpikeTimeMs,
                      config.coding.periodMs);
        } else {
            ASSERT_EQ(result.firstSpikeNeuron, -1);
        }
        // 4. Max-potential readout always resolves.
        ASSERT_GE(result.maxPotentialNeuron, 0);
        ASSERT_LT(result.maxPotentialNeuron, 15);
        // 5. Refractory bound: a neuron cannot fire more often than
        //    the window allows.
        for (std::size_t count :
             firingsPerNeuron(trace, config.numNeurons)) {
            ASSERT_LE(count,
                      config.coding.periodMs / config.tRefracMs + 1);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Schemes, PresentationInvariantTest,
                         ::testing::Values(CodingScheme::RatePoisson,
                                           CodingScheme::RateGaussian,
                                           CodingScheme::RateRegular,
                                           CodingScheme::RateBernoulli,
                                           CodingScheme::TimeToFirstSpike,
                                           CodingScheme::RankOrder));

TEST(PresentationInvariants, LearningOnlyChangesFiringNeuronsWeights)
{
    SnnConfig config = propConfig(CodingScheme::RatePoisson);
    Rng rng(17);
    SnnNetwork net(config, rng);
    const Matrix before = net.weights();
    const SpikeEncoder encoder(config.coding);
    datasets::SynthDigitsOptions opt;
    opt.trainSize = 1;
    opt.testSize = 1;
    const auto split = datasets::makeSynthDigits(opt);
    Rng spike_rng(19);
    PackedSpikeGrid grid;
    encoder.encodePacked(split.train[0].pixels.data(), 784, spike_rng, grid);
    PresentationTrace trace;
    net.presentImage(grid, /*learn=*/true, &trace);
    const std::vector<std::size_t> firings =
        firingsPerNeuron(trace, config.numNeurons);

    for (std::size_t n = 0; n < config.numNeurons; ++n) {
        const bool fired = firings[n] > 0;
        bool changed = false;
        for (std::size_t p = 0; p < config.numInputs; ++p) {
            if (net.weights()(n, p) != before(n, p)) {
                changed = true;
                break;
            }
        }
        ASSERT_EQ(changed, fired)
            << "neuron " << n << (fired ? " fired but did not learn"
                                        : " learned without firing");
    }
}

TEST(PresentationInvariants, NoLearningLeavesWeightsUntouched)
{
    SnnConfig config = propConfig(CodingScheme::RatePoisson);
    Rng rng(23);
    SnnNetwork net(config, rng);
    const std::vector<float> before = net.weights().data();
    const SpikeEncoder encoder(config.coding);
    datasets::SynthDigitsOptions opt;
    opt.trainSize = 3;
    opt.testSize = 1;
    const auto split = datasets::makeSynthDigits(opt);
    Rng spike_rng(29);
    PackedSpikeGrid grid;
    for (std::size_t i = 0; i < split.train.size(); ++i) {
        encoder.encodePacked(split.train[i].pixels.data(), 784, spike_rng,
                             grid);
        net.presentImage(grid, /*learn=*/false);
    }
    EXPECT_EQ(net.weights().data(), before);
}

TEST(PresentationInvariants, WeightsStayInStdpBounds)
{
    SnnConfig config = propConfig(CodingScheme::RatePoisson);
    config.stdp.ltpIncrement = 40.0f;
    config.stdp.ltdDecrement = 40.0f;
    Rng rng(31);
    SnnNetwork net(config, rng);
    const SpikeEncoder encoder(config.coding);
    datasets::SynthDigitsOptions opt;
    opt.trainSize = 15;
    opt.testSize = 1;
    const auto split = datasets::makeSynthDigits(opt);
    Rng spike_rng(37);
    PackedSpikeGrid grid;
    for (std::size_t i = 0; i < split.train.size(); ++i) {
        encoder.encodePacked(split.train[i].pixels.data(), 784, spike_rng,
                             grid);
        net.presentImage(grid, /*learn=*/true);
    }
    for (float w : net.weights().data()) {
        ASSERT_GE(w, config.stdp.wMin);
        ASSERT_LE(w, config.stdp.wMax);
    }
}

} // namespace
} // namespace snn
} // namespace neuro
