// Tests for the per-neuron selectivity analysis.

#include <gtest/gtest.h>

#include "neuro/common/rng.h"
#include "neuro/snn/analysis.h"

namespace neuro {
namespace snn {
namespace {

TEST(NeuronSelectivity, DetectsPerfectSpecialists)
{
    // Two neurons keyed to disjoint pixels; two classes lighting
    // exactly those pixels.
    SnnConfig config;
    config.numInputs = 4;
    config.numNeurons = 2;
    Rng rng(2);
    SnnNetwork net(config, rng);
    net.weights().fill(0.0f);
    net.weights()(0, 0) = 100.0f;
    net.weights()(0, 1) = 100.0f;
    net.weights()(1, 2) = 100.0f;
    net.weights()(1, 3) = 100.0f;

    datasets::Dataset data("toy", 4, 1, 2);
    for (int i = 0; i < 20; ++i) {
        datasets::Sample s;
        s.label = i % 2;
        s.pixels = s.label == 0
            ? std::vector<uint8_t>{255, 255, 0, 0}
            : std::vector<uint8_t>{0, 0, 255, 255};
        data.add(std::move(s));
    }

    const auto report = neuronSelectivity(net, data);
    EXPECT_EQ(report.preferredClass[0], 0);
    EXPECT_EQ(report.preferredClass[1], 1);
    EXPECT_GT(report.selectivity[0], 0.95);
    EXPECT_GT(report.selectivity[1], 0.95);
}

TEST(NeuronSelectivity, UntunedNeuronScoresLow)
{
    SnnConfig config;
    config.numInputs = 4;
    config.numNeurons = 1;
    Rng rng(3);
    SnnNetwork net(config, rng);
    net.weights().fill(50.0f); // responds equally to everything.

    datasets::Dataset data("toy", 4, 1, 2);
    for (int i = 0; i < 20; ++i) {
        datasets::Sample s;
        s.label = i % 2;
        s.pixels = s.label == 0
            ? std::vector<uint8_t>{200, 200, 0, 0}
            : std::vector<uint8_t>{0, 0, 200, 200};
        data.add(std::move(s));
    }
    const auto report = neuronSelectivity(net, data);
    EXPECT_LT(report.selectivity[0], 0.1);
}

} // namespace
} // namespace snn
} // namespace neuro
