// Tests for the SNN+BP hybrid (spiking forward path, supervised
// delta-rule learning).

#include <gtest/gtest.h>

#include "neuro/common/rng.h"
#include "neuro/datasets/synth_digits.h"
#include "neuro/snn/snn_bp.h"

namespace neuro {
namespace snn {
namespace {

SnnBpConfig
smallConfig()
{
    SnnBpConfig config;
    config.numInputs = 784;
    config.numNeurons = 40;
    config.numClasses = 10;
    config.coding.periodMs = 200;
    config.coding.minIntervalMs = 20;
    config.tLeakMs = 200.0;
    config.epochs = 4;
    config.learningRate = 0.2f;
    return config;
}

TEST(SnnBp, NeuronClassAssignmentIsRoundRobin)
{
    Rng rng(1);
    const SnnBp net(smallConfig(), rng);
    EXPECT_EQ(net.neuronClass(0), 0);
    EXPECT_EQ(net.neuronClass(9), 9);
    EXPECT_EQ(net.neuronClass(10), 0);
    EXPECT_EQ(net.neuronClass(25), 5);
}

TEST(SnnBp, SpikeFeaturesReflectLuminance)
{
    Rng rng(2);
    SnnBpConfig config = smallConfig();
    config.numInputs = 3;
    config.numNeurons = 10;
    const SnnBp net(config, rng);
    std::vector<uint8_t> pixels = {0, 120, 255};
    std::vector<float> mean(3, 0.0f);
    Rng spike_rng(3);
    for (int t = 0; t < 40; ++t) {
        std::vector<float> f;
        net.spikeFeatures(pixels.data(), spike_rng, f);
        for (int i = 0; i < 3; ++i)
            mean[static_cast<std::size_t>(i)] +=
                f[static_cast<std::size_t>(i)];
    }
    EXPECT_FLOAT_EQ(mean[0], 0.0f);
    EXPECT_GT(mean[2], mean[1]);
    EXPECT_GT(mean[1], 0.0f);
}

TEST(SnnBp, LearnsDigitsFarAboveChanceAndAboveStdpRange)
{
    datasets::SynthDigitsOptions opt;
    opt.trainSize = 800;
    opt.testSize = 200;
    const datasets::Split split = datasets::makeSynthDigits(opt);
    Rng rng(4);
    SnnBp net(smallConfig(), rng);
    net.train(split.train);
    const double acc = net.evaluate(split.test, 5);
    // The paper's point: BP on the spiking forward path recovers most
    // of the accuracy gap.
    EXPECT_GT(acc, 0.8);

    // Pin the trained network bit for bit: replay evaluate()'s
    // prediction stream and FNV-1a hash every predicted class. Any
    // change to the forward product, the update or the weight draws
    // moves the hash even when the accuracy holds. Like the datasets'
    // golden hashes, the values assume GCC 12.2's float results
    // (libm exp included); the kernels make them ISA-independent.
    Rng eval_rng(5);
    std::size_t correct = 0;
    uint64_t hash = 0xcbf29ce484222325ULL;
    for (std::size_t i = 0; i < split.test.size(); ++i) {
        const int predicted =
            net.predict(split.test[i].pixels.data(), eval_rng);
        correct += predicted == split.test[i].label ? 1 : 0;
        hash ^= static_cast<uint8_t>(predicted);
        hash *= 0x100000001b3ULL;
    }
    EXPECT_EQ(acc, static_cast<double>(correct) /
                       static_cast<double>(split.test.size()));
    EXPECT_EQ(correct, 192u);
    EXPECT_EQ(hash, 0x02b9e4af64ef3ab6ULL);
}

} // namespace
} // namespace snn
} // namespace neuro
