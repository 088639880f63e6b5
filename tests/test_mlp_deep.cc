// Tests for multi-hidden-layer MLP support: the library's MlpConfig
// accepts arbitrary layer stacks even though the paper's design uses
// one hidden layer (its Section 2.2 notes single-layer SNNs compete
// with multi-layer networks).

#include <gtest/gtest.h>

#include "neuro/common/rng.h"
#include "neuro/common/serialize.h"
#include "neuro/datasets/synth_digits.h"
#include "neuro/mlp/backprop.h"
#include "neuro/mlp/quantized.h"

namespace neuro {
namespace mlp {
namespace {

TEST(DeepMlp, ForwardThroughThreeHiddenLayers)
{
    MlpConfig config;
    config.layerSizes = {8, 6, 5, 4, 3};
    Rng rng(1);
    const Mlp net(config, rng);
    EXPECT_EQ(net.numLayers(), 4u);
    EXPECT_EQ(net.weightCount(), 9u * 6 + 7 * 5 + 6 * 4 + 5 * 3);
    std::vector<float> x(8, 0.5f), y(3);
    net.forward(x.data(), y.data());
    for (float v : y) {
        EXPECT_GT(v, 0.0f);
        EXPECT_LT(v, 1.0f);
    }
}

TEST(DeepMlp, TrainsOnDigits)
{
    datasets::SynthDigitsOptions opt;
    opt.trainSize = 500;
    opt.testSize = 120;
    const datasets::Split split = datasets::makeSynthDigits(opt);
    MlpConfig config;
    config.layerSizes = {784, 24, 16, 10};
    TrainConfig train;
    train.epochs = 8;
    const double acc =
        trainAndEvaluate(config, train, split.train, split.test, 3);
    EXPECT_GT(acc, 0.6) << "two-hidden-layer MLP failed to train";
}

TEST(DeepMlp, QuantizesAndSerializes)
{
    MlpConfig config;
    config.layerSizes = {16, 12, 8, 4};
    Rng rng(5);
    const Mlp net(config, rng);

    // Quantized path handles any depth.
    const QuantizedMlp quant(net);
    EXPECT_EQ(quant.numLayers(), 3u);
    std::vector<uint8_t> pixels(16, 128);
    std::vector<uint8_t> out(4);
    quant.forward(pixels.data(), out.data());

    // Serialization round-trips the full stack.
    Archive archive;
    net.serialize(archive, "deep");
    const auto restored = Mlp::deserialize(archive, "deep");
    ASSERT_TRUE(restored.has_value());
    EXPECT_EQ(restored->numLayers(), 3u);
    std::vector<float> x(16, 0.3f), ya(4), yb(4);
    net.forward(x.data(), ya.data());
    restored->forward(x.data(), yb.data());
    for (int i = 0; i < 4; ++i)
        EXPECT_FLOAT_EQ(ya[static_cast<std::size_t>(i)],
                        yb[static_cast<std::size_t>(i)]);
}

TEST(DeepMlp, BackpropGradientSanityOnTinyNet)
{
    // One sample, one update: the output must move toward the target.
    MlpConfig config;
    config.layerSizes = {2, 3, 2, 1};
    Rng rng(7);
    Mlp net(config, rng);
    datasets::Dataset data("toy", 2, 1, 1);
    datasets::Sample s;
    s.pixels = {255, 0};
    s.label = 0; // target output 1 for class 0.
    data.add(s);

    std::vector<float> x = {1.0f, 0.0f};
    std::vector<float> before(1), after(1);
    net.forward(x.data(), before.data());
    TrainConfig train;
    train.epochs = 1;
    train.learningRate = 0.5f;
    mlp::train(net, data, train);
    net.forward(x.data(), after.data());
    EXPECT_GT(after[0], before[0])
        << "output did not move toward the target";
}

} // namespace
} // namespace mlp
} // namespace neuro
