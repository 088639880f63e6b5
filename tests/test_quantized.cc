// Tests for the 8-bit fixed-point MLP inference path (Section 4.2.1).

#include <gtest/gtest.h>

#include "neuro/common/parallel.h"
#include "neuro/common/rng.h"
#include "neuro/datasets/synth_digits.h"
#include "neuro/kernels/kernels.h"
#include "neuro/mlp/backprop.h"
#include "neuro/mlp/quantized.h"

namespace neuro {
namespace mlp {
namespace {

TEST(QuantizedMlp, PreservesGeometry)
{
    MlpConfig config;
    config.layerSizes = {16, 8, 4};
    Rng rng(1);
    const Mlp net(config, rng);
    const QuantizedMlp quant(net);
    EXPECT_EQ(quant.numLayers(), 2u);
    EXPECT_EQ(quant.inputSize(), 16u);
    EXPECT_EQ(quant.outputSize(), 4u);
}

TEST(QuantizedMlp, FracBitsFitLargestWeight)
{
    MlpConfig config;
    config.layerSizes = {4, 3, 2};
    Rng rng(2);
    Mlp net(config, rng);
    net.weights(0)(0, 0) = 3.7f; // force a wide layer-0 range.
    const QuantizedMlp quant(net);
    // 3.7 * 2^frac <= 127 -> frac <= 5.
    EXPECT_LE(quant.fracBits(0), 5);
    EXPECT_GE(quant.fracBits(0), 0);
}

TEST(QuantizedMlp, MatchesFloatOnUntrainedNet)
{
    MlpConfig config;
    config.layerSizes = {32, 16, 10};
    Rng rng(3);
    const Mlp net(config, rng);
    const QuantizedMlp quant(net);

    Rng data_rng(4);
    int agree = 0;
    const int trials = 100;
    for (int t = 0; t < trials; ++t) {
        std::vector<uint8_t> pixels(32);
        std::vector<float> norm(32);
        for (std::size_t i = 0; i < 32; ++i) {
            pixels[i] = static_cast<uint8_t>(data_rng.uniformInt(256));
            norm[i] = static_cast<float>(pixels[i]) / 255.0f;
        }
        if (net.predict(norm.data()) == quant.predict(pixels.data()))
            ++agree;
    }
    // Random nets have near-tied outputs, so allow a few flips.
    EXPECT_GT(agree, 80);
}

TEST(QuantizedMlp, SmallAccuracyLossOnTrainedNet)
{
    // The paper's result: 8-bit fixed point costs ~1% accuracy
    // (96.65% vs 97.65%).
    datasets::SynthDigitsOptions opt;
    opt.trainSize = 800;
    opt.testSize = 250;
    const datasets::Split split = datasets::makeSynthDigits(opt);
    MlpConfig config;
    config.layerSizes = {784, 30, 10};
    TrainConfig train;
    train.epochs = 8;
    Rng rng(7);
    Mlp net(config, rng);
    mlp::train(net, split.train, train);
    const double float_acc = evaluate(net, split.test);
    const QuantizedMlp quant(net);
    const double fixed_acc = quant.evaluate(split.test);
    EXPECT_GT(float_acc, 0.85);
    EXPECT_GT(fixed_acc, float_acc - 0.05)
        << "8-bit quantization lost more than 5%";
}

TEST(QuantizedMlp, EvaluateEqualsSerialPredictAtAnyThreadCountAndIsa)
{
    // evaluate() shards the test set; its count must equal one serial
    // predict() per sample, whatever the thread count or kernel table.
    // 203 samples leave a ragged last shard.
    datasets::SynthDigitsOptions opt;
    opt.trainSize = 300;
    opt.testSize = 203;
    const datasets::Split split = datasets::makeSynthDigits(opt);
    MlpConfig config;
    config.layerSizes = {784, 24, 10};
    TrainConfig train;
    train.epochs = 2;
    Rng rng(11);
    Mlp net(config, rng);
    mlp::train(net, split.train, train);
    const QuantizedMlp quant(net);

    std::size_t hits = 0;
    for (std::size_t i = 0; i < split.test.size(); ++i) {
        if (quant.predict(split.test[i].pixels.data()) ==
            split.test[i].label)
            ++hits;
    }
    const double expect = static_cast<double>(hits) /
        static_cast<double>(split.test.size());

    const std::size_t saved = parallelThreadCount();
    for (kernels::SimdMode mode :
         {kernels::SimdMode::Off, kernels::SimdMode::Avx2,
          kernels::SimdMode::Avx512}) {
        // Forcing a level the machine lacks falls back to a narrower
        // one, which is simply covered twice.
        kernels::setSimdMode(mode);
        for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
            setParallelThreadCount(threads);
            EXPECT_EQ(expect, quant.evaluate(split.test))
                << threads << " threads at "
                << kernels::isaName(kernels::activeIsa());
        }
    }
    setParallelThreadCount(saved);
    kernels::setSimdMode(kernels::SimdMode::Auto);
}

} // namespace
} // namespace mlp
} // namespace neuro
