// Tests for the MLP forward path and back-propagation trainer.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "neuro/common/parallel.h"
#include "neuro/common/rng.h"
#include "neuro/datasets/synth_digits.h"
#include "neuro/kernels/kernels.h"
#include "neuro/mlp/backprop.h"
#include "neuro/mlp/mlp.h"

namespace neuro {
namespace mlp {
namespace {

TEST(Mlp, ForwardMatchesManualComputation)
{
    MlpConfig config;
    config.layerSizes = {2, 2, 1};
    Rng rng(1);
    Mlp net(config, rng);
    // Overwrite weights with known values. Layer 0: 2x3 (bias last).
    Matrix &w0 = net.weights(0);
    w0(0, 0) = 1.0f;
    w0(0, 1) = -1.0f;
    w0(0, 2) = 0.0f;
    w0(1, 0) = 0.5f;
    w0(1, 1) = 0.5f;
    w0(1, 2) = 0.25f;
    Matrix &w1 = net.weights(1);
    w1(0, 0) = 2.0f;
    w1(0, 1) = -2.0f;
    w1(0, 2) = 0.5f;

    const float x[2] = {1.0f, 0.5f};
    float out[1];
    net.forward(x, out);

    auto sig = [](float v) { return 1.0f / (1.0f + std::exp(-v)); };
    const float h0 = sig(1.0f * 1 + (-1.0f) * 0.5f + 0.0f);
    const float h1 = sig(0.5f * 1 + 0.5f * 0.5f + 0.25f);
    const float expected = sig(2.0f * h0 - 2.0f * h1 + 0.5f);
    EXPECT_NEAR(out[0], expected, 1e-6f);
}

TEST(Mlp, ForwardTraceMatchesForward)
{
    MlpConfig config;
    config.layerSizes = {5, 4, 3};
    Rng rng(2);
    Mlp net(config, rng);
    std::vector<float> x = {0.1f, 0.9f, 0.3f, 0.0f, 1.0f};
    std::vector<float> out(3);
    net.forward(x.data(), out.data());
    std::vector<std::vector<float>> acts;
    net.forwardTrace(x.data(), acts);
    ASSERT_EQ(acts.size(), 3u);
    ASSERT_EQ(acts[2].size(), 3u);
    for (int i = 0; i < 3; ++i)
        EXPECT_FLOAT_EQ(acts[2][static_cast<std::size_t>(i)],
                        out[static_cast<std::size_t>(i)]);
}

TEST(Mlp, WeightCountMatchesTopology)
{
    MlpConfig config;
    config.layerSizes = {784, 100, 10};
    Rng rng(3);
    const Mlp net(config, rng);
    EXPECT_EQ(net.weightCount(), 785u * 100 + 101 * 10);
}

TEST(Backprop, ReducesTrainingError)
{
    // Tiny 2-class problem: bright-left vs bright-right 4x1 images.
    datasets::Dataset data("toy", 4, 1, 2);
    Rng gen(5);
    for (int i = 0; i < 120; ++i) {
        datasets::Sample s;
        const bool left = (i % 2) == 0;
        s.label = left ? 0 : 1;
        s.pixels = {static_cast<uint8_t>(left ? 200 + gen.uniformInt(55)
                                              : gen.uniformInt(40)),
                    static_cast<uint8_t>(gen.uniformInt(60)),
                    static_cast<uint8_t>(gen.uniformInt(60)),
                    static_cast<uint8_t>(left ? gen.uniformInt(40)
                                              : 200 + gen.uniformInt(55))};
        data.add(std::move(s));
    }

    MlpConfig config;
    config.layerSizes = {4, 6, 2};
    Rng rng(6);
    Mlp net(config, rng);
    std::vector<double> errors;
    TrainConfig train;
    train.epochs = 20;
    train.learningRate = 0.5f;
    mlp::train(net, data, train, [&](const EpochReport &r) {
        errors.push_back(r.trainError);
    });
    ASSERT_EQ(errors.size(), 20u);
    EXPECT_LT(errors.back(), errors.front() * 0.5);
    EXPECT_GT(evaluate(net, data), 0.95);
}

TEST(Backprop, LearnsSmallDigitTask)
{
    datasets::SynthDigitsOptions opt;
    opt.trainSize = 600;
    opt.testSize = 150;
    const datasets::Split split = datasets::makeSynthDigits(opt);
    MlpConfig config;
    config.layerSizes = {784, 30, 10};
    TrainConfig train;
    train.epochs = 8;
    const double acc =
        trainAndEvaluate(config, train, split.train, split.test, 9);
    EXPECT_GT(acc, 0.8) << "MLP failed to learn digits";
}

TEST(Mlp, ClassifyPixelsEqualsPredictPerImage)
{
    // Two full strips plus a ragged scalar tail.
    datasets::SynthDigitsOptions opt;
    opt.trainSize = 10;
    opt.testSize = 2 * kernels::kStripWidth + 5;
    const datasets::Split split = datasets::makeSynthDigits(opt);
    MlpConfig config;
    config.layerSizes = {784, 21, 10};
    Rng rng(12);
    const Mlp net(config, rng);

    const datasets::Dataset &test = split.test;
    std::vector<const uint8_t *> pixels;
    for (std::size_t i = 0; i < test.size(); ++i)
        pixels.push_back(test[i].pixels.data());
    std::vector<int> classes(test.size(), -1);
    ClassifyScratch scratch;
    classifyPixels(net, pixels.data(), pixels.size(), classes.data(),
                   scratch);
    std::vector<float> input(net.inputSize());
    for (std::size_t i = 0; i < test.size(); ++i) {
        test.normalized(i, input.data());
        EXPECT_EQ(net.predict(input.data()), classes[i]) << "image " << i;
    }
}

TEST(Backprop, PerSampleTrainingIsBitIdenticalAcrossIsas)
{
    // One epoch of per-sample SGD must leave the same weights, bit for
    // bit, at every kernel table and thread count. 784 inputs fill
    // whole 16-column tiles of addOuterBias; 21 hidden units leave a
    // ragged tail.
    datasets::SynthDigitsOptions opt;
    opt.trainSize = 200;
    opt.testSize = 10;
    const datasets::Split split = datasets::makeSynthDigits(opt);
    MlpConfig config;
    config.layerSizes = {784, 21, 10};
    TrainConfig train;
    train.epochs = 1;
    auto trainedWeights = [&] {
        Rng rng(13);
        Mlp net(config, rng);
        mlp::train(net, split.train, train);
        std::vector<float> flat;
        for (std::size_t l = 0; l < net.numLayers(); ++l) {
            const auto &w = net.weights(l).data();
            flat.insert(flat.end(), w.begin(), w.end());
        }
        return flat;
    };

    const std::size_t saved = parallelThreadCount();
    kernels::setSimdMode(kernels::SimdMode::Off);
    setParallelThreadCount(1);
    const std::vector<float> expect = trainedWeights();
    for (kernels::SimdMode mode :
         {kernels::SimdMode::Off, kernels::SimdMode::Avx2,
          kernels::SimdMode::Avx512}) {
        // Forcing a level the machine lacks falls back to a narrower
        // one, which is simply covered twice.
        kernels::setSimdMode(mode);
        for (std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
            setParallelThreadCount(threads);
            const std::vector<float> got = trainedWeights();
            ASSERT_EQ(expect.size(), got.size());
            EXPECT_EQ(0, std::memcmp(expect.data(), got.data(),
                                     got.size() * sizeof(float)))
                << threads << " threads at "
                << kernels::isaName(kernels::activeIsa());
        }
    }
    setParallelThreadCount(saved);
    kernels::setSimdMode(kernels::SimdMode::Auto);
}

class HiddenSizeTest : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(HiddenSizeTest, AnyTopologyTrainsAboveChance)
{
    datasets::SynthDigitsOptions opt;
    opt.trainSize = 300;
    opt.testSize = 100;
    const datasets::Split split = datasets::makeSynthDigits(opt);
    MlpConfig config;
    config.layerSizes = {784, GetParam(), 10};
    TrainConfig train;
    train.epochs = 5;
    const double acc =
        trainAndEvaluate(config, train, split.train, split.test, 10);
    EXPECT_GT(acc, 0.4) << "hidden=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Sizes, HiddenSizeTest,
                         ::testing::Values(5u, 10u, 25u, 50u));

} // namespace
} // namespace mlp
} // namespace neuro
