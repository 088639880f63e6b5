// Tests for the MLP forward path and back-propagation trainer.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <thread>
#include <vector>

#include "neuro/common/parallel.h"
#include "neuro/common/rng.h"
#include "neuro/datasets/synth_digits.h"
#include "neuro/kernels/kernels.h"
#include "neuro/mlp/backprop.h"
#include "neuro/mlp/mlp.h"
#include "neuro/telemetry/metrics.h"

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

/** Every layer's weights, concatenated, after two epochs of
 *  per-sample SGD on @p data. */
std::vector<float>
trainedWeights(const std::vector<std::size_t> &layers,
               const datasets::Dataset &data)
{
    MlpConfig config;
    config.layerSizes = layers;
    Rng rng(13);
    Mlp net(config, rng);
    TrainConfig train;
    train.epochs = 2;
    mlp::train(net, data, train);
    std::vector<float> flat;
    for (std::size_t l = 0; l < net.numLayers(); ++l) {
        const auto &w = net.weights(l).data();
        flat.insert(flat.end(), w.begin(), w.end());
    }
    return flat;
}

double
gaugeValue(const char *name)
{
    return telemetry::MetricRegistry::instance().gauge(name)->value();
}

/** Restores the pool width and the kernel table on scope exit. */
struct PoolAndSimdRestore
{
    std::size_t threads = parallelThreadCount();
    ~PoolAndSimdRestore()
    {
        setParallelThreadCount(threads);
        kernels::setSimdMode(kernels::SimdMode::Auto);
    }
};

datasets::Split
smallDigits(std::size_t train)
{
    datasets::SynthDigitsOptions opt;
    opt.trainSize = train;
    opt.testSize = 10;
    return datasets::makeSynthDigits(opt);
}

TEST(Backprop, RowSplitTrainingIsBitIdenticalAtAnyThreadCount)
{
    // Two epochs of per-sample SGD must leave the same weights, bit
    // for bit, at every kernel table and thread count. Layer 0 of 100
    // and 103 rows forms a team of two (103 leaves a ragged last
    // slice); 21 rows stays below the team threshold and leaves a
    // ragged tail of addOuterBias's 16-column tiles; the 150-40 net
    // forms a team of three under two hidden layers. maxTeam is the
    // team train() plans at enough threads.
    struct Case
    {
        std::vector<std::size_t> layers;
        std::size_t maxTeam;
    };
    const Case cases[] = {{{784, 100, 10}, 2},
                          {{784, 103, 10}, 2},
                          {{784, 21, 10}, 1},
                          {{784, 150, 40, 10}, 3}};
    const datasets::Split split = smallDigits(64);
    PoolAndSimdRestore restore;
    for (const Case &c : cases) {
        kernels::setSimdMode(kernels::SimdMode::Off);
        setParallelThreadCount(1);
        const std::vector<float> expect =
            trainedWeights(c.layers, split.train);
        for (kernels::SimdMode mode :
             {kernels::SimdMode::Off, kernels::SimdMode::Avx2,
              kernels::SimdMode::Avx512}) {
            // Forcing a level the machine lacks falls back to a
            // narrower one, which is simply covered twice.
            kernels::setSimdMode(mode);
            for (std::size_t threads : {1, 2, 3, 4, 8}) {
                setParallelThreadCount(threads);
                const std::vector<float> got =
                    trainedWeights(c.layers, split.train);
                ASSERT_EQ(expect.size(), got.size());
                EXPECT_EQ(0, std::memcmp(expect.data(), got.data(),
                                         got.size() * sizeof(float)))
                    << "hidden " << c.layers[1] << ", " << threads
                    << " threads at "
                    << kernels::isaName(kernels::activeIsa());
                EXPECT_EQ(gaugeValue("mlp.train.team_size"),
                          static_cast<double>(
                              std::min(threads, c.maxTeam)));
            }
        }
    }
}

TEST(Backprop, EpochErrorMatchesForwardAtZeroRate)
{
    // At eta = 0 the weights stay put, so the epoch error, taken from
    // the training pass's row-split forward, is forward()'s squared
    // error over the set (summed in another order, hence the bound).
    const datasets::Split split = smallDigits(60);
    const datasets::Dataset &data = split.train;
    MlpConfig config;
    config.layerSizes = {784, 100, 10};
    Rng rng(14);
    Mlp net(config, rng);
    double expect = 0.0;
    std::vector<float> input(net.inputSize()), out(net.outputSize());
    for (std::size_t i = 0; i < data.size(); ++i) {
        data.normalized(i, input.data());
        net.forward(input.data(), out.data());
        for (std::size_t j = 0; j < out.size(); ++j) {
            const float target = static_cast<int>(j) == data[i].label;
            const float e = target - out[j];
            expect += static_cast<double>(e) * e;
        }
    }
    expect /= static_cast<double>(data.size() * net.outputSize());

    TrainConfig train;
    train.epochs = 2;
    train.learningRate = 0.0f;
    PoolAndSimdRestore restore;
    for (std::size_t threads : {1, 2}) {
        setParallelThreadCount(threads);
        std::vector<double> errors;
        mlp::train(net, data, train, [&](const EpochReport &r) {
            errors.push_back(r.trainError);
        });
        ASSERT_EQ(errors.size(), 2u);
        for (double e : errors)
            EXPECT_NEAR(e, expect, 1e-12) << threads << " threads";
    }
}

TEST(Backprop, TrainingInsideAPoolTaskMatchesSerial)
{
    // Inside a pool task the team has one member; two trainings of
    // separate nets run side by side on the caller and a worker.
    const datasets::Split split = smallDigits(120);
    const std::vector<std::size_t> layers = {784, 100, 10};
    PoolAndSimdRestore restore;
    setParallelThreadCount(1);
    const std::vector<float> expect = trainedWeights(layers, split.train);
    setParallelThreadCount(4);
    std::vector<float> got[2];
    parallelInvoke({
        [&] { got[0] = trainedWeights(layers, split.train); },
        [&] { got[1] = trainedWeights(layers, split.train); },
    });
    for (const std::vector<float> &g : got) {
        ASSERT_EQ(expect.size(), g.size());
        EXPECT_EQ(0, std::memcmp(expect.data(), g.data(),
                                 g.size() * sizeof(float)));
    }
    EXPECT_EQ(gaugeValue("mlp.train.team_size"), 1.0);
}

TEST(Backprop, TrainingFinishesWhileThePoolIsBusy)
{
    // Another thread's job holds the pool when train() starts; the
    // training waits its turn, forms its team and ends with the
    // serial weights.
    const datasets::Split split = smallDigits(120);
    const std::vector<std::size_t> layers = {784, 100, 10};
    PoolAndSimdRestore restore;
    setParallelThreadCount(1);
    const std::vector<float> expect = trainedWeights(layers, split.train);
    setParallelThreadCount(2);
    std::atomic<bool> busy{false};
    std::thread other([&] {
        parallelInvoke({
            [] {},
            [&] {
                busy.store(true, std::memory_order_release);
                std::this_thread::sleep_for(std::chrono::milliseconds(50));
            },
        });
    });
    while (!busy.load(std::memory_order_acquire))
        std::this_thread::yield();
    const std::vector<float> got = trainedWeights(layers, split.train);
    other.join();
    ASSERT_EQ(expect.size(), got.size());
    EXPECT_EQ(0, std::memcmp(expect.data(), got.data(),
                             got.size() * sizeof(float)));
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
