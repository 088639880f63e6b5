// Tests for the 8-bit fixed-point MLP inference path (Section 4.2.1).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "neuro/common/parallel.h"
#include "neuro/common/rng.h"
#include "neuro/datasets/synth_digits.h"
#include "neuro/kernels/kernels.h"
#include "neuro/mlp/backprop.h"
#include "neuro/mlp/quantized.h"

namespace neuro {
namespace mlp {
namespace {

/** A 784-24-10 MLP trained briefly on synthetic digits, plus a test
 *  set of @p testSize images. */
struct TrainedQ8
{
    datasets::Split split;
    Mlp net;
};

TrainedQ8
trainSmallMlp(std::size_t testSize)
{
    datasets::SynthDigitsOptions opt;
    opt.trainSize = 300;
    opt.testSize = testSize;
    datasets::Split split = datasets::makeSynthDigits(opt);
    MlpConfig config;
    config.layerSizes = {784, 24, 10};
    TrainConfig train;
    train.epochs = 2;
    Rng rng(11);
    Mlp net(config, rng);
    mlp::train(net, split.train, train);
    return {std::move(split), std::move(net)};
}

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
    // evaluate() shards the test set and classifies each shard in
    // groups of kernels::kQ8Batch; its count must equal one serial
    // predict() per sample, whatever the thread count or kernel table.
    // 203 samples leave a ragged last shard and group; 2,000 is the
    // benchmark's test-set size.
    for (const std::size_t testSize : {std::size_t{203}, std::size_t{2000}}) {
        const TrainedQ8 t = trainSmallMlp(testSize);
        const datasets::Split &split = t.split;
        const QuantizedMlp quant(t.net);

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
            // Forcing a level the machine lacks falls back to a
            // narrower one, which is simply covered twice.
            kernels::setSimdMode(mode);
            for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
                setParallelThreadCount(threads);
                EXPECT_EQ(expect, quant.evaluate(split.test))
                    << testSize << " images, " << threads << " threads at "
                    << kernels::isaName(kernels::activeIsa());
            }
        }
        setParallelThreadCount(saved);
        kernels::setSimdMode(kernels::SimdMode::Auto);
    }
}

/** @return the float with bit pattern @p bits. */
float
floatOf(uint32_t bits)
{
    float f;
    std::memcpy(&f, &bits, sizeof f);
    return f;
}

TEST(QuantizedMlp, RoundHalfAwayMatchesLround)
{
    // Ties (+-k.5) and their float neighbours, zero of both signs,
    // subnormals, the 2^23 boundary where the integer method hands
    // over to std::lround, and the float extremes.
    std::vector<float> values = {
        0.0f,
        -0.0f,
        std::numeric_limits<float>::denorm_min(),
        -std::numeric_limits<float>::denorm_min(),
        floatOf(0x007fffffu), // largest subnormal.
        -floatOf(0x007fffffu),
        std::numeric_limits<float>::min(),
        -std::numeric_limits<float>::min(),
        std::numeric_limits<float>::epsilon(),
        0x1p22f + 0.5f, // largest-magnitude float with a .5 part.
        -(0x1p22f + 0.5f),
        0x1p23f - 1.0f,
        0x1p23f - 0.5f,
        0x1p23f,
        0x1p23f + 1.0f,
        -(0x1p23f - 1.0f),
        -(0x1p23f - 0.5f),
        -0x1p23f,
        -(0x1p23f + 1.0f),
        0x1p24f,
        -0x1p24f,
        std::numeric_limits<float>::max(),
        std::numeric_limits<float>::lowest(),
    };
    for (int k = 0; k <= 300; ++k) {
        for (const float sign : {1.0f, -1.0f}) {
            const float tie = sign * (static_cast<float>(k) + 0.5f);
            values.push_back(tie);
            values.push_back(std::nextafter(tie, 0.0f));
            values.push_back(
                std::nextafter(tie, sign * std::numeric_limits<float>::max()));
            values.push_back(sign * static_cast<float>(k));
        }
    }
    for (const float v : values)
        EXPECT_EQ(std::lround(v), roundHalfAway(v)) << "at " << v;
    EXPECT_EQ(roundHalfAway(0.5f), 1);
    EXPECT_EQ(roundHalfAway(-0.5f), -1);
    EXPECT_EQ(roundHalfAway(2.5f), 3);
    EXPECT_EQ(roundHalfAway(std::nextafter(0.5f, 0.0f)), 0);
}

/** Batched classify of every count 1..9 from every start in [0, 4)
 *  equals per-sample predict(), from several pool workers at once. */
void
expectClassifyMatchesPredict(const QuantizedMlp &quant,
                             const datasets::Dataset &data)
{
    std::vector<int> expect(data.size());
    std::vector<const uint8_t *> pixels(data.size());
    for (std::size_t i = 0; i < data.size(); ++i) {
        expect[i] = quant.predict(data[i].pixels.data());
        pixels[i] = data[i].pixels.data();
    }
    std::vector<uint8_t> ok(4 * 9, 0);
    parallelForRange(0, ok.size(), 1, [&](std::size_t k0, std::size_t k1) {
        QuantizedMlp::Scratch scratch;
        for (std::size_t k = k0; k < k1; ++k) {
            const std::size_t start = k / 9, count = k % 9 + 1;
            std::vector<int> classes(count, -2);
            quant.classify(pixels.data() + start, count, classes.data(),
                           scratch);
            ok[k] = std::equal(classes.begin(), classes.end(),
                               expect.begin() +
                                   static_cast<std::ptrdiff_t>(start));
        }
    });
    for (std::size_t k = 0; k < ok.size(); ++k) {
        EXPECT_TRUE(ok[k]) << "start " << k / 9 << " count " << k % 9 + 1
                           << " at " << parallelThreadCount()
                           << " threads";
    }
}

TEST(QuantizedMlp, BatchedClassifyEqualsPredictIncludingFaultedWeights)
{
    TrainedQ8 t = trainSmallMlp(13);
    QuantizedMlp quant(t.net);
    const std::size_t saved = parallelThreadCount();
    for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        setParallelThreadCount(threads);
        expectClassifyMatchesPredict(quant, t.split.test);
    }
    // Stuck-at faults at the int8 rails, in both layers and in bias
    // columns: the batched sweep must read the faulted weights too.
    Rng rng(12);
    for (int f = 0; f < 64; ++f) {
        const std::size_t idx = rng.uniformInt(quant.totalWeights());
        quant.setWeightAt(idx, f % 2 == 0 ? int8_t{127} : int8_t{-128});
    }
    quant.setWeightAt(784, int8_t{127}); // neuron 0's bias weight.
    quant.setWeightAt(quant.totalWeights() - 1, int8_t{-128});
    for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        setParallelThreadCount(threads);
        expectClassifyMatchesPredict(quant, t.split.test);
    }
    setParallelThreadCount(saved);
}

} // namespace
} // namespace mlp
} // namespace neuro
