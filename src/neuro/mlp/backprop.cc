#include "neuro/mlp/backprop.h"

#include <numeric>
#include <vector>

#include "neuro/common/logging.h"
#include "neuro/common/parallel.h"
#include "neuro/common/profile.h"
#include "neuro/common/rng.h"
#include "neuro/kernels/kernels.h"

namespace neuro {
namespace mlp {

namespace {

/** Buffers of one forward/backward pass, reused across samples. */
struct SampleScratch
{
    std::vector<float> input;
    std::vector<std::vector<float>> activations;
    std::vector<std::vector<float>> deltas; ///< per neuron layer.
    std::vector<float> gemvT;               ///< transposed-product sink.
    double sqError = 0.0;
};

/**
 * Forward pass over sample @p idx recording every layer's
 * activations, then the backward pass: fills scratch.deltas and
 * records the squared output error.
 */
void
forwardBackward(const Mlp &net, const datasets::Dataset &data,
                std::size_t idx, SampleScratch &scratch)
{
    scratch.input.resize(net.inputSize());
    data.normalized(idx, scratch.input.data());
    net.forwardTrace(scratch.input.data(), scratch.activations);

    const Activation &act = net.activation();
    scratch.deltas.resize(net.numLayers());
    scratch.sqError = 0.0;

    // Output layer: delta = f'(s) * (target - output).
    const std::size_t last = net.numLayers() - 1;
    const std::vector<float> &out = scratch.activations[last + 1];
    const auto label = static_cast<std::size_t>(data[idx].label);
    scratch.deltas[last].assign(out.size(), 0.0f);
    for (std::size_t j = 0; j < out.size(); ++j) {
        const float target = j == label ? 1.0f : 0.0f;
        const float e = target - out[j];
        scratch.sqError += static_cast<double>(e) * e;
        scratch.deltas[last][j] = act.derivativeFromOutput(out[j]) * e;
    }

    // Hidden layers: delta_j = f'(s_j) * sum_k delta_k * w_kj — the
    // transposed product through the next layer's weights, evaluated
    // with the row-blocked gemvT instead of a cache-hostile
    // column-strided inline loop. The result has one extra entry (the
    // bias column's virtual input), which backprop ignores.
    for (std::size_t l = last; l-- > 0;) {
        const Matrix &w_next = net.weights(l + 1);
        const std::vector<float> &y = scratch.activations[l + 1];
        scratch.gemvT.resize(w_next.cols());
        w_next.gemvT(scratch.deltas[l + 1].data(),
                     scratch.gemvT.data());
        scratch.deltas[l].resize(y.size());
        for (std::size_t j = 0; j < y.size(); ++j) {
            scratch.deltas[l][j] =
                act.derivativeFromOutput(y[j]) * scratch.gemvT[j];
        }
    }
}

} // namespace

void
train(Mlp &net, const datasets::Dataset &data, const TrainConfig &config,
      const EpochCallback &callback)
{
    NEURO_ASSERT(!data.empty(), "cannot train on an empty dataset");
    NEURO_ASSERT(data.inputSize() == net.inputSize(),
                 "dataset input size %zu != network input size %zu",
                 data.inputSize(), net.inputSize());
    NEURO_ASSERT(static_cast<std::size_t>(data.numClasses()) ==
                     net.outputSize(),
                 "dataset classes %d != network outputs %zu",
                 data.numClasses(), net.outputSize());

    NEURO_PROFILE_SCOPE("mlp/train");
    Rng rng(config.seed);
    const std::size_t n = data.size();
    std::vector<uint32_t> order(n);
    // Rng::shuffle refills the order, so this draw only advances the
    // stream; it stays so every seed keeps its published results.
    rng.shuffle(order.data(), n);
    SampleScratch scratch;

    for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
        NEURO_PROFILE_SCOPE("mlp/train/epoch");
        rng.shuffle(order.data(), n);
        double sq_error = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            forwardBackward(net, data, order[i], scratch);
            sq_error += scratch.sqError;
            // w_ji += eta * delta_j * y_i; the bias sees a constant 1.
            for (std::size_t l = 0; l < net.numLayers(); ++l) {
                Matrix &w = net.weights(l);
                kernels::addOuterBias(w.data().data(), w.rows(), w.cols(),
                                      config.learningRate,
                                      scratch.deltas[l].data(),
                                      scratch.activations[l].data());
            }
        }

        const double mse =
            sq_error / static_cast<double>(n * net.outputSize());
        obsCount<"mlp.images_trained">(n);
        obsGauge<"mlp.epoch_error">(mse);
        if (callback) {
            EpochReport report;
            report.epoch = epoch;
            report.trainError = mse;
            callback(report);
        }
    }
}

double
evaluate(const Mlp &net, const datasets::Dataset &data)
{
    NEURO_ASSERT(!data.empty(), "cannot evaluate on an empty dataset");
    NEURO_ASSERT(data.inputSize() == net.inputSize(),
                 "dataset input size %zu != network input size %zu",
                 data.inputSize(), net.inputSize());
    NEURO_PROFILE_SCOPE("mlp/eval");
    const std::size_t n = data.size();
    // Per-sample hit flags: sharding the test set across workers
    // cannot reorder anything the reduction below can observe, and
    // classifyPixels answers predict() per image wherever a shard or
    // strip boundary falls. The grain covers several strips per shard
    // so each worker's scratch and the kernel dispatch amortize.
    std::vector<uint8_t> hit(n, 0);
    parallelForRange(0, n, 4 * kernels::kStripWidth,
                     [&](std::size_t i0, std::size_t i1) {
        NEURO_PROFILE_SCOPE("mlp/eval/shard");
        std::vector<const uint8_t *> pixels(i1 - i0);
        for (std::size_t i = i0; i < i1; ++i)
            pixels[i - i0] = data[i].pixels.data();
        std::vector<int> classes(i1 - i0);
        ClassifyScratch scratch;
        classifyPixels(net, pixels.data(), pixels.size(), classes.data(),
                       scratch);
        for (std::size_t i = i0; i < i1; ++i)
            hit[i] = classes[i - i0] == data[i].label;
    });
    const std::size_t correct =
        std::accumulate(hit.begin(), hit.end(), std::size_t{0});
    return static_cast<double>(correct) / static_cast<double>(n);
}

double
trainAndEvaluate(const MlpConfig &mlp_config, const TrainConfig &train_config,
                 const datasets::Dataset &train_set,
                 const datasets::Dataset &test_set, uint64_t init_seed)
{
    Rng rng(init_seed);
    Mlp net(mlp_config, rng);
    train(net, train_set, train_config);
    return evaluate(net, test_set);
}

} // namespace mlp
} // namespace neuro
