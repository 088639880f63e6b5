#include "neuro/mlp/backprop.h"

#include <algorithm>
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

/** Per-sample scratch for one forward/backward pass. */
struct SampleScratch
{
    std::vector<float> input;
    std::vector<std::vector<float>> activations;
    std::vector<std::vector<float>> deltas; ///< per neuron layer.
    std::vector<float> gemvT;               ///< transposed-product sink.
    double sqError = 0.0;
};

/**
 * Backward pass over an already-recorded activation trace: fills
 * scratch.deltas and records the squared output error for @p label.
 * Reads the network weights only, so concurrent calls on distinct
 * scratches are safe while the weights are not being updated.
 */
void
backwardFromTrace(const Mlp &net, int label, SampleScratch &scratch)
{
    const Activation &act = net.activation();
    scratch.deltas.resize(net.numLayers());
    scratch.sqError = 0.0;

    // Output layer: delta = f'(s) * (target - output).
    const std::size_t last = net.numLayers() - 1;
    const std::vector<float> &out = scratch.activations[last + 1];
    scratch.deltas[last].assign(out.size(), 0.0f);
    for (std::size_t j = 0; j < out.size(); ++j) {
        const float target =
            j == static_cast<std::size_t>(label) ? 1.0f : 0.0f;
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

/** Forward + backward for one sample (the scalar path, used for the
 *  paper-exact per-presentation SGD and for partial strips). */
void
forwardBackward(const Mlp &net, const datasets::Dataset &data,
                std::size_t idx, SampleScratch &scratch)
{
    scratch.input.resize(net.inputSize());
    data.normalized(idx, scratch.input.data());
    net.forwardTrace(scratch.input.data(), scratch.activations);
    backwardFromTrace(net, data[idx].label, scratch);
}

/** Shared buffers for one strip-batched forward pass. */
struct StripScratch
{
    std::vector<float> in;   ///< sample-minor input strip.
    std::vector<float> cur;  ///< current layer activations (strip).
    std::vector<float> next; ///< next layer activations (strip).
};

/**
 * Forward + backward for a full strip of kernels::kStripWidth
 * samples. The forward pass runs through kernels::gemvBiasStrip — one
 * weight-matrix sweep feeds all 16 samples, so the weights stream
 * from memory once per strip instead of once per sample — and each
 * layer's activations are scattered back into the per-sample trace
 * buffers the backward pass expects. Every sample's float operation
 * sequence matches Mlp::forwardTrace exactly (the strip kernel keeps
 * dotUnrolled's reduction schedule per sample), so training stays
 * bit-identical to the scalar path.
 *
 * @p order points at the kStripWidth shuffled dataset indices of this
 * strip; @p scratch at its kStripWidth per-sample scratch slots.
 */
void
forwardBackwardStrip(const Mlp &net, const datasets::Dataset &data,
                     const uint32_t *order, SampleScratch *scratch,
                     StripScratch &strip)
{
    constexpr std::size_t kStrip = kernels::kStripWidth;
    const std::size_t inputs = net.inputSize();
    const Activation &act = net.activation();

    for (std::size_t b = 0; b < kStrip; ++b) {
        SampleScratch &s = scratch[b];
        s.input.resize(inputs);
        data.normalized(order[b], s.input.data());
        s.activations.resize(net.numLayers() + 1);
        s.activations[0].assign(s.input.begin(), s.input.end());
    }
    strip.in.resize(inputs * kStrip);
    for (std::size_t k = 0; k < inputs; ++k)
        for (std::size_t b = 0; b < kStrip; ++b)
            strip.in[k * kStrip + b] = scratch[b].input[k];

    strip.cur.assign(strip.in.begin(), strip.in.end());
    for (std::size_t l = 0; l < net.numLayers(); ++l) {
        const Matrix &w = net.weights(l);
        const std::size_t rows = w.rows();
        strip.next.resize(rows * kStrip);
        kernels::gemvBiasStrip(w.data().data(), rows, w.cols(),
                               strip.cur.data(), strip.next.data());
        for (float &v : strip.next)
            v = act.apply(v);
        for (std::size_t b = 0; b < kStrip; ++b) {
            std::vector<float> &a = scratch[b].activations[l + 1];
            a.resize(rows);
            for (std::size_t j = 0; j < rows; ++j)
                a[j] = strip.next[j * kStrip + b];
        }
        strip.cur.swap(strip.next);
    }

    for (std::size_t b = 0; b < kStrip; ++b)
        backwardFromTrace(net, data[order[b]].label, scratch[b]);
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
    rng.shuffle(order.data(), n);

    const std::size_t batch = std::max<std::size_t>(1, config.batchSize);
    constexpr std::size_t kStrip = kernels::kStripWidth;
    // One scratch per concurrent batch slot; reused across batches and
    // epochs so the steady state allocates nothing.
    std::vector<SampleScratch> scratch(batch);
    std::vector<StripScratch> strips(std::max<std::size_t>(
        1, batch / kStrip));
    // Per-layer pointer tables for the batched outer-product update.
    std::vector<const float *> delta_ptrs(batch);
    std::vector<const float *> act_ptrs(batch);

    for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
        NEURO_PROFILE_SCOPE("mlp/train/epoch");
        if (config.shuffle)
            rng.shuffle(order.data(), n);
        double sq_error = 0.0;

        for (std::size_t start = 0; start < n; start += batch) {
            const std::size_t count = std::min(batch, n - start);
            if (count == 1) {
                // Paper-exact per-presentation SGD.
                forwardBackward(net, data, order[start], scratch[0]);
            } else {
                // Minibatch: every gradient in the batch is computed
                // against the batch-start weights, so the samples are
                // independent and can run across the pool. Full strips
                // of kStrip samples share one weight-matrix sweep
                // through kernels::gemvBiasStrip; the remainder runs
                // the scalar path. Both produce bit-identical traces,
                // and the per-slot scratch plus in-order update below
                // keep training bit-identical at any thread count.
                const std::size_t full = count / kStrip;
                if (full > 0) {
                    // Grain 1: one strip (kStrip whole samples through
                    // every layer) is already far more work than a
                    // pool dispatch, so shard at strip granularity.
                    parallelFor(std::size_t{0}, full, std::size_t{1},
                                [&](std::size_t s) {
                                    forwardBackwardStrip(
                                        net, data,
                                        order.data() + start + s * kStrip,
                                        scratch.data() + s * kStrip,
                                        strips[s]);
                                });
                }
                if (full * kStrip < count) {
                    // The ragged tail is at most kStrip - 1 scalar
                    // samples; a sample is too little work to amortize
                    // a dispatch, so keep at least 8 per chunk.
                    parallelFor(full * kStrip, count, std::size_t{8},
                                [&](std::size_t b) {
                                    forwardBackward(net, data,
                                                    order[start + b],
                                                    scratch[b]);
                                });
                }
            }

            // Weight updates: w_ji += eta * delta_j * y_i (bias sees
            // a constant 1) — the accumulated gemm-shaped update,
            // applied with one whole-batch kernel call per layer so
            // each weight row streams once per batch instead of once
            // per sample. Per element the adds still run in batch
            // order (sample 0 first), so the result is bit-identical
            // to the historical per-sample update loop.
            for (std::size_t b = 0; b < count; ++b)
                sq_error += scratch[b].sqError;
            for (std::size_t l = 0; l < net.numLayers(); ++l) {
                for (std::size_t b = 0; b < count; ++b) {
                    delta_ptrs[b] = scratch[b].deltas[l].data();
                    act_ptrs[b] = scratch[b].activations[l].data();
                }
                Matrix &w = net.weights(l);
                kernels::addOuterBiasBatch(
                    w.data().data(), w.rows(), w.cols(),
                    config.learningRate, delta_ptrs.data(),
                    act_ptrs.data(), count);
            }
        }

        obsCount<"mlp.images_trained">(n);
        obsGauge<"mlp.epoch_error">(
            sq_error / static_cast<double>(n * net.outputSize()));
        if (callback) {
            EpochReport report;
            report.epoch = epoch;
            report.trainError =
                sq_error / static_cast<double>(n * net.outputSize());
            callback(report);
        }
    }
}

double
evaluate(const Mlp &net, const datasets::Dataset &data)
{
    NEURO_ASSERT(!data.empty(), "cannot evaluate on an empty dataset");
    NEURO_PROFILE_SCOPE("mlp/eval");
    const std::size_t n = data.size();
    constexpr std::size_t kStrip = kernels::kStripWidth;
    // Per-sample hit flags: sharding the test set across workers
    // cannot reorder anything the reduction below can observe. Strip
    // and scalar classification agree exactly (forwardStrip is
    // bit-identical to forward, argmaxStrip uses the same tie rule as
    // predict), so shard boundaries cannot change the result either.
    // The grain covers several strips per shard so each worker's
    // scratch and the kernel dispatch amortize.
    std::vector<uint8_t> hit(n, 0);
    parallelForRange(0, n, 4 * kStrip,
                     [&](std::size_t i0, std::size_t i1) {
        NEURO_PROFILE_SCOPE("mlp/eval/shard");
        const std::size_t inputs = net.inputSize();
        std::vector<float> input(inputs);
        std::vector<float> strip_in(inputs * kStrip);
        std::vector<float> cur, next;
        int classes[kStrip];
        std::size_t i = i0;
        for (; i + kStrip <= i1; i += kStrip) {
            for (std::size_t b = 0; b < kStrip; ++b) {
                data.normalized(i + b, input.data());
                for (std::size_t k = 0; k < inputs; ++k)
                    strip_in[k * kStrip + b] = input[k];
            }
            net.forwardStrip(strip_in.data(), cur, next);
            argmaxStrip(cur.data(), net.outputSize(), classes);
            for (std::size_t b = 0; b < kStrip; ++b)
                hit[i + b] = classes[b] == data[i + b].label;
        }
        for (; i < i1; ++i) {
            data.normalized(i, input.data());
            hit[i] = net.predict(input.data()) == data[i].label;
        }
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
