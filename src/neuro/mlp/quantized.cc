#include "neuro/mlp/quantized.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "neuro/common/logging.h"
#include "neuro/common/parallel.h"
#include "neuro/kernels/kernels.h"

namespace neuro {
namespace mlp {

QuantizedMlp::QuantizedMlp(const Mlp &net, int weight_bits)
    : weightBits_(weight_bits), inputSize_(net.inputSize()),
      outputSize_(net.outputSize()),
      sigmoid_(net.activation().kind() == ActivationKind::Sigmoid
                   ? 1.0f
                   : net.activation().slope())
{
    NEURO_ASSERT(net.activation().kind() != ActivationKind::Step,
                 "quantized path expects a sigmoid-family activation");
    NEURO_ASSERT(weight_bits >= 2 && weight_bits <= 8,
                 "weight precision must be 2..8 bits");
    const long wmax = (1L << (weight_bits - 1)) - 1;
    const long wmin = -(1L << (weight_bits - 1));

    for (std::size_t l = 0; l < net.numLayers(); ++l) {
        const Matrix &w = net.weights(l);
        Layer layer;
        layer.fanOut = w.rows();
        layer.fanIn = w.cols() - 1;

        // Pick the largest fractional-bit count such that every weight
        // fits in the signed width: scale 2^frac maps |w|max below 2^(b-1).
        float max_abs = 0.0f;
        for (float v : w.data())
            max_abs = std::max(max_abs, std::fabs(v));
        int frac = weight_bits - 1;
        while (frac > 0 &&
               max_abs * static_cast<float>(1 << frac) >
                   static_cast<float>(wmax)) {
            --frac;
        }
        layer.fracBits = frac;

        layer.weights.resize(w.size());
        const float scale = static_cast<float>(1 << frac);
        for (std::size_t i = 0; i < w.size(); ++i) {
            const long q = std::lround(w.data()[i] * scale);
            layer.weights[i] =
                static_cast<int8_t>(std::clamp(q, wmin, wmax));
        }
        layers_.push_back(std::move(layer));
    }
}

const uint8_t *
QuantizedMlp::forward(const uint8_t *pixels, Scratch &scratch) const
{
    // Activations travel as 8-bit unsigned codes for [0,1].
    const uint8_t *in = pixels;
    for (const Layer &layer : layers_) {
        scratch.next.resize(layer.fanOut);
        scratch.acc.resize(layer.fanOut);
        // 32-bit MAC over int8 weights and uint8 activations, plus
        // the bias weight fed by the constant-1 input (code 255) —
        // integer arithmetic, so the SIMD kernel is exact whatever
        // the dispatch width.
        kernels::gemvBiasQ8(layer.weights.data(), layer.fanOut,
                            layer.fanIn + 1, in, scratch.acc.data());
        const float inv_scale =
            1.0f / (static_cast<float>(1 << layer.fracBits) * 255.0f);
        for (std::size_t j = 0; j < layer.fanOut; ++j) {
            // Dequantize the pre-activation and apply the hardware
            // piecewise-linear sigmoid, then requantize to 8 bits.
            const float s = static_cast<float>(scratch.acc[j]) * inv_scale;
            const float y = sigmoid_.apply(s);
            scratch.next[j] = static_cast<uint8_t>(
                std::clamp(std::lround(y * 255.0f), 0L, 255L));
        }
        scratch.cur.swap(scratch.next);
        in = scratch.cur.data();
    }
    return in;
}

void
QuantizedMlp::forward(const uint8_t *pixels, uint8_t *output) const
{
    Scratch scratch;
    std::copy_n(forward(pixels, scratch), outputSize_, output);
}

int
QuantizedMlp::predict(const uint8_t *pixels, Scratch &scratch) const
{
    const uint8_t *out = forward(pixels, scratch);
    return static_cast<int>(std::max_element(out, out + outputSize_) - out);
}

int
QuantizedMlp::predict(const uint8_t *pixels) const
{
    Scratch scratch;
    return predict(pixels, scratch);
}

std::size_t
QuantizedMlp::totalWeights() const
{
    std::size_t total = 0;
    for (const Layer &layer : layers_)
        total += layer.weights.size();
    return total;
}

int8_t
QuantizedMlp::weightAt(std::size_t idx) const
{
    for (const Layer &layer : layers_) {
        if (idx < layer.weights.size())
            return layer.weights[idx];
        idx -= layer.weights.size();
    }
    panic("weight index out of range");
}

void
QuantizedMlp::setWeightAt(std::size_t idx, int8_t value)
{
    for (Layer &layer : layers_) {
        if (idx < layer.weights.size()) {
            layer.weights[idx] = value;
            return;
        }
        idx -= layer.weights.size();
    }
    panic("weight index out of range");
}

double
QuantizedMlp::evaluate(const datasets::Dataset &data) const
{
    NEURO_ASSERT(!data.empty(), "cannot evaluate on an empty dataset");
    NEURO_ASSERT(data.inputSize() == inputSize_,
                 "dataset input size mismatch");
    const std::size_t n = data.size();
    // Per-sample hit flags, as in mlp::evaluate: each prediction is a
    // pure function of its pixels, so the count below cannot observe
    // the shard boundaries or the thread count.
    std::vector<uint8_t> hit(n, 0);
    parallelForRange(0, n, 64, [&](std::size_t i0, std::size_t i1) {
        Scratch scratch;
        for (std::size_t i = i0; i < i1; ++i)
            hit[i] = predict(data[i].pixels.data(), scratch) == data[i].label;
    });
    const std::size_t correct =
        std::accumulate(hit.begin(), hit.end(), std::size_t{0});
    return static_cast<double>(correct) / static_cast<double>(n);
}

} // namespace mlp
} // namespace neuro
