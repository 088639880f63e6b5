#include "neuro/mlp/mlp.h"

#include <algorithm>
#include <cmath>

#include "neuro/common/logging.h"
#include "neuro/common/rng.h"
#include "neuro/common/serialize.h"
#include "neuro/kernels/kernels.h"

namespace neuro {
namespace mlp {

Mlp::Mlp(const MlpConfig &config, Rng &rng)
    : config_(config), activation_(config.activation, config.slope)
{
    NEURO_ASSERT(config_.layerSizes.size() >= 2,
                 "an MLP needs an input and an output layer");
    for (std::size_t l = 0; l + 1 < config_.layerSizes.size(); ++l) {
        const std::size_t fan_in = config_.layerSizes[l];
        const std::size_t fan_out = config_.layerSizes[l + 1];
        NEURO_ASSERT(fan_in > 0 && fan_out > 0, "empty layer");
        Matrix w(fan_out, fan_in + 1);
        // Uniform init scaled by fan-in keeps the initial pre-activations
        // in the sigmoid's linear region.
        const float bound =
            1.0f / std::sqrt(static_cast<float>(fan_in));
        w.fillUniform(rng, -bound, bound);
        weights_.push_back(std::move(w));
    }
}

std::size_t
Mlp::weightCount() const
{
    std::size_t total = 0;
    for (const auto &w : weights_)
        total += w.size();
    return total;
}

void
Mlp::forward(const float *input, float *output) const
{
    std::vector<float> cur(input, input + inputSize());
    std::vector<float> next;
    for (std::size_t l = 0; l < weights_.size(); ++l) {
        const Matrix &w = weights_[l];
        next.resize(w.rows());
        kernels::gemvBias(w.data().data(), w.rows(), w.cols(), cur.data(),
                          next.data());
        for (std::size_t j = 0; j < w.rows(); ++j)
            next[j] = activation_.apply(next[j]);
        cur.swap(next);
    }
    std::copy(cur.begin(), cur.end(), output);
}

void
Mlp::serialize(Archive &archive, const std::string &prefix) const
{
    std::vector<int64_t> layers;
    for (std::size_t s : config_.layerSizes)
        layers.push_back(static_cast<int64_t>(s));
    archive.putInts(prefix + ".layers", std::move(layers));
    archive.putScalar(prefix + ".activation",
                      static_cast<double>(config_.activation));
    archive.putScalar(prefix + ".slope", config_.slope);
    for (std::size_t l = 0; l < weights_.size(); ++l) {
        archive.putFloats(prefix + ".weights" + std::to_string(l),
                          weights_[l].data());
    }
}

std::optional<Mlp>
Mlp::deserialize(const Archive &archive, const std::string &prefix)
{
    const std::vector<int64_t> *layers = archive.ints(prefix + ".layers");
    const std::optional<double> kind = archive.scalar(prefix + ".activation");
    const std::optional<double> slope = archive.scalar(prefix + ".slope");
    if (!layers || layers->size() < 2 || !(kind >= 0.0) ||
        !(kind <= static_cast<int>(ActivationKind::Step)) ||
        !(slope > 0.0 && std::isfinite(*slope))) {
        return std::nullopt;
    }
    Mlp net;
    net.config_.layerSizes.clear(); // drop MlpConfig's defaults.
    for (int64_t s : *layers) {
        if (s <= 0)
            return std::nullopt;
        net.config_.layerSizes.push_back(static_cast<std::size_t>(s));
    }
    net.config_.activation =
        static_cast<ActivationKind>(static_cast<int>(*kind));
    net.config_.slope = static_cast<float>(*slope);
    net.activation_ =
        Activation(net.config_.activation, net.config_.slope);

    for (std::size_t l = 0; l + 1 < net.config_.layerSizes.size(); ++l) {
        const std::size_t rows = net.config_.layerSizes[l + 1];
        const std::size_t cols = net.config_.layerSizes[l] + 1;
        const std::vector<float> *values =
            archive.floats(prefix + ".weights" + std::to_string(l));
        // Checked before the layer is allocated, by division: the
        // declared product may overflow.
        if (!values || values->size() % cols != 0 ||
            values->size() / cols != rows) {
            return std::nullopt;
        }
        Matrix w(rows, cols);
        w.data() = *values;
        net.weights_.push_back(std::move(w));
    }
    return net;
}

void
Mlp::forwardStrip(const float *inputStrip, std::vector<float> &cur,
                  std::vector<float> &next) const
{
    constexpr std::size_t kStrip = kernels::kStripWidth;
    cur.assign(inputStrip, inputStrip + inputSize() * kStrip);
    for (std::size_t l = 0; l < weights_.size(); ++l) {
        const Matrix &w = weights_[l];
        next.resize(w.rows() * kStrip);
        kernels::gemvBiasStrip(w.data().data(), w.rows(), w.cols(),
                               cur.data(), next.data());
        for (float &v : next)
            v = activation_.apply(v);
        cur.swap(next);
    }
}

void
argmaxStrip(const float *strip, std::size_t rows, int *classes)
{
    constexpr std::size_t kStrip = kernels::kStripWidth;
    for (std::size_t b = 0; b < kStrip; ++b) {
        int best = 0;
        float best_v = strip[b];
        for (std::size_t r = 1; r < rows; ++r) {
            const float v = strip[r * kStrip + b];
            if (v > best_v) {
                best_v = v;
                best = static_cast<int>(r);
            }
        }
        classes[b] = best;
    }
}

void
classifyPixels(const Mlp &net, const uint8_t *const *pixels,
               std::size_t count, int *classes, ClassifyScratch &scratch)
{
    constexpr std::size_t kStrip = kernels::kStripWidth;
    const std::size_t inputs = net.inputSize();
    scratch.in.resize(inputs * kStrip);
    std::size_t s = 0;
    for (; s + kStrip <= count; s += kStrip) {
        // Pixel-outer transpose into the sample-minor strip: for each
        // pixel index the destination run x[k*kStrip..] is contiguous,
        // so the byte gather goes through a tiny staging row and the
        // convert/scale vectorizes into one sequential write pass.
        const uint8_t *const *strip = pixels + s;
        float *__restrict x = scratch.in.data();
        for (std::size_t k = 0; k < inputs; ++k) {
            uint8_t staged[kStrip];
            for (std::size_t b = 0; b < kStrip; ++b)
                staged[b] = strip[b][k];
            for (std::size_t b = 0; b < kStrip; ++b)
                x[k * kStrip + b] = static_cast<float>(staged[b]) / 255.0f;
        }
        net.forwardStrip(scratch.in.data(), scratch.cur, scratch.next);
        argmaxStrip(scratch.cur.data(), net.outputSize(), classes + s);
    }
    for (; s < count; ++s) {
        for (std::size_t k = 0; k < inputs; ++k)
            scratch.in[k] = static_cast<float>(pixels[s][k]) / 255.0f;
        classes[s] = net.predict(scratch.in.data());
    }
}

int
Mlp::predict(const float *input) const
{
    std::vector<float> out(outputSize());
    forward(input, out.data());
    return static_cast<int>(
        std::max_element(out.begin(), out.end()) - out.begin());
}

} // namespace mlp
} // namespace neuro
