#include "neuro/snn/snn_bp.h"

#include <algorithm>
#include <cmath>

#include "neuro/common/logging.h"
#include "neuro/common/rng.h"
#include "neuro/kernels/kernels.h"

namespace neuro {
namespace snn {

SnnBp::SnnBp(const SnnBpConfig &config, Rng &rng)
    : config_(config), encoder_(config.coding),
      weights_(config.numNeurons, config.numInputs + 1)
{
    NEURO_ASSERT(config_.numNeurons >=
                     static_cast<std::size_t>(config_.numClasses),
                 "need at least one neuron per class");
    const float bound =
        1.0f / std::sqrt(static_cast<float>(config_.numInputs));
    // Each row's input columns draw in row-major order (fillUniform
    // would draw the bias column too), then the bias starts at -1:
    // threshold 1.
    for (std::size_t n = 0; n < config_.numNeurons; ++n) {
        float *row = weights_.row(n);
        for (std::size_t p = 0; p < config_.numInputs; ++p)
            row[p] = static_cast<float>(rng.uniform(-bound, bound));
        row[config_.numInputs] = -1.0f;
    }
}

int
SnnBp::neuronClass(std::size_t neuron) const
{
    NEURO_ASSERT(neuron < config_.numNeurons, "neuron out of range");
    return static_cast<int>(neuron %
                            static_cast<std::size_t>(config_.numClasses));
}

void
SnnBp::spikeFeatures(const uint8_t *pixels, Rng &rng,
                     std::vector<float> &features) const
{
    const std::size_t n = config_.numInputs;
    features.assign(n, 0.0f);
    PackedSpikeGrid grid;
    encoder_.encodePacked(pixels, n, rng, grid);
    const double period = config_.coding.periodMs;
    const double max_count =
        static_cast<double>(encoder_.maxSpikeCount());
    const auto &active = grid.activeTicks();
    for (std::size_t k = 0; k < active.size(); ++k) {
        // End-of-window leak factor for a spike arriving at this tick.
        const float decay = static_cast<float>(
            std::exp(-(period - static_cast<double>(active[k])) /
                     config_.tLeakMs) /
            max_count);
        std::size_t count = 0;
        const uint16_t *inputs = grid.inputsAt(k, &count);
        for (std::size_t s = 0; s < count; ++s)
            features[inputs[s]] += decay;
    }
}

void
SnnBp::forward(const std::vector<float> &features,
               std::vector<float> &y) const
{
    y.assign(config_.numNeurons, 0.0f);
    kernels::gemvBias(weights_.data().data(), weights_.rows(),
                      weights_.cols(), features.data(), y.data());
    for (std::size_t n = 0; n < y.size(); ++n) {
        // Spiking logistic unit: fires (y > 0.5) when the potential
        // exceeds the (trainable) threshold -bias.
        y[n] = 1.0f / (1.0f + std::exp(-y[n]));
    }
}

void
SnnBp::train(const datasets::Dataset &data)
{
    NEURO_ASSERT(!data.empty(), "cannot train on an empty dataset");
    NEURO_ASSERT(data.inputSize() == config_.numInputs,
                 "dataset input size mismatch");
    Rng rng(config_.seed);
    const std::size_t n = data.size();
    std::vector<uint32_t> order(n);
    std::vector<float> features;
    std::vector<float> y;
    std::vector<float> delta(config_.numNeurons);

    for (std::size_t epoch = 0; epoch < config_.epochs; ++epoch) {
        rng.shuffle(order.data(), n);
        for (std::size_t step = 0; step < n; ++step) {
            const auto &sample = data[order[step]];
            spikeFeatures(sample.pixels.data(), rng, features);
            forward(features, y);
            for (std::size_t j = 0; j < config_.numNeurons; ++j) {
                const float target =
                    neuronClass(j) == sample.label ? 1.0f : 0.0f;
                const float e = target - y[j];
                delta[j] = e * y[j] * (1.0f - y[j]);
            }
            kernels::addOuterBias(weights_.data().data(), weights_.rows(),
                                  weights_.cols(), config_.learningRate,
                                  delta.data(), features.data());
        }
    }
}

int
SnnBp::predict(const uint8_t *pixels, Rng &rng) const
{
    std::vector<float> features;
    spikeFeatures(pixels, rng, features);
    std::vector<float> y;
    forward(features, y);
    // Class score: strongest unit of each class (first-spiker analogue).
    std::vector<float> score(static_cast<std::size_t>(config_.numClasses),
                             -1.0f);
    for (std::size_t j = 0; j < y.size(); ++j) {
        auto c = static_cast<std::size_t>(neuronClass(j));
        score[c] = std::max(score[c], y[j]);
    }
    return static_cast<int>(
        std::max_element(score.begin(), score.end()) - score.begin());
}

double
SnnBp::evaluate(const datasets::Dataset &data, uint64_t seed) const
{
    NEURO_ASSERT(!data.empty(), "cannot evaluate on an empty dataset");
    Rng rng(seed);
    std::size_t correct = 0;
    for (std::size_t i = 0; i < data.size(); ++i) {
        if (predict(data[i].pixels.data(), rng) == data[i].label)
            ++correct;
    }
    return static_cast<double>(correct) / static_cast<double>(data.size());
}

} // namespace snn
} // namespace neuro
