/**
 * @file
 * Back-propagation training (Section 2.1): stochastic gradient descent
 * over per-sample presentations in a freshly shuffled order each
 * epoch, with the paper's weight-update rule
 * w(t+1) = w(t) + eta * delta_j * y_i, output-layer gradient
 * delta = f'(s) * e and hidden-layer gradient back-propagated through the
 * next layer's weights. Every sample updates the weights before the
 * next one is presented (kernels::addOuterBias, one call per layer).
 */

#pragma once

#include <cstdint>
#include <functional>

#include "neuro/datasets/dataset.h"
#include "neuro/mlp/mlp.h"

namespace neuro {

class Rng;

namespace mlp {

/** Training hyper-parameters (paper defaults of Table 1). */
struct TrainConfig
{
    float learningRate = 0.3f; ///< eta.
    std::size_t epochs = 50;   ///< passes over the training set.
    uint64_t seed = 7;         ///< seed of the per-epoch reshuffle.
};

/** Per-epoch progress report. */
struct EpochReport
{
    std::size_t epoch = 0;  ///< 0-based epoch index.
    double trainError = 0;  ///< mean squared error over the epoch.
};

/** Optional observer invoked after each epoch. */
using EpochCallback = std::function<void(const EpochReport &)>;

/**
 * Train @p net on @p data with back-propagation.
 * Targets are one-hot vectors (1 for the label, 0 elsewhere).
 */
void train(Mlp &net, const datasets::Dataset &data,
           const TrainConfig &config, const EpochCallback &callback = {});

/** @return classification accuracy of @p net on @p data, in [0,1]. */
double evaluate(const Mlp &net, const datasets::Dataset &data);

/**
 * Convenience: construct, train and evaluate in one call.
 * @return test accuracy in [0,1].
 */
double trainAndEvaluate(const MlpConfig &mlp_config,
                        const TrainConfig &train_config,
                        const datasets::Dataset &train_set,
                        const datasets::Dataset &test_set,
                        uint64_t init_seed);

} // namespace mlp
} // namespace neuro

