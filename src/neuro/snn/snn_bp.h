/**
 * @file
 * The SNN+BP hybrid (Section 3.2): the feed-forward path is the SNN's
 * (spike coding, leakage, firing thresholds), but learning is supervised
 * gradient descent instead of STDP. The paper uses it to show that the
 * accuracy gap to MLP+BP is mostly caused by the STDP learning rule, not
 * by spike coding.
 *
 * Implementation: with no potential reset, the LIF potential at the end
 * of a presentation window T has the exact closed form
 *   v_n(T) = sum_p w_np * e_p,   e_p = sum_{spikes t of pixel p}
 *                                          exp(-(T - t)/Tleak),
 * i.e. a linear map of the leak-weighted spike counts e_p. Each neuron
 * is a spiking logistic unit y = sigma(v - theta); neurons are assigned
 * round-robin to classes and trained with the delta rule on one-hot
 * targets, which is exactly back-propagation for this single-layer net.
 * The layer keeps the MLP's dense layout: the bias weight is the last
 * column of the weight matrix, fed by a constant 1, so the forward
 * pass and the update run the MLP's gemvBias and addOuterBias kernels.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "neuro/common/matrix.h"
#include "neuro/datasets/dataset.h"
#include "neuro/snn/coding.h"

namespace neuro {

class Rng;

namespace snn {

/** SNN+BP hyper-parameters. */
struct SnnBpConfig
{
    std::size_t numInputs = 784;  ///< input pixels.
    std::size_t numNeurons = 300; ///< spiking logistic units.
    int numClasses = 10;          ///< output labels.
    CodingConfig coding;          ///< spike coding (shared with SNN).
    double tLeakMs = 500.0;       ///< Tleak of the forward path.
    float learningRate = 0.1f;    ///< eta.
    std::size_t epochs = 20;      ///< training passes.
    uint64_t seed = 13;           ///< shuffle/spike seed.
};

/** Single-layer spiking network trained with back-propagation. */
class SnnBp
{
  public:
    /** Construct with small random weights. */
    SnnBp(const SnnBpConfig &config, Rng &rng);

    /** @return the configuration. */
    const SnnBpConfig &config() const { return config_; }

    /** @return the class assigned to @p neuron (round-robin). */
    int neuronClass(std::size_t neuron) const;

    /**
     * Compute the leak-weighted spike features e_p for one image
     * (encodes the image, then reduces the train; RNG drives the
     * stochastic rate coding).
     */
    void spikeFeatures(const uint8_t *pixels, Rng &rng,
                       std::vector<float> &features) const;

    /** Train with the delta rule over @p data. */
    void train(const datasets::Dataset &data);

    /** @return predicted class for one image. */
    int predict(const uint8_t *pixels, Rng &rng) const;

    /** @return accuracy on @p data in [0,1]. */
    double evaluate(const datasets::Dataset &data, uint64_t seed) const;

  private:
    /** Forward: y_n = sigma(w_n . e + b_n). */
    void forward(const std::vector<float> &features,
                 std::vector<float> &y) const;

    SnnBpConfig config_;
    SpikeEncoder encoder_;
    /** numNeurons x (numInputs + 1); the last column is the bias
     *  (-threshold). */
    Matrix weights_;
};

} // namespace snn
} // namespace neuro

