/**
 * @file
 * The Multi-Layer Perceptron of the paper's machine-learning side:
 * fully-connected layers with bias, sigmoid activations, trained with
 * back-propagation (see backprop.h). The MNIST configuration is
 * 28x28-100-10 (Table 1); the iso-accuracy comparison uses 28x28-15-10.
 */

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "neuro/common/matrix.h"
#include "neuro/mlp/activation.h"

namespace neuro {

class Archive;
class Rng;

namespace mlp {

/** Topology plus activation choice. */
struct MlpConfig
{
    /** Layer sizes including the input layer, e.g. {784, 100, 10}. */
    std::vector<std::size_t> layerSizes{784, 100, 10};
    /** Activation used by every neuron layer. */
    ActivationKind activation = ActivationKind::Sigmoid;
    /** Slope parameter for ParamSigmoid / surrogate slope for Step. */
    float slope = 1.0f;
};

/**
 * A feed-forward MLP. Weight matrix l has shape
 * (layerSizes[l+1] x (layerSizes[l] + 1)); the extra column is the bias
 * weight fed by a constant 1 input (the paper's v_{j,0}/w_{0,j} input).
 */
class Mlp
{
  public:
    /** Construct with small random weights. */
    Mlp(const MlpConfig &config, Rng &rng);

    /** @return the configuration. */
    const MlpConfig &config() const { return config_; }

    /** @return number of neuron layers (layers with weights). */
    std::size_t numLayers() const { return weights_.size(); }

    /** @return number of inputs. */
    std::size_t inputSize() const { return config_.layerSizes.front(); }

    /** @return number of outputs. */
    std::size_t outputSize() const { return config_.layerSizes.back(); }

    /** @return total synaptic weight count (including biases). */
    std::size_t weightCount() const;

    /**
     * Run the feed-forward path.
     * @param input  inputSize() floats in [0,1].
     * @param output outputSize() floats (written).
     */
    void forward(const float *input, float *output) const;

    /**
     * Feed-forward keeping every layer's activations, for BP.
     * activations[0] is the input copy; activations[l+1] the output of
     * neuron layer l. Buffers are resized as needed.
     */
    void forwardTrace(const float *input,
                      std::vector<std::vector<float>> &activations) const;

    /** @return argmax class of the output for @p input. */
    int predict(const float *input) const;

    /**
     * Feed-forward for kernels::kStripWidth samples at once through
     * the unified SIMD kernel layer. @p inputStrip holds the samples
     * sample-minor (element k of sample b at
     * inputStrip[k * kStripWidth + b]; inputSize() * kStripWidth
     * floats). On return @p cur holds the final layer's activations
     * in the same strip layout (outputSize() * kStripWidth floats);
     * @p next is scratch. Both buffers are resized as needed and may
     * be reused across calls. Per sample the result is bit-identical
     * to forward().
     */
    void forwardStrip(const float *inputStrip, std::vector<float> &cur,
                      std::vector<float> &next) const;

    /** @return mutable weight matrix of layer @p l. */
    Matrix &weights(std::size_t l) { return weights_[l]; }
    /** @return weight matrix of layer @p l. */
    const Matrix &weights(std::size_t l) const { return weights_[l]; }

    /** @return the activation object. */
    const Activation &activation() const { return activation_; }

    /** Store topology, activation and weights into @p archive under
     *  @p prefix (records "<prefix>.layers", ".weights<l>", ...). */
    void serialize(Archive &archive,
                   const std::string &prefix = "mlp") const;

    /** Rebuild a network from @p archive; empty optional if the
     *  records are missing or inconsistent. */
    static std::optional<Mlp>
    deserialize(const Archive &archive,
                const std::string &prefix = "mlp");

  private:
    Mlp() : activation_(ActivationKind::Sigmoid) {}

    MlpConfig config_;
    Activation activation_;
    std::vector<Matrix> weights_;
};

/**
 * Argmax per sample of a strip buffer (rows * kernels::kStripWidth
 * floats, sample-minor), written to @p classes. Ties resolve to the
 * lowest row — the same first-max-wins rule as std::max_element in
 * Mlp::predict(), so strip and scalar classification always agree.
 */
void argmaxStrip(const float *strip, std::size_t rows, int *classes);

/** Caller-owned buffers of classifyPixels, reusable across calls. */
struct ClassifyScratch
{
    std::vector<float> in;        ///< input strip, or one input.
    std::vector<float> cur, next; ///< strip activations.
};

/**
 * Classify @p count images, @p pixels[i] pointing at image i's
 * inputSize() 8-bit pixels (normalized as px / 255, exactly as
 * datasets::Dataset::normalized does). Full strips of
 * kernels::kStripWidth images run through forwardStrip and
 * argmaxStrip; the remaining count % kStripWidth run through
 * predict(). Strip and scalar answers agree bit for bit, so every
 * class equals predict() on that image alone.
 */
void classifyPixels(const Mlp &net, const uint8_t *const *pixels,
                    std::size_t count, int *classes,
                    ClassifyScratch &scratch);

} // namespace mlp
} // namespace neuro

