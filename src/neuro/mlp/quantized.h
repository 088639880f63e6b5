/**
 * @file
 * Hardware-faithful 8-bit fixed-point MLP inference (Section 4.2.1): the
 * accelerator stores 8-bit synaptic weights and 8-bit activations, uses
 * integer multiply-accumulate, and evaluates the sigmoid with the
 * 16-point piecewise-linear unit. The paper reports 96.65% with this
 * datapath vs 97.65% in floating point; the quantization bench reproduces
 * that ~1% gap on our workload.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "neuro/datasets/dataset.h"
#include "neuro/mlp/activation.h"
#include "neuro/mlp/mlp.h"

namespace neuro {
namespace mlp {

/**
 * An 8-bit quantization of a trained float MLP.
 *
 * Each layer stores int8 weights with a per-layer power-of-two scale
 * (fractional-bit count chosen so the largest weight fits), activations
 * are 8-bit unsigned (0..255 representing [0,1]), and accumulation is
 * 32-bit integer — the widths of the paper's datapath.
 */
class QuantizedMlp
{
  public:
    /**
     * Quantize @p net (which must use a sigmoid-family activation).
     * @param weight_bits signed weight precision (2..8); the paper's
     * datapath uses 8, narrower widths serve the precision ablation.
     */
    explicit QuantizedMlp(const Mlp &net, int weight_bits = 8);

    /** @return the configured weight precision. */
    int weightBits() const { return weightBits_; }

    /** @return number of neuron layers. */
    std::size_t numLayers() const { return layers_.size(); }

    /** @return number of inputs. */
    std::size_t inputSize() const { return inputSize_; }

    /** @return number of outputs. */
    std::size_t outputSize() const { return outputSize_; }

    /** @return the fractional-bit count chosen for layer @p l. */
    int fracBits(std::size_t l) const { return layers_[l].fracBits; }

    /** @return inputs of layer @p l (excluding bias). */
    std::size_t layerFanIn(std::size_t l) const
    {
        return layers_[l].fanIn;
    }

    /** @return neurons of layer @p l. */
    std::size_t layerFanOut(std::size_t l) const
    {
        return layers_[l].fanOut;
    }

    /** @return raw int8 weight (neuron @p j, input @p i; bias at
     *  i == layerFanIn(l)). */
    int8_t
    layerWeight(std::size_t l, std::size_t j, std::size_t i) const
    {
        return layers_[l].weights[j * (layers_[l].fanIn + 1) + i];
    }

    /** @return the hardware sigmoid unit shared by all neurons. */
    const PiecewiseSigmoid &sigmoid() const { return sigmoid_; }

    /**
     * Feed-forward on raw 8-bit pixels.
     * @param pixels  inputSize() luminance values.
     * @param output  outputSize() activation bytes (written).
     */
    void forward(const uint8_t *pixels, uint8_t *output) const;

    /** @return argmax class for @p pixels. */
    int predict(const uint8_t *pixels) const;

    /** @return accuracy on @p data in [0,1]. */
    double evaluate(const datasets::Dataset &data) const;

    /** @return total int8 weights across layers (fault-injection
     *  address space). */
    std::size_t totalWeights() const;

    /** @return raw weight at flat index @p idx. */
    int8_t weightAt(std::size_t idx) const;

    /** Overwrite the raw weight at flat index @p idx (fault
     *  injection / tests). */
    void setWeightAt(std::size_t idx, int8_t value);

  private:
    /** Caller-owned activation and accumulator buffers: reused across
     *  images, so a warm scratch makes forward() allocation-free. */
    struct Scratch
    {
        std::vector<uint8_t> cur, next;
        std::vector<int32_t> acc;
    };

    /** Feed-forward through @p scratch. @return the outputSize()
     *  output codes, valid until @p scratch is next used. */
    const uint8_t *forward(const uint8_t *pixels, Scratch &scratch) const;

    /** @return argmax class for @p pixels, computed in @p scratch. */
    int predict(const uint8_t *pixels, Scratch &scratch) const;

    struct Layer
    {
        std::size_t fanIn = 0;        ///< inputs (excluding bias).
        std::size_t fanOut = 0;       ///< neurons.
        int fracBits = 6;             ///< weight scale = 2^-fracBits.
        std::vector<int8_t> weights;  ///< fanOut x (fanIn+1), bias last.
    };

    int weightBits_ = 8;
    std::size_t inputSize_ = 0;
    std::size_t outputSize_ = 0;
    std::vector<Layer> layers_;
    PiecewiseSigmoid sigmoid_;
};

} // namespace mlp
} // namespace neuro

