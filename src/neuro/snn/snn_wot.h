/**
 * @file
 * The SNNwot hardware datapath (Section 4.2.2, Figure 7): timing
 * information is discarded and each pixel contributes `count x weight`
 * where count is a 4-bit spike count. The accelerator has no multiplier:
 * since count <= 10, the product is computed with 4 shifters and 4
 * adders as  n3*2^3*W + n2*2^2*W + n1*2*W + n0*W  (count = n3n2n1n0),
 * accumulated through a Wallace-tree adder, and read out by a max tree
 * over the neuron potentials. This class is the bit-accurate software
 * model of that datapath, built from a trained SnnNetwork.
 */

#pragma once

#include <cstdint>
#include <vector>

namespace neuro {
namespace snn {

class SnnNetwork;

/** Bit-accurate integer model of the SNNwot accelerator datapath. */
class SnnWotDatapath
{
  public:
    /** Quantize the trained network's weights to 8-bit (0..255). */
    explicit SnnWotDatapath(const SnnNetwork &net);

    /** @return the number of inputs. */
    std::size_t numInputs() const { return numInputs_; }
    /** @return the number of neurons. */
    std::size_t numNeurons() const { return numNeurons_; }

    /**
     * The shifter/adder multiplier: computes count*weight from the 4-bit
     * count decomposition, exactly as the hardware does.
     */
    static uint32_t shiftMultiply(uint8_t count, uint8_t weight);

    /**
     * Evaluate all neuron potentials for one image's spike counts and
     * return the max-tree winner.
     *
     * @param counts      numInputs() 4-bit spike counts.
     * @param potentials  optional sink for the integer potentials.
     */
    int forward(const uint8_t *counts,
                std::vector<uint32_t> *potentials = nullptr) const;

    /** @return quantized weight of (neuron, input). */
    uint8_t weight(std::size_t neuron, std::size_t input) const;

    /** Overwrite one quantized weight (fault injection / tests). */
    void setWeight(std::size_t neuron, std::size_t input, uint8_t value);

    /** @return total weight count (fault-injection address space). */
    std::size_t totalWeights() const { return weights_.size(); }

    /** @return raw weight at flat index. */
    uint8_t weightAt(std::size_t idx) const;

    /** Overwrite the raw weight at flat index. */
    void setWeightAt(std::size_t idx, uint8_t value);

  private:
    std::size_t numInputs_ = 0;
    std::size_t numNeurons_ = 0;
    std::vector<uint8_t> weights_; ///< numNeurons x numInputs.
};

} // namespace snn
} // namespace neuro

