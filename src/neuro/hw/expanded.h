/**
 * @file
 * Spatially expanded accelerator designs (Section 4.2): every logical
 * neuron and synapse is mapped to dedicated hardware. These are the
 * designs of Table 4 (operator breakdown), Table 5 (small 4x4 layouts)
 * and the "expanded" rows of Table 7. Builders are parameterized by
 * topology so the MNIST, MPEG-7 and SAD variants all come from the same
 * composition rules.
 */

#pragma once

#include <cstdint>

#include "neuro/hw/design.h"

namespace neuro {
namespace hw {

/** MLP topology for hardware builders. */
struct MlpTopology
{
    std::size_t inputs = 784;  ///< input pixels.
    std::size_t hidden = 100;  ///< hidden-layer neurons.
    std::size_t outputs = 10;  ///< output neurons.

    /** @return synaptic weight count, biases included. */
    uint64_t
    weightCount() const
    {
        return static_cast<uint64_t>(inputs + 1) * hidden +
               static_cast<uint64_t>(hidden + 1) * outputs;
    }
};

/** SNN topology for hardware builders. */
struct SnnTopology
{
    std::size_t inputs = 784;   ///< input pixels.
    std::size_t neurons = 300;  ///< output LIF neurons.

    /** @return synaptic weight count (excitatory inputs only). */
    uint64_t
    weightCount() const
    {
        return static_cast<uint64_t>(inputs) * neurons;
    }
};

/**
 * Build the two-level max tree of the SNN readout: groups of up to 20
 * potentials feed first-level max operators whose winners feed a final
 * max (15 x 20-input + 1 x 15-input for 300 neurons).
 */
void addReadoutMaxTree(Design &design, std::size_t neurons, int bits);

/** Spatially expanded MLP (Figure 2 / Table 4). */
Design buildExpandedMlp(const MlpTopology &topo);

/** Spatially expanded SNN without timing (Figure 7 / Table 4). */
Design buildExpandedSnnWot(const SnnTopology &topo);

/**
 * Spatially expanded SNN with timing: per-pixel Gaussian spike-interval
 * generators, per-neuron integration with leak, one cycle per 1 ms step
 * of the 500 ms presentation window (Table 4 / Table 7 "expanded").
 */
Design buildExpandedSnnWt(const SnnTopology &topo);

} // namespace hw
} // namespace neuro

