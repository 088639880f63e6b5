/**
 * @file
 * Online-learning (STDP) hardware (Section 4.4, Figures 12 and 13): the
 * folded SNNwt datapath augmented per neuron with the STDP circuit — a
 * finite-state machine tracking time since the last output spike,
 * refractory and inhibitory counters, the LTP-window comparator driving
 * +/-1 weight updates, the piecewise-linear leak unit, and the
 * homeostasis counters (plus one global epoch counter). Table 9 reports
 * the resulting overhead vs the inference-only SNNwt.
 */

#pragma once

#include "neuro/hw/folded.h"

namespace neuro {
namespace hw {

/**
 * Folded SNNwt with the online-learning STDP circuit.
 *
 * @param topo            network topology.
 * @param ni              inputs streamed per cycle.
 * @param period_cycles   1 ms steps per presentation.
 * @param updates_per_image average synaptic updates per image (for the
 *                        energy model; one firing updates all inputs).
 */
Design buildFoldedSnnStdp(const SnnTopology &topo, std::size_t ni,
                          int period_cycles = 500,
                          uint64_t updates_per_image = 784);

/** Overhead summary of STDP vs the inference-only design. */
struct StdpOverhead
{
    double areaRatio = 0;   ///< total area, learning / inference.
    double delayRatio = 0;  ///< clock period ratio.
    double energyRatio = 0; ///< per-image energy ratio.
};

/** Compute the Table 9 overhead ratios for a given configuration. */
StdpOverhead stdpOverhead(const SnnTopology &topo, std::size_t ni,
                          int period_cycles = 500);

} // namespace hw
} // namespace neuro

