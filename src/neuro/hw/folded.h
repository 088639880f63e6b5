/**
 * @file
 * Spatially folded accelerator designs (Section 4.3): hardware neurons
 * are time-shared, each processing ni inputs per cycle with weights
 * streamed from single-port SRAM. These are the designs of Table 6
 * (SRAM), Table 7 (area/delay/energy/cycles vs ni) and Figure 9/10/11.
 */

#pragma once

#include "neuro/hw/design.h"
#include "neuro/hw/expanded.h"

namespace neuro {
namespace hw {

/**
 * Cycles per image of the folded MLP: each layer needs
 * ceil(N_inputs/ni) accumulation cycles plus one activation cycle
 * (Section 4.3.1; the paper's published counts differ by at most two
 * cycles of pipeline-boundary bookkeeping).
 */
uint64_t foldedMlpCycles(const MlpTopology &topo, std::size_t ni);

/** Cycles per image of the folded SNNwot: ceil(inputs/ni) accumulation
 *  plus a 7-cycle pipeline epilogue (convert, drain, two max levels,
 *  readout), matching the paper's 791/203/105/56 sequence. */
uint64_t foldedSnnWotCycles(const SnnTopology &topo, std::size_t ni);

/** Cycles per image of the folded SNNwt: the SNNwot count repeated for
 *  every 1 ms step of the presentation window. */
uint64_t foldedSnnWtCycles(const SnnTopology &topo, std::size_t ni,
                           int period_cycles);

/** Folded MLP accelerator (Figures 10 and 11). */
Design buildFoldedMlp(const MlpTopology &topo, std::size_t ni);

/**
 * Folded MLP with a bounded pool of hardware neurons: the fuller form
 * of Section 4.3's time-sharing ("the principle is to time-share a few
 * hardware neurons between the many logical neurons"). Each layer is
 * processed in ceil(logical / hw_neurons) passes; the paper's Table 7
 * design is the hw_neurons >= hidden special case.
 *
 * @param hw_neurons hardware neuron pool size (>= 1).
 */
Design buildFoldedMlpPooled(const MlpTopology &topo, std::size_t ni,
                            std::size_t hw_neurons);

/** Cycles per image of the pooled folded MLP. */
uint64_t foldedMlpPooledCycles(const MlpTopology &topo, std::size_t ni,
                               std::size_t hw_neurons);

/** Folded SNNwot accelerator (Section 4.3.2). */
Design buildFoldedSnnWot(const SnnTopology &topo, std::size_t ni);

/** Folded SNNwt accelerator (Section 4.3.2): emulates the whole
 *  presentation sequence in @p period_cycles 1 ms steps. */
Design buildFoldedSnnWt(const SnnTopology &topo, std::size_t ni,
                        int period_cycles = 500);

} // namespace hw
} // namespace neuro

