/**
 * @file
 * Design-space enumeration and Pareto analysis: every accelerator this
 * library can build for a workload (expanded / folded x fold factor x
 * hardware-neuron pool), reduced to the area/energy/latency frontier —
 * the view an embedded-system architect (the paper's stated audience)
 * actually selects from.
 */

#pragma once

#include <string>
#include <vector>

#include "neuro/hw/expanded.h"
#include "neuro/hw/folded.h"

namespace neuro {
namespace hw {

/** One candidate design's selection metrics. */
struct DesignPoint
{
    std::string label;     ///< e.g. "MLP folded ni=4".
    double areaMm2 = 0;    ///< total area.
    double energyUj = 0;   ///< energy per image.
    double latencyNs = 0;  ///< time per image.

    /** @return true if this point dominates @p other (no worse on all
     *  three metrics, strictly better on at least one). */
    bool dominates(const DesignPoint &other) const;
};

/**
 * Build every candidate design for the topologies: for each fold
 * factor ni in {1, 2, 4, 8, 16, 32}, the folded MLP, SNNwot and SNNwt
 * (500-step window) and the MLP with 25- and 50-neuron pools; then the
 * three expanded designs. Points come back in that order.
 */
std::vector<DesignPoint> enumerateDesigns(const MlpTopology &mlp,
                                          const SnnTopology &snn);

/**
 * @return indices of the non-dominated points, sorted by area.
 * Deterministic: ties keep the earlier point.
 */
std::vector<std::size_t>
paretoFrontier(const std::vector<DesignPoint> &points);

} // namespace hw
} // namespace neuro

