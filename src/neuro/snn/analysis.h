/**
 * @file
 * Analysis of trained networks: per-neuron class selectivity, which
 * quantifies the specialization STDP + homeostasis produce (the Figure 3
 * "different thresholds / one specialist fires" story).
 */

#pragma once

#include <vector>

#include "neuro/datasets/dataset.h"
#include "neuro/snn/network.h"

namespace neuro {
namespace snn {

/** Per-neuron specialization measurements. */
struct SelectivityReport
{
    /** Mean SNNwot datapath potential per (neuron, class):
     *  response[n * numClasses + c]. */
    std::vector<double> response;
    /** Class each neuron responds most to. */
    std::vector<int> preferredClass;
    /** Selectivity index in [0,1]: 1 - mean(other classes)/best. */
    std::vector<double> selectivity;
    int numClasses = 0;
};

/**
 * Probe @p net with (up to @p max_samples of) @p data through its
 * SNNwot datapath and measure each neuron's class tuning from the
 * integer potentials.
 */
SelectivityReport neuronSelectivity(const SnnNetwork &net,
                                    const datasets::Dataset &data,
                                    std::size_t max_samples = 2000);

} // namespace snn
} // namespace neuro

