/**
 * @file
 * Large-scale crossover study (the paper's closing conclusion: "Only
 * for very large-scale implementations, SNNs could become more
 * attractive (area, delay, energy and power, but still not accuracy)
 * than machine-learning models").
 *
 * For a sweep of network scales this module builds both accelerators in
 * both styles and reports who wins each metric, locating the crossover
 * scale where the multiplier-free SNN datapath overtakes the MLP in
 * silicon.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "neuro/hw/expanded.h"
#include "neuro/hw/folded.h"

namespace neuro {
namespace hw {

/** One network scale to evaluate. */
struct ScalePoint
{
    std::size_t inputs = 0;     ///< input count.
    std::size_t mlpHidden = 0;  ///< MLP hidden neurons.
    std::size_t mlpOutputs = 0; ///< MLP outputs.
    std::size_t snnNeurons = 0; ///< SNN neurons.
};

/** Both designs' key metrics at one scale. */
struct ScaleComparison
{
    ScalePoint scale;          ///< the evaluated configuration.
    double mlpExpandedMm2 = 0; ///< expanded MLP total area.
    double snnExpandedMm2 = 0; ///< expanded SNNwot total area.
    double mlpFoldedMm2 = 0;   ///< folded MLP total area (ni = 16).
    double snnFoldedMm2 = 0;   ///< folded SNNwot total area (ni = 16).
    double mlpExpandedNsPerImage = 0; ///< expanded MLP latency.
    double snnExpandedNsPerImage = 0; ///< expanded SNNwot latency.
    double mlpExpandedUj = 0;  ///< expanded MLP energy/image.
    double snnExpandedUj = 0;  ///< expanded SNNwot energy/image.

    /** @return true if the expanded SNN is smaller than the MLP. */
    bool
    snnWinsExpandedArea() const
    {
        return snnExpandedMm2 < mlpExpandedMm2;
    }
    /** @return true if the folded SNN is smaller than the MLP. */
    bool
    snnWinsFoldedArea() const
    {
        return snnFoldedMm2 < mlpFoldedMm2;
    }
};

/**
 * Evaluate both designs at every scale.
 * Scales keep the paper's shape (SNN needs ~3x the MLP's hidden
 * neurons for its best accuracy) while growing the problem size.
 */
std::vector<ScaleComparison>
scalingStudy(const std::vector<ScalePoint> &scales,
             const TechParams &tech = defaultTech());

/** The default scale ladder: MNIST-sized up to 64x larger. */
std::vector<ScalePoint> defaultScaleLadder();

} // namespace hw
} // namespace neuro

