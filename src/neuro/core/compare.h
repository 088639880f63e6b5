/**
 * @file
 * Joint accuracy/hardware comparisons: the Table 7 row generator shared
 * by benches and tests, the iso-accuracy MLP sizing of Section 4.2.3
 * (shrink the MLP until it matches the SNN's accuracy, then compare
 * areas), and area/energy ratio helpers for the Section 4.5 validation.
 */

#pragma once

#include <string>
#include <vector>

#include "neuro/core/experiment.h"
#include "neuro/hw/folded.h"

namespace neuro {
namespace core {

/** One row of a Table 7-style design summary. */
struct DesignRow
{
    std::string type;       ///< "SNNwot", "SNNwt" or "MLP".
    std::string ni;         ///< "1".."16" or "expanded".
    double areaNoSramMm2;   ///< logic area.
    double totalAreaMm2;    ///< logic + SRAM.
    double delayNs;         ///< clock period.
    double energyUj;        ///< energy per image.
    uint64_t cycles;        ///< cycles per image.
};

/** Generate the Table 7 rows for a workload's topologies (SNNwt over
 *  the 500-step presentation window). */
std::vector<DesignRow> makeTable7Rows(const hw::MlpTopology &mlp_topo,
                                      const hw::SnnTopology &snn_topo);

/** Iso-accuracy sizing result (Section 4.2.3). */
struct IsoAccuracyResult
{
    double snnAccuracy = 0;      ///< reference SNN accuracy.
    std::size_t mlpHidden = 0;   ///< smallest matching hidden size.
    double mlpAccuracy = 0;      ///< accuracy at that size.
    double mlpAreaMm2 = 0;       ///< expanded MLP area at that size.
    double snnWtAreaMm2 = 0;     ///< expanded SNNwt area.
    double snnWotAreaMm2 = 0;    ///< expanded SNNwot area.
};

/**
 * Shrink the MLP hidden layer over @p candidate_sizes (ascending) until
 * its accuracy reaches the SNN+STDP accuracy on the workload, then
 * compare expanded areas.
 */
IsoAccuracyResult
isoAccuracyComparison(const Workload &workload, double snn_accuracy,
                      const std::vector<std::size_t> &candidate_sizes,
                      uint64_t seed = 31);

/** Folded SNNwot-vs-MLP cost ratios for one workload (Section 4.5). */
struct FoldedRatio
{
    std::size_t ni = 0;    ///< fold factor.
    double areaRatio = 0;  ///< SNNwot area / MLP area.
    double energyRatio = 0;///< SNNwot energy / MLP energy.
};

/** Compute area/energy ratios for each fold factor. */
std::vector<FoldedRatio>
foldedCostRatios(const hw::MlpTopology &mlp_topo,
                 const hw::SnnTopology &snn_topo,
                 const std::vector<std::size_t> &fold_factors);

} // namespace core
} // namespace neuro

