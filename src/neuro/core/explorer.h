/**
 * @file
 * Design-space exploration (the paper's "1000 evaluated settings" of
 * Section 3.1): topology sweeps for Figure 8, sigmoid-slope sweeps for
 * Figure 6 and coding-scheme sweeps for Figure 14.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "neuro/core/experiment.h"
#include "neuro/snn/coding.h"

namespace neuro {
namespace core {

/** One sweep sample: a parameter value and the accuracy it achieved. */
struct SweepPoint
{
    double parameter = 0; ///< swept value (#neurons, slope a, ...).
    double accuracy = 0;  ///< test accuracy in [0,1].
};

/** Figure 8, MLP series: accuracy vs number of hidden neurons. */
std::vector<SweepPoint>
sweepMlpHidden(const Workload &workload,
               const std::vector<std::size_t> &hidden_sizes,
               uint64_t seed = 21);

/** Figure 8, SNN series: accuracy vs number of output neurons
 *  (SNN+STDP, wt forward path). */
std::vector<SweepPoint>
sweepSnnNeurons(const Workload &workload,
                const std::vector<std::size_t> &neuron_counts,
                uint64_t seed = 22);

/** Figure 6: MLP error rate vs parameterized-sigmoid slope a, plus the
 *  step function as the limit point (appended with parameter = 0). */
std::vector<SweepPoint>
sweepSigmoidSlope(const Workload &workload,
                  const std::vector<double> &slopes, uint64_t seed = 23);

/** Figure 14: SNN accuracy per coding scheme and network size. */
struct CodingSweepPoint
{
    snn::CodingScheme scheme;   ///< coding scheme.
    std::size_t neurons = 0;    ///< network size.
    double accuracy = 0;        ///< test accuracy.
};

std::vector<CodingSweepPoint>
sweepCodingSchemes(const Workload &workload,
                   const std::vector<snn::CodingScheme> &schemes,
                   const std::vector<std::size_t> &neuron_counts,
                   uint64_t seed = 24);

} // namespace core
} // namespace neuro

