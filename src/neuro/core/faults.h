/**
 * @file
 * Synaptic-fault injection: stuck-at and bit-flip faults in the
 * quantized weight storage of both accelerators, measuring graceful
 * degradation. Neural-network fault tolerance is the premise of the
 * accelerator line the paper builds on (Temam, ISCA 2012 [6]); this
 * module quantifies it for the two datapaths compared here.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "neuro/datasets/dataset.h"
#include "neuro/mlp/quantized.h"
#include "neuro/snn/network.h"

namespace neuro {

class Rng;

namespace core {

/** Supported fault models on the 8-bit weight words. */
enum class FaultModel
{
    StuckAtZero, ///< whole weight word reads 0.
    StuckAtOne,  ///< whole weight word reads all-ones.
    BitFlip,     ///< one random bit of the word is inverted.
};

/** @return printable name of @p model. */
const char *faultModelName(FaultModel model);

/** One point of a fault sweep. */
struct FaultSweepPoint
{
    double faultRate = 0; ///< fraction of weight words faulted.
    double accuracy = 0;  ///< resulting test accuracy.
};

/**
 * Inject faults into a fresh quantized copy of @p net at each rate and
 * evaluate on @p data.
 */
std::vector<FaultSweepPoint>
mlpFaultSweep(const mlp::Mlp &net, const datasets::Dataset &data,
              const std::vector<double> &rates, FaultModel model,
              uint64_t seed);

/**
 * Inject faults into a fresh SNNwot datapath built from @p net,
 * evaluating with the given neuron labels through snn::evaluateWot()
 * (the EvalMode::Wot readout).
 */
std::vector<FaultSweepPoint>
snnFaultSweep(const snn::SnnNetwork &net, const std::vector<int> &labels,
              const datasets::Dataset &data,
              const std::vector<double> &rates, FaultModel model,
              uint64_t seed);

} // namespace core
} // namespace neuro

