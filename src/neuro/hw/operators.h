/**
 * @file
 * Operator-level building blocks of the accelerator designs: each
 * factory returns an OperatorSpec with area/energy/delay derived from
 * the technology library (kTech), mirroring the operator inventory of
 * Table 4 (adder trees, multipliers, max trees, Gaussian random
 * generators) plus the support logic of the folded designs (registers,
 * converters, sigmoid units, LIF extras, STDP logic).
 */

#pragma once

#include <cstdint>
#include <string>

#include "neuro/hw/tech.h"

namespace neuro {
namespace hw {

/** One hardware operator's physical characteristics. */
struct OperatorSpec
{
    std::string name;     ///< e.g. "adder tree (784x8b)".
    double areaUm2 = 0;   ///< layout area.
    double energyPj = 0;  ///< energy per operation.
    double delayNs = 0;   ///< critical-path contribution.
};

/** A group of identical operator instances within a design. */
struct OperatorGroup
{
    OperatorSpec spec;       ///< the operator.
    std::size_t count = 0;   ///< instances in the design.
    /** Operations executed per processed image (for energy). */
    uint64_t opsPerImage = 0;

    /** @return total area of the group in um^2. */
    double totalAreaUm2() const
    {
        return spec.areaUm2 * static_cast<double>(count);
    }
    /** @return energy per image in pJ. */
    double energyPerImagePj() const
    {
        return spec.energyPj * static_cast<double>(opsPerImage);
    }
};

/** Balanced adder tree over @p num_inputs operands of @p bits bits. */
OperatorSpec makeAdderTree(std::size_t num_inputs, int bits);

/** @p bits x @p bits multiplier (area scales quadratically from 8x8). */
OperatorSpec makeMultiplier(int bits);

/** Max (comparator) tree over @p num_inputs values of @p bits bits. */
OperatorSpec makeMaxTree(std::size_t num_inputs, int bits);

/** Gaussian pseudo-random generator (4 x 31-bit LFSR, CLT). */
OperatorSpec makeGaussianRng();

/** Register bank of @p bits bits. */
OperatorSpec makeRegister(int bits);

/** Pixel-to-spike-count convertor channel (Figure 7). */
OperatorSpec makeConvertor();

/** Spike-decode cell: shifters + partial products for one input. */
OperatorSpec makeSpikeDecode();

/** Piecewise-linear sigmoid unit (multiplier + adder + table). */
OperatorSpec makeSigmoidUnit();

/** Per-neuron LIF extras: leak unit, threshold compare, gating; the
 *  per-input bookkeeping scales with @p inputs. */
OperatorSpec makeLifExtras(std::size_t inputs);

/** Per-neuron folded-datapath control FSM. */
OperatorSpec makeNeuronControl();

/** Folded SNNwot per-neuron lane buffering/readout (Table 7 fit). */
OperatorSpec makeWotLaneBuffers(std::size_t ni);

/** Folded SNNwt per-neuron extras: compare + leak slice + gating
 *  (Table 7 fit). */
OperatorSpec makeWtFoldedExtras(std::size_t ni);

/** STDP per-neuron fixed circuit (Section 4.4 / Figure 13). */
OperatorSpec makeStdpFixed();

/** STDP per-input circuit (spike-time register, LTP compare, +/-1). */
OperatorSpec makeStdpPerInput(std::size_t inputs);

} // namespace hw
} // namespace neuro

