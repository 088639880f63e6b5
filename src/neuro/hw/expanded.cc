#include "neuro/hw/expanded.h"

#include <algorithm>

#include "neuro/common/logging.h"

namespace neuro {
namespace hw {

namespace {

/** Expanded-design synaptic storage: wide flat access, one "bank". */
SramArray
makeExpandedStorage(const std::string &name, uint64_t weight_bits_total,
                    uint64_t reads_per_image)
{
    SramArray array;
    array.name = name;
    array.numBanks = 1;
    array.bank.widthBits = 128;
    array.bank.depth = static_cast<std::size_t>(
        (weight_bits_total + 127) / 128);
    array.bank.areaUm2 = static_cast<double>(weight_bits_total) *
                         kTech.expandedSramAreaPerBitUm2;
    // A "read" here is a full-width fetch of every weight.
    array.bank.readEnergyPj = static_cast<double>(weight_bits_total) *
                              kTech.expandedSramEnergyPerBitPj;
    array.readsPerImage = reads_per_image;
    return array;
}

} // namespace

void
addReadoutMaxTree(Design &design, std::size_t neurons, int bits)
{
    // First level: groups of up to 20 inputs; second level: one max over
    // the group winners (the paper's 15x20 + 1x15 structure for 300).
    constexpr std::size_t group = 20;
    const std::size_t full_groups = neurons / group;
    const std::size_t rem = neurons % group;
    if (full_groups > 0) {
        design.addOperators(makeMaxTree(group, bits), full_groups,
                            full_groups);
    }
    if (rem > 1)
        design.addOperators(makeMaxTree(rem, bits), 1, 1);
    const std::size_t winners = full_groups + (rem > 0 ? 1 : 0);
    if (winners > 1)
        design.addOperators(makeMaxTree(winners, bits), 1, 1);
}

Design
buildExpandedMlp(const MlpTopology &topo)
{
    NEURO_ASSERT(topo.inputs > 0 && topo.hidden > 0 && topo.outputs > 0,
                 "empty topology");
    Design design("expanded MLP");

    // One multiplier per synapse (biases included), Table 4's dominant
    // cost.
    const uint64_t mults = topo.weightCount();
    design.addOperators(makeMultiplier(8),
                        static_cast<std::size_t>(mults), mults);
    // One adder tree per neuron.
    design.addOperators(makeAdderTree(topo.inputs, 8), topo.hidden,
                        topo.hidden);
    design.addOperators(makeAdderTree(topo.hidden, 8), topo.outputs,
                        topo.outputs);
    // Sigmoid coefficient tables per neuron.
    design.addOperators(makeSigmoidUnit(), topo.hidden + topo.outputs,
                        topo.hidden + topo.outputs);
    // Pipeline registers: layer activations.
    design.addRegisterBits(
        8.0 * static_cast<double>(topo.inputs + topo.hidden +
                                  topo.outputs));

    design.addSram(makeExpandedStorage("weights (flat)",
                                       mults * 8, 1));

    // Whole-layer combinational stage: multiplier + adder tree +
    // sigmoid (paper: 3.79 ns).
    const double clock = kTech.multDelayNs +
        kTech.treeDelayPerLevelNs *
            static_cast<double>(log2Ceil(topo.inputs)) +
        kTech.sigmoidDelayNs;
    design.setClockNs(clock);
    design.setCyclesPerImage(4); // latch-in, hidden, output, latch-out.
    return design;
}

Design
buildExpandedSnnWot(const SnnTopology &topo)
{
    NEURO_ASSERT(topo.inputs > 0 && topo.neurons > 0, "empty topology");
    Design design("expanded SNNwot");

    // Pixel-to-spike-count converters, one per input (Figure 7).
    design.addOperators(makeConvertor(), topo.inputs, topo.inputs);
    // Per-neuron weighted-spike adder tree: 12-bit products (8-bit
    // weight x 4-bit count) plus per-input shift-decode cells.
    design.addOperators(makeAdderTree(topo.inputs, 12), topo.neurons,
                        topo.neurons);
    design.addOperators(makeSpikeDecode(), topo.inputs * topo.neurons,
                        topo.inputs * topo.neurons);
    // Readout max tree over the 24-bit potentials.
    addReadoutMaxTree(design, topo.neurons, 24);
    design.addRegisterBits(
        4.0 * static_cast<double>(topo.inputs) + // spike counts
        24.0 * static_cast<double>(topo.neurons)); // potentials

    design.addSram(makeExpandedStorage("weights (flat)",
                                       topo.weightCount() * 8, 1));

    // Convertor stage + decode + the wide tree over the 4 partial
    // products per input (paper: 3.17 ns).
    const double clock = 0.35 + kTech.spikeDecodeDelayNs +
        kTech.treeDelayPerLevelNs *
            static_cast<double>(log2Ceil(topo.inputs * 4));
    design.setClockNs(clock);
    design.setCyclesPerImage(3); // convert, accumulate, max (3-stage).
    return design;
}

Design
buildExpandedSnnWt(const SnnTopology &topo)
{
    NEURO_ASSERT(topo.inputs > 0 && topo.neurons > 0, "empty topology");
    Design design("expanded SNNwt");
    const uint64_t cycles = 500; // 1 ms steps per presentation.

    // One Gaussian inter-spike-interval generator per input pixel.
    design.addOperators(makeGaussianRng(), topo.inputs, topo.inputs * cycles);
    // Per-neuron 8-bit adder tree, active every 1 ms step.
    design.addOperators(makeAdderTree(topo.inputs, 8), topo.neurons,
                        topo.neurons * cycles);
    // Per-neuron LIF machinery (leak, threshold compare, gating).
    design.addOperators(makeLifExtras(topo.inputs), topo.neurons,
                        topo.neurons * cycles);
    design.addRegisterBits(
        24.0 * static_cast<double>(topo.neurons) + // potentials
        8.0 * static_cast<double>(topo.inputs));   // interval counters

    // Weights fetched every step.
    design.addSram(makeExpandedStorage("weights (flat)",
                                       topo.weightCount() * 8, cycles));

    const double clock = kTech.treeDelayPerLevelNs *
            static_cast<double>(log2Ceil(topo.inputs)) +
        kTech.cmpDelayNs + kTech.regDelayNs;
    design.setClockNs(clock);
    design.setCyclesPerImage(cycles); // one cycle per simulated ms.
    return design;
}

} // namespace hw
} // namespace neuro
