#include "neuro/hw/folded.h"

#include <algorithm>

#include "neuro/common/logging.h"

namespace neuro {
namespace hw {

namespace {

uint64_t
ceilDiv(uint64_t a, uint64_t b)
{
    return (a + b - 1) / b;
}

} // namespace

uint64_t
foldedMlpCycles(const MlpTopology &topo, std::size_t ni)
{
    // Hidden layer streams inputs (bias folded into the last chunk),
    // then one activation cycle; same for the output layer.
    return ceilDiv(topo.inputs, ni) + 1 + ceilDiv(topo.hidden, ni) + 1;
}

uint64_t
foldedSnnWotCycles(const SnnTopology &topo, std::size_t ni)
{
    // Accumulation chunks + 7-cycle epilogue: spike conversion (1),
    // pipeline drain (2), two max-tree levels (2), readout (2).
    return ceilDiv(topo.inputs, ni) + 7;
}

uint64_t
foldedSnnWtCycles(const SnnTopology &topo, std::size_t ni,
                  int period_cycles)
{
    return foldedSnnWotCycles(topo, ni) *
           static_cast<uint64_t>(period_cycles);
}

Design
buildFoldedMlp(const MlpTopology &topo, std::size_t ni)
{
    NEURO_ASSERT(ni > 0, "fold factor must be positive");
    Design design("folded MLP");
    const std::size_t neurons = topo.hidden + topo.outputs;
    const uint64_t macs = topo.weightCount();

    // Per-neuron datapath (Figure 11): ni multipliers, a small adder
    // tree over the products plus the accumulator, the sigmoid table.
    design.addOperators(makeMultiplier(8), neurons * ni, macs);
    const uint64_t tree_ops =
        topo.hidden * (ceilDiv(topo.inputs, ni) + 1) +
        topo.outputs * (ceilDiv(topo.hidden, ni) + 1);
    design.addOperators(makeAdderTree(ni + 1, 16), neurons, tree_ops);
    design.addOperators(makeSigmoidUnit(), neurons, neurons);
    design.addOperators(makeNeuronControl(), neurons, neurons);
    // Buffers: ni inputs + ni weights (8b each), 24b accumulator, 8b
    // output register per neuron.
    design.addRegisterBits(static_cast<double>(neurons) *
                           (2.0 * 8.0 * static_cast<double>(ni) + 24.0 +
                            8.0));

    // Synaptic SRAM (Table 6 geometry): hidden banks read once per
    // input chunk, output banks once per hidden chunk.
    const uint64_t hidden_chunks = ceilDiv(topo.inputs, ni);
    const uint64_t output_chunks = ceilDiv(topo.hidden, ni);
    SramArray hidden_sram =
        makeSynapticStorage("hidden weights", topo.hidden, topo.inputs, ni);
    hidden_sram.readsPerImage = hidden_sram.numBanks * hidden_chunks;
    design.addSram(std::move(hidden_sram));
    SramArray output_sram =
        makeSynapticStorage("output weights", topo.outputs, topo.hidden, ni);
    output_sram.readsPerImage = output_sram.numBanks * output_chunks;
    design.addSram(std::move(output_sram));

    // Cycle: SRAM word fetch + multiplier (the products enter the
    // accumulator in carry-save form, so the small tree adds little).
    design.setClockNs(kTech.sramAccessNs + kTech.multDelayNs +
                      kTech.regDelayNs +
                      0.05 * static_cast<double>(log2Ceil(ni)));
    design.setCyclesPerImage(foldedMlpCycles(topo, ni));
    return design;
}

uint64_t
foldedMlpPooledCycles(const MlpTopology &topo, std::size_t ni,
                      std::size_t hw_neurons)
{
    NEURO_ASSERT(ni > 0 && hw_neurons > 0, "degenerate fold");
    // Each pass computes up to hw_neurons logical neurons; a layer of
    // N logical neurons needs ceil(N / hw) passes of
    // (ceil(inputs / ni) + 1) cycles.
    const uint64_t hidden_passes = ceilDiv(topo.hidden, hw_neurons);
    const uint64_t output_passes = ceilDiv(topo.outputs, hw_neurons);
    return hidden_passes * (ceilDiv(topo.inputs, ni) + 1) +
           output_passes * (ceilDiv(topo.hidden, ni) + 1);
}

Design
buildFoldedMlpPooled(const MlpTopology &topo, std::size_t ni,
                     std::size_t hw_neurons)
{
    NEURO_ASSERT(ni > 0 && hw_neurons > 0, "degenerate fold");
    Design design("folded MLP (pooled)");
    const std::size_t pool =
        std::min(hw_neurons, std::max(topo.hidden, topo.outputs));
    const uint64_t macs = topo.weightCount();

    design.addOperators(makeMultiplier(8), pool * ni, macs);
    const uint64_t tree_ops =
        ceilDiv(topo.hidden, pool) * pool *
            (ceilDiv(topo.inputs, ni) + 1) +
        ceilDiv(topo.outputs, pool) * pool *
            (ceilDiv(topo.hidden, ni) + 1);
    design.addOperators(makeAdderTree(ni + 1, 16), pool, tree_ops);
    design.addOperators(makeSigmoidUnit(), pool, topo.hidden + topo.outputs);
    design.addOperators(makeNeuronControl(), pool, pool);
    // Logical-neuron state (partial sums of the pass in flight plus
    // layer activations) lives in registers next to the pool.
    design.addRegisterBits(
        static_cast<double>(pool) *
            (2.0 * 8.0 * static_cast<double>(ni) + 24.0 + 8.0) +
        8.0 * static_cast<double>(topo.hidden + topo.outputs));

    // The SRAM still stores every synapse; ports sized as usual. All
    // banks of a layer are read once per chunk of each pass.
    const uint64_t hidden_reads =
        ceilDiv(topo.hidden, pool) * ceilDiv(topo.inputs, ni);
    SramArray hidden_sram = makeSynapticStorage(
        "hidden weights", std::min(pool, topo.hidden), topo.inputs, ni);
    // Bank count must cover the *storage*, not just the pool's ports:
    // scale depth-equivalent banks by the pass count.
    hidden_sram.numBanks *= ceilDiv(topo.hidden, pool);
    hidden_sram.readsPerImage = hidden_sram.numBanks * hidden_reads /
        ceilDiv(topo.hidden, pool);
    design.addSram(std::move(hidden_sram));
    SramArray output_sram = makeSynapticStorage(
        "output weights", std::min(pool, topo.outputs), topo.hidden, ni);
    output_sram.numBanks *= ceilDiv(topo.outputs, pool);
    output_sram.readsPerImage = output_sram.numBanks *
        ceilDiv(topo.hidden, ni) / ceilDiv(topo.outputs, pool);
    design.addSram(std::move(output_sram));

    design.setClockNs(kTech.sramAccessNs + kTech.multDelayNs +
                      kTech.regDelayNs +
                      0.05 * static_cast<double>(log2Ceil(ni)));
    design.setCyclesPerImage(
        foldedMlpPooledCycles(topo, ni, pool));
    return design;
}

Design
buildFoldedSnnWot(const SnnTopology &topo, std::size_t ni)
{
    NEURO_ASSERT(ni > 0, "fold factor must be positive");
    Design design("folded SNNwot");
    const uint64_t chunks = ceilDiv(topo.inputs, ni);

    // ni pixel-to-count converter channels shared by all neurons.
    design.addOperators(makeConvertor(), ni, topo.inputs);
    // Per-neuron: ni spike-decode cells and a 12-bit adder tree over
    // ni weighted inputs plus the 24-bit accumulator.
    design.addOperators(makeSpikeDecode(), topo.neurons * ni,
                        static_cast<uint64_t>(topo.neurons) * topo.inputs);
    design.addOperators(makeAdderTree(ni + 1, 12), topo.neurons,
                        topo.neurons * chunks);
    design.addOperators(makeWotLaneBuffers(ni), topo.neurons,
                        topo.neurons * chunks);
    design.addOperators(makeNeuronControl(), topo.neurons, topo.neurons);
    addReadoutMaxTree(design, topo.neurons, 24);
    design.addRegisterBits(static_cast<double>(topo.neurons) *
                               (8.0 * static_cast<double>(ni) +
                                4.0 * static_cast<double>(ni) + 24.0) +
                           4.0 * static_cast<double>(topo.inputs));

    SramArray sram =
        makeSynapticStorage("weights", topo.neurons, topo.inputs, ni);
    sram.readsPerImage = sram.numBanks * chunks;
    design.addSram(std::move(sram));

    design.setClockNs(kTech.sramAccessNs + kTech.spikeDecodeDelayNs +
                      kTech.foldedTreeDelayPerLevelNs *
                          static_cast<double>(log2Ceil(ni * 4)) +
                      kTech.regDelayNs);
    design.setCyclesPerImage(foldedSnnWotCycles(topo, ni));
    return design;
}

Design
buildFoldedSnnWt(const SnnTopology &topo, std::size_t ni,
                 int period_cycles)
{
    NEURO_ASSERT(ni > 0, "fold factor must be positive");
    NEURO_ASSERT(period_cycles > 0, "period must be positive");
    Design design("folded SNNwt");
    const auto period = static_cast<uint64_t>(period_cycles);
    const uint64_t chunks = ceilDiv(topo.inputs, ni);
    const uint64_t steps = chunks * period;

    // ni shared spike generators (Gaussian interval RNG + counter);
    // per-pixel counters live in registers.
    design.addOperators(makeGaussianRng(), ni, topo.inputs * period);
    // Per-neuron: ni-input 8-bit adder tree + accumulator + threshold
    // compare + leak/gating extras (scaled to ni streamed inputs).
    design.addOperators(makeAdderTree(ni + 1, 8), topo.neurons,
                        topo.neurons * steps);
    design.addOperators(makeWtFoldedExtras(ni), topo.neurons,
                        topo.neurons * period);
    design.addRegisterBits(static_cast<double>(topo.neurons) *
                               (8.0 * static_cast<double>(ni) + 24.0) +
                           8.0 * static_cast<double>(topo.inputs));

    SramArray sram =
        makeSynapticStorage("weights", topo.neurons, topo.inputs, ni);
    sram.readsPerImage = sram.numBanks * steps;
    design.addSram(std::move(sram));

    // The narrow 8-bit adds largely overlap the SRAM access; only a
    // shallow residual tree term remains on the path (the published
    // SNNwt delays are nearly flat: 1.15/1.11/1.18 ns for ni=1/4/8).
    design.setClockNs(kTech.sramAccessNs +
                      0.10 * static_cast<double>(log2Ceil(ni + 1)) +
                      kTech.cmpDelayNs + kTech.regDelayNs);
    design.setCyclesPerImage(
        foldedSnnWtCycles(topo, ni, period_cycles));
    return design;
}

} // namespace hw
} // namespace neuro
