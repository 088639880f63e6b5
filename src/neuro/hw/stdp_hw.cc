#include "neuro/hw/stdp_hw.h"

#include "neuro/common/logging.h"

namespace neuro {
namespace hw {

Design
buildFoldedSnnStdp(const SnnTopology &topo, std::size_t ni,
                   int period_cycles, uint64_t updates_per_image)
{
    Design design =
        buildFoldedSnnWt(topo, ni, period_cycles);

    // Per-neuron fixed STDP machinery (Figure 13): FSM, time-since-
    // last-spike / refractory / inhibitory / homeostasis counters and
    // the leak interpolation used during learning.
    design.addOperators(makeStdpFixed(), topo.neurons,
                        topo.neurons *
                            static_cast<uint64_t>(period_cycles));
    // Per-input update path: ni lanes of last-spike register + LTP
    // comparator + increment/decrement adder per neuron.
    design.addOperators(makeStdpPerInput(ni), topo.neurons,
                        updates_per_image * topo.neurons / 64 + 1);
    // Global homeostasis epoch counter.
    design.addOperators(makeRegister(24), 1, 1);

    // Weight write-back traffic: treat each synaptic update as one
    // extra SRAM access worth of energy.
    design.addRegisterBits(static_cast<double>(topo.neurons) * 32.0);

    // The STDP compare/update path lengthens the cycle slightly
    // (paper: at most 7%).
    design.setClockNs(design.clockNs() * 1.05);
    return design;
}

StdpOverhead
stdpOverhead(const SnnTopology &topo, std::size_t ni, int period_cycles)
{
    const Design inference =
        buildFoldedSnnWt(topo, ni, period_cycles);
    const Design learning =
        buildFoldedSnnStdp(topo, ni, period_cycles, topo.inputs);
    StdpOverhead overhead;
    overhead.areaRatio =
        learning.totalAreaMm2() / inference.totalAreaMm2();
    overhead.delayRatio = learning.clockNs() / inference.clockNs();
    overhead.energyRatio = learning.totalEnergyPerImageUj() /
                           inference.totalEnergyPerImageUj();
    return overhead;
}

} // namespace hw
} // namespace neuro
