#include "neuro/hw/operators.h"

#include <cstdio>

#include "neuro/common/logging.h"

namespace neuro {
namespace hw {

namespace {

std::string
fmtName(const char *fmt, std::size_t a, int b)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), fmt, a, b);
    return buf;
}

} // namespace

OperatorSpec
makeAdderTree(std::size_t num_inputs, int bits)
{
    NEURO_ASSERT(num_inputs >= 1, "tree needs inputs");
    OperatorSpec spec;
    spec.name = fmtName("adder tree (%zux%db)", num_inputs, bits);
    const uint64_t fa = adderTreeFaCount(num_inputs, bits);
    spec.areaUm2 = kTech.faAreaUm2 * static_cast<double>(fa) +
                   kTech.treeFixedUm2;
    spec.energyPj = kTech.faEnergyPj * static_cast<double>(fa);
    spec.delayNs = kTech.treeDelayPerLevelNs *
                   static_cast<double>(log2Ceil(num_inputs));
    return spec;
}

OperatorSpec
makeMultiplier(int bits)
{
    NEURO_ASSERT(bits > 0, "multiplier width must be positive");
    OperatorSpec spec;
    spec.name = fmtName("multiplier (%zux%db)",
                        static_cast<std::size_t>(bits), bits);
    // Array multiplier: area and energy scale with bits^2 from the
    // calibrated 8x8 point.
    const double scale = static_cast<double>(bits) *
                         static_cast<double>(bits) / 64.0;
    spec.areaUm2 = kTech.mult8AreaUm2 * scale;
    spec.energyPj = kTech.mult8EnergyPj * scale;
    spec.delayNs = kTech.multDelayNs * static_cast<double>(bits) / 8.0;
    return spec;
}

OperatorSpec
makeMaxTree(std::size_t num_inputs, int bits)
{
    NEURO_ASSERT(num_inputs >= 1, "max tree needs inputs");
    OperatorSpec spec;
    spec.name = fmtName("max (%zux%db)", num_inputs, bits);
    const double comparators =
        num_inputs > 0 ? static_cast<double>(num_inputs - 1) : 0.0;
    spec.areaUm2 =
        comparators * kTech.cmpAreaPerBitUm2 * static_cast<double>(bits);
    spec.energyPj =
        comparators * kTech.cmpEnergyPerBitPj * static_cast<double>(bits);
    spec.delayNs =
        kTech.cmpDelayNs * static_cast<double>(log2Ceil(num_inputs));
    return spec;
}

OperatorSpec
makeGaussianRng()
{
    return {"rand (gaussian, 4xLFSR31)", kTech.gaussRngAreaUm2,
            kTech.gaussRngEnergyPj, 0.6};
}

OperatorSpec
makeRegister(int bits)
{
    OperatorSpec spec;
    spec.name = fmtName("register (%zub)", static_cast<std::size_t>(bits),
                        bits);
    spec.areaUm2 = kTech.regAreaPerBitUm2 * static_cast<double>(bits);
    spec.energyPj = kTech.regEnergyPerBitPj * static_cast<double>(bits);
    spec.delayNs = kTech.regDelayNs;
    return spec;
}

OperatorSpec
makeConvertor()
{
    return {"convertor (pixel->spikes)", kTech.convertorAreaUm2,
            kTech.convertorEnergyPj, 0.35};
}

OperatorSpec
makeSpikeDecode()
{
    return {"spike decode (4-shift)", kTech.spikeDecodeAreaUm2,
            kTech.spikeDecodeEnergyPj, kTech.spikeDecodeDelayNs};
}

OperatorSpec
makeSigmoidUnit()
{
    return {"sigmoid (16-pt PLI)", kTech.sigmoidUnitAreaUm2,
            kTech.sigmoidUnitEnergyPj, kTech.sigmoidDelayNs};
}

OperatorSpec
makeLifExtras(std::size_t inputs)
{
    OperatorSpec spec;
    spec.name = fmtName("LIF extras (%zu inputs, %db)", inputs, 24);
    spec.areaUm2 = kTech.lifFixedAreaUm2 +
        kTech.lifPerInputAreaUm2 * static_cast<double>(inputs);
    spec.energyPj = kTech.lifExtrasEnergyPj;
    spec.delayNs = kTech.cmpDelayNs;
    return spec;
}

OperatorSpec
makeNeuronControl()
{
    return {"neuron control FSM", kTech.neuronControlAreaUm2, 0.08, 0.2};
}

OperatorSpec
makeWotLaneBuffers(std::size_t ni)
{
    OperatorSpec spec;
    spec.name = fmtName("wot lane buffers (x%zu, %db)", ni, 12);
    spec.areaUm2 = kTech.wotLaneFixedUm2 +
        kTech.wotLanePerNiUm2 * static_cast<double>(ni);
    spec.energyPj = 0.04 * static_cast<double>(ni);
    spec.delayNs = 0.1;
    return spec;
}

OperatorSpec
makeWtFoldedExtras(std::size_t ni)
{
    OperatorSpec spec;
    spec.name = fmtName("wt extras (cmp+leak, x%zu, %db)", ni, 24);
    spec.areaUm2 = kTech.wtExtrasFixedUm2 +
        kTech.wtExtrasPerNiUm2 * static_cast<double>(ni);
    spec.energyPj = kTech.lifExtrasEnergyPj;
    spec.delayNs = kTech.cmpDelayNs;
    return spec;
}

OperatorSpec
makeStdpFixed()
{
    return {"STDP fixed (FSM+counters+homeo)", kTech.stdpFixedAreaUm2,
            kTech.stdpUpdateEnergyPj * 4.0, 0.3};
}

OperatorSpec
makeStdpPerInput(std::size_t inputs)
{
    OperatorSpec spec;
    spec.name = fmtName("STDP per-input (x%zu, %db)", inputs, 8);
    spec.areaUm2 =
        kTech.stdpPerInputAreaUm2 * static_cast<double>(inputs);
    spec.energyPj =
        kTech.stdpUpdateEnergyPj * static_cast<double>(inputs);
    spec.delayNs = 0.35;
    return spec;
}

} // namespace hw
} // namespace neuro
