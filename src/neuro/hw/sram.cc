#include "neuro/hw/sram.h"

#include <algorithm>

#include "neuro/common/logging.h"
#include "neuro/common/profile.h"

namespace neuro {
namespace hw {

namespace {

/** Published 128-bit-wide bank characterizations (Table 6). */
struct BankPoint
{
    std::size_t depth;
    double areaUm2;
    double readEnergyPj;
};

constexpr BankPoint kBankPoints[] = {
    {128, 40772.0, 32.46},
    {200, 46002.0, 33.05},
    {784, 108351.0, 44.41},
};
constexpr std::size_t kNumPoints =
    sizeof(kBankPoints) / sizeof(kBankPoints[0]);

/** Piecewise-linear interpolation over the calibration points,
 *  extrapolating with the nearest segment's slope. */
double
interpolate(std::size_t depth, double BankPoint::*field)
{
    const double d = static_cast<double>(depth);
    std::size_t seg = 0;
    while (seg + 2 < kNumPoints &&
           depth > kBankPoints[seg + 1].depth) {
        ++seg;
    }
    const BankPoint &p0 = kBankPoints[seg];
    const BankPoint &p1 = kBankPoints[seg + 1];
    const double slope = (p1.*field - p0.*field) /
        static_cast<double>(p1.depth - p0.depth);
    return p0.*field + slope * (d - static_cast<double>(p0.depth));
}

/** Round @p v up to a multiple of @p m. */
std::size_t
roundUp(std::size_t v, std::size_t m)
{
    return (v + m - 1) / m * m;
}

} // namespace

SramBank
makeBank(std::size_t depth)
{
    NEURO_ASSERT(depth > 0, "bank depth must be positive");
    SramBank bank;
    bank.widthBits = 128;
    bank.depth = depth;
    bank.areaUm2 = std::max(interpolate(depth, &BankPoint::areaUm2),
                            10000.0);
    bank.readEnergyPj =
        std::max(interpolate(depth, &BankPoint::readEnergyPj), 5.0);
    return bank;
}

std::size_t
synapticBanks(std::size_t num_neurons, std::size_t ni)
{
    NEURO_ASSERT(num_neurons > 0 && ni > 0, "empty storage request");
    // Each cycle a neuron fetches ni 8-bit weights; a 128-bit word
    // therefore serves this many neurons:
    const std::size_t neurons_per_bank =
        std::max<std::size_t>(1, 128 / (ni * 8));
    return (num_neurons + neurons_per_bank - 1) / neurons_per_bank;
}

SramArray
makeSynapticStorage(const std::string &name, std::size_t num_neurons,
                    std::size_t num_inputs, std::size_t ni)
{
    NEURO_ASSERT(num_inputs > 0, "empty storage request");
    SramArray array;
    array.name = name;
    array.numBanks = synapticBanks(num_neurons, ni);
    // One word per chunk of ni inputs; depth floors at 128 rows (the
    // smallest efficient macro) and rounds to 8-row increments.
    const std::size_t words = (num_inputs + ni - 1) / ni;
    const std::size_t depth = std::max<std::size_t>(128, roundUp(words, 8));
    array.bank = makeBank(depth);
    obsCount<"hw.sram.arrays_built">();
    obsCount<"hw.sram.banks_built">(array.numBanks);
    if (Tracer::enabled())
        Tracer::instance().instant("hw.sram.array", "hw");
    return array;
}

} // namespace hw
} // namespace neuro
