#include "neuro/hw/design.h"

#include <iomanip>

#include "neuro/common/logging.h"

namespace neuro {
namespace hw {

Design::Design(std::string name, double leakage_w_per_mm2)
    : name_(std::move(name)), leakageWPerMm2_(leakage_w_per_mm2)
{
}

void
Design::addOperators(const OperatorSpec &spec, std::size_t count,
                     uint64_t ops_per_image)
{
    NEURO_ASSERT(count > 0, "operator group needs instances");
    OperatorGroup group;
    group.spec = spec;
    group.count = count;
    group.opsPerImage = ops_per_image;
    groups_.push_back(std::move(group));
}

void
Design::addSram(SramArray array)
{
    srams_.push_back(std::move(array));
}

void
Design::setClockNs(double ns)
{
    NEURO_ASSERT(ns > 0.0, "clock period must be positive");
    clockNs_ = ns;
}

void
Design::setCyclesPerImage(uint64_t cycles)
{
    NEURO_ASSERT(cycles > 0, "cycles per image must be positive");
    cyclesPerImage_ = cycles;
}

double
Design::areaNoSramMm2() const
{
    // Clocked state not covered by an operator group.
    double um2 = registerBits_ * kTech.regAreaPerBitUm2;
    for (const auto &g : groups_)
        um2 += g.totalAreaUm2();
    return um2 / 1e6;
}

double
Design::sramAreaMm2() const
{
    double um2 = 0.0;
    for (const auto &s : srams_)
        um2 += s.totalAreaUm2();
    return um2 / 1e6;
}

double
Design::totalAreaMm2() const
{
    return areaNoSramMm2() + sramAreaMm2();
}

double
Design::energyPerImageUj() const
{
    double pj = 0.0;
    for (const auto &g : groups_)
        pj += g.energyPerImagePj();
    for (const auto &s : srams_)
        pj += s.energyPerImagePj();
    // Register/clock energy: all clocked bits toggle every cycle.
    pj += registerBits_ * kTech.regEnergyPerBitPj *
          static_cast<double>(cyclesPerImage_);
    return pj / 1e6;
}

double
Design::staticEnergyPerImageUj() const
{
    const double leakage_w = totalAreaMm2() * leakageWPerMm2_;
    const double seconds = timePerImageNs() * 1e-9;
    return leakage_w * seconds * 1e6;
}

double
Design::totalEnergyPerImageUj() const
{
    return energyPerImageUj() + staticEnergyPerImageUj();
}

double
Design::timePerImageNs() const
{
    return clockNs_ * static_cast<double>(cyclesPerImage_);
}

double
Design::powerW() const
{
    const double dynamic_w =
        energyPerImageUj() * 1e-6 / (timePerImageNs() * 1e-9);
    const double clock_w = registerKbits() * kTech.clockPowerWPerKbit;
    const double leakage_w = totalAreaMm2() * leakageWPerMm2_;
    return dynamic_w + clock_w + leakage_w;
}

double
Design::registerKbits() const
{
    return registerBits_ / 1000.0;
}

void
Design::print(std::ostream &os) const
{
    os << "design: " << name_ << "\n";
    os << std::fixed << std::setprecision(3);
    for (const auto &g : groups_) {
        os << "  " << std::left << std::setw(34) << g.spec.name
           << " x" << std::setw(7) << g.count
           << " area " << g.totalAreaUm2() / 1e6 << " mm2\n";
    }
    for (const auto &s : srams_) {
        os << "  SRAM " << std::left << std::setw(29) << s.name << " x"
           << std::setw(7) << s.numBanks << " area "
           << s.totalAreaUm2() / 1e6 << " mm2\n";
    }
    os << "  area (no SRAM) " << areaNoSramMm2() << " mm2, total "
       << totalAreaMm2() << " mm2\n";
    os << "  clock " << clockNs_ << " ns, " << cyclesPerImage_
       << " cycles/image, energy " << totalEnergyPerImageUj()
       << " uJ/image\n";
}

} // namespace hw
} // namespace neuro
