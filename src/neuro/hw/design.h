/**
 * @file
 * Design composition: an accelerator design is a bag of operator groups
 * plus SRAM arrays, a clock period (the longest operator chain of the
 * pipeline stage), and a per-image cycle count. From these the model
 * derives the published metrics: area with/without SRAM (Tables 4, 7),
 * delay, per-image energy, and power (Table 5).
 */

#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "neuro/hw/operators.h"
#include "neuro/hw/sram.h"

namespace neuro {
namespace hw {

/** A composed accelerator design and its activity profile. */
class Design
{
  public:
    /** Construct an empty design costed against kTech, leaking
     *  @p leakage_w_per_mm2 (the high-VT figure unless power-gated). */
    explicit Design(std::string name,
                    double leakage_w_per_mm2 = kTech.leakagePowerWPerMm2);

    /** @return the design name. */
    const std::string &name() const { return name_; }

    /** Add a group of identical operators. */
    void addOperators(const OperatorSpec &spec, std::size_t count,
                      uint64_t ops_per_image);

    /** Add an SRAM array. */
    void addSram(SramArray array);

    /** Set the clock period (critical path) in ns. */
    void setClockNs(double ns);
    /** @return the clock period in ns. */
    double clockNs() const { return clockNs_; }

    /** Set the number of cycles needed per processed image. */
    void setCyclesPerImage(uint64_t cycles);
    /** @return cycles per image. */
    uint64_t cyclesPerImage() const { return cyclesPerImage_; }

    /** @return logic (non-SRAM) area in mm^2. */
    double areaNoSramMm2() const;
    /** @return SRAM area in mm^2. */
    double sramAreaMm2() const;
    /** @return total area in mm^2. */
    double totalAreaMm2() const;

    /** @return dynamic energy per image in uJ (operators + SRAM). */
    double energyPerImageUj() const;
    /** @return static (leakage) energy per image in uJ. */
    double staticEnergyPerImageUj() const;
    /** @return total energy per image in uJ. */
    double totalEnergyPerImageUj() const;

    /** @return time to process one image in ns. */
    double timePerImageNs() const;

    /** @return average power in W while processing. */
    double powerW() const;

    /** @return total register bits (for the clock-tree power model). */
    double registerKbits() const;
    /** Account @p bits of clocked state (registers). */
    void addRegisterBits(double bits) { registerBits_ += bits; }

    /** @return the operator groups (for Table 4-style breakdowns). */
    const std::vector<OperatorGroup> &groups() const { return groups_; }
    /** @return the SRAM arrays. */
    const std::vector<SramArray> &srams() const { return srams_; }

    /** Human-readable summary. */
    void print(std::ostream &os) const;

  private:
    std::string name_;
    double leakageWPerMm2_;
    std::vector<OperatorGroup> groups_;
    std::vector<SramArray> srams_;
    double clockNs_ = 1.0;
    uint64_t cyclesPerImage_ = 1;
    double registerBits_ = 0.0;
};

} // namespace hw
} // namespace neuro

