/**
 * @file
 * Table 6: SRAM characteristics for synaptic storage — bank geometry
 * (width 128 bits, derived depth and bank counts) and per-cycle read
 * energy for the SNN (784x300) and MLP (784x100 + 100x10) at each fold
 * factor.
 */

#include <iostream>

#include "neuro/common/table.h"
#include "neuro/core/reports.h"
#include "neuro/hw/sram.h"

int
main()
{
    using namespace neuro;
    namespace paper = core::paper;

    TextTable table("Table 6 (SRAM characteristics for synaptic "
                    "storage)");
    table.setHeader({"ni", "Depth", "Read E (pJ)", "Bank area (um2)",
                     "SNN banks", "MLP banks", "SNN E (nJ/cyc)",
                     "MLP E (nJ/cyc)", "SNN area (mm2)",
                     "MLP area (mm2)"});
    for (const auto &row : paper::kTable6) {
        const hw::SramArray snn =
            hw::makeSynapticStorage("snn", 300, 784, row.ni);
        const hw::SramArray mlp_h =
            hw::makeSynapticStorage("mlp-h", 100, 784, row.ni);
        const hw::SramArray mlp_o =
            hw::makeSynapticStorage("mlp-o", 10, 100, row.ni);
        table.addRow(
            {TextTable::num(static_cast<long long>(row.ni)),
             core::vsPaper(static_cast<double>(snn.bank.depth),
                           static_cast<double>(row.depth), 0),
             core::vsPaper(snn.bank.readEnergyPj, row.readEnergyPj),
             core::vsPaper(snn.bank.areaUm2, row.bankAreaUm2, 0),
             core::vsPaper(static_cast<double>(snn.numBanks),
                           static_cast<double>(row.snnBanks), 0),
             core::vsPaper(
                 static_cast<double>(mlp_h.numBanks + mlp_o.numBanks),
                 static_cast<double>(row.mlpBanks), 0),
             core::vsPaper(snn.energyPerCyclePj() / 1e3,
                           row.snnEnergyNj),
             core::vsPaper((mlp_h.energyPerCyclePj() +
                            mlp_o.energyPerCyclePj()) /
                               1e3,
                           row.mlpEnergyNj),
             core::vsPaper(snn.totalAreaUm2() / 1e6, row.snnAreaMm2),
             core::vsPaper(
                 (mlp_h.totalAreaUm2() + mlp_o.totalAreaUm2()) / 1e6,
                 row.mlpAreaMm2)});
    }
    table.addNote("SNN needs ~3x the MLP's synaptic storage (235,200 vs "
                  "79,400 weights) -- the root cause of the folded "
                  "cost reversal");
    table.print(std::cout);
    return 0;
}
