/**
 * @file
 * Large-scale crossover study — the paper's conclusion that SNNs
 * "should be the design of choice for fast and large-scale
 * implementations (spatially expanded)". Sweeps network scale from
 * MNIST-size up 64x and reports where each style's winner flips.
 */

#include <iostream>

#include "neuro/common/config.h"
#include "neuro/common/csv.h"
#include "neuro/common/table.h"
#include "neuro/hw/scaling.h"

int
main(int argc, char **argv)
{
    using namespace neuro;
    Config cfg;
    cfg.parseArgs(argc, argv);
    const auto results = hw::scalingStudy();

    TextTable table("scaling study (expanded & folded, ni = 16)");
    table.setHeader({"Inputs", "MLP hid", "SNN n", "MLP exp (mm2)",
                     "SNN exp (mm2)", "exp winner", "MLP fold (mm2)",
                     "SNN fold (mm2)", "fold winner"});
    CsvWriter csv("bench_scaling.csv",
                  {"inputs", "mlp_hidden", "snn_neurons",
                   "mlp_expanded_mm2", "snn_expanded_mm2",
                   "mlp_folded_mm2", "snn_folded_mm2"});
    for (const auto &r : results) {
        table.addRow(
            {TextTable::num(static_cast<long long>(r.scale.inputs)),
             TextTable::num(static_cast<long long>(r.scale.mlpHidden)),
             TextTable::num(static_cast<long long>(r.scale.snnNeurons)),
             TextTable::fmt(r.mlpExpandedMm2, 1),
             TextTable::fmt(r.snnExpandedMm2, 1),
             r.snnWinsExpandedArea() ? "SNN" : "MLP",
             TextTable::fmt(r.mlpFoldedMm2, 1),
             TextTable::fmt(r.snnFoldedMm2, 1),
             r.snnWinsFoldedArea() ? "SNN" : "MLP"});
        csv.writeRow({static_cast<double>(r.scale.inputs),
                      static_cast<double>(r.scale.mlpHidden),
                      static_cast<double>(r.scale.snnNeurons),
                      r.mlpExpandedMm2, r.snnExpandedMm2,
                      r.mlpFoldedMm2, r.snnFoldedMm2});
    }
    table.addNote("paper's claim to reproduce: expanded SNN wins area "
                  "at every scale (no multipliers), while the folded "
                  "MLP keeps winning (3x fewer synapses to store)");
    table.print(std::cout);

    const auto &first = results.front();
    const auto &last = results.back();
    std::cout << "expanded SNN/MLP area ratio: "
              << TextTable::fmt(first.snnExpandedMm2 /
                                first.mlpExpandedMm2)
              << " at MNIST scale -> "
              << TextTable::fmt(last.snnExpandedMm2 /
                                last.mlpExpandedMm2)
              << " at " << last.scale.inputs
              << " inputs (the multiplier gap widens with scale)\n";
    std::cout << "expanded latency at largest scale: MLP "
              << TextTable::fmt(last.mlpExpandedNsPerImage, 1)
              << " ns vs SNN "
              << TextTable::fmt(last.snnExpandedNsPerImage, 1)
              << " ns per image\n";
    return 0;
}
