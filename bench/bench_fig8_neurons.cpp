/**
 * @file
 * Figure 8: impact of the number of neurons on MLP and SNN accuracy —
 * the MLP plateaus around 100 hidden neurons, the SNN around 300
 * output neurons (and always below the MLP). This drives the paper's
 * topology choices and the iso-accuracy comparison (Section 4.2.3).
 *
 * Knobs: train=N test=N (and NEURO_SCALE).
 */

#include <iostream>

#include "neuro/common/config.h"
#include "neuro/common/csv.h"
#include "neuro/common/table.h"
#include "neuro/core/compare.h"
#include "neuro/core/explorer.h"
#include "neuro/hw/expanded.h"

int
main(int argc, char **argv)
{
    using namespace neuro;
    Config cfg;
    cfg.parseArgs(argc, argv);
    const auto train =
        static_cast<std::size_t>(cfg.getInt("train", 3000));
    const auto test = static_cast<std::size_t>(cfg.getInt("test", 800));

    core::Workload w = core::makeMnistWorkload(train, test, 1);
    const std::vector<std::size_t> mlp_sizes = {10, 15, 20, 30, 50, 100};
    const std::vector<std::size_t> snn_sizes = {10, 50, 100, 300};

    const auto mlp_points = core::sweepMlpHidden(w, mlp_sizes, 21);
    const auto snn_points = core::sweepSnnNeurons(w, snn_sizes, 22);

    TextTable table("Figure 8 (accuracy vs number of neurons)");
    table.setHeader({"Model", "# neurons", "Accuracy (%)"});
    CsvWriter csv("bench_fig8_neurons.csv",
                  {"model", "neurons", "accuracy_pct"});
    for (const auto &p : mlp_points) {
        table.addRow({"MLP", TextTable::fmt(p.parameter, 0),
                      TextTable::pct(p.accuracy)});
        csv.writeRow({"mlp", TextTable::fmt(p.parameter, 0),
                      TextTable::fmt(p.accuracy * 100.0)});
    }
    table.addSeparator();
    for (const auto &p : snn_points) {
        table.addRow({"SNN", TextTable::fmt(p.parameter, 0),
                      TextTable::pct(p.accuracy)});
        csv.writeRow({"snn", TextTable::fmt(p.parameter, 0),
                      TextTable::fmt(p.accuracy * 100.0)});
    }
    table.addNote("paper shape: MLP plateaus ~100 hidden, SNN plateaus "
                  "~300 neurons, SNN strictly below MLP");
    table.print(std::cout);

    // Section 4.2.3: iso-accuracy area comparison — shrink the MLP to
    // the SNN's accuracy and compare expanded areas.
    const double snn_best = snn_points.back().accuracy;
    const auto iso = core::isoAccuracyComparison(
        w, snn_best, {2, 3, 4, 5, 8, 10, 15, 20, 30}, 31);
    std::cout << "\niso-accuracy comparison (Section 4.2.3):\n"
              << "  SNN accuracy " << TextTable::pct(iso.snnAccuracy)
              << " matched by MLP with " << iso.mlpHidden
              << " hidden neurons (" << TextTable::pct(iso.mlpAccuracy)
              << ")\n"
              << "  expanded areas: MLP "
              << TextTable::fmt(iso.mlpAreaMm2) << " mm2 vs SNNwt "
              << TextTable::fmt(iso.snnWtAreaMm2) << " mm2 vs SNNwot "
              << TextTable::fmt(iso.snnWotAreaMm2) << " mm2\n"
              << "  MLP smaller than SNNwt by "
              << TextTable::pct(1.0 - iso.mlpAreaMm2 / iso.snnWtAreaMm2)
              << " (paper: 68.30%), than SNNwot by "
              << TextTable::pct(1.0 - iso.mlpAreaMm2 / iso.snnWotAreaMm2)
              << " (paper: 73.23%)\n";
    return 0;
}
