/**
 * @file
 * Design-space Pareto frontier: every accelerator the library can
 * build for the MNIST topologies, reduced to the area/energy/latency
 * frontier. Shows at a glance the paper's Section 4.3.3 landscape: the
 * folded MLPs populate the low-cost end, the expanded SNN the
 * low-latency end, and the timed SNNwt designs fall off the frontier.
 */

#include <algorithm>
#include <iostream>

#include "neuro/common/config.h"
#include "neuro/common/csv.h"
#include "neuro/common/table.h"
#include "neuro/hw/pareto.h"

int
main(int argc, char **argv)
{
    using namespace neuro;
    Config cfg;
    cfg.parseArgs(argc, argv);
    const hw::MlpTopology mlp{784, 100, 10};
    const hw::SnnTopology snn{784, 300};
    const auto points = hw::enumerateDesigns(mlp, snn);
    const auto frontier = hw::paretoFrontier(points);

    TextTable table("design space with Pareto frontier (area / energy "
                    "/ latency)");
    table.setHeader({"Design", "Area (mm2)", "Energy (uJ)",
                     "Latency (us)", "Pareto?"});
    CsvWriter csv("bench_pareto.csv",
                  {"design", "area_mm2", "energy_uj", "latency_us",
                   "on_frontier"});
    std::size_t snnwt_on_frontier = 0;
    for (std::size_t i = 0; i < points.size(); ++i) {
        const auto &p = points[i];
        const bool on = std::find(frontier.begin(), frontier.end(), i) !=
            frontier.end();
        if (on && p.label.find("SNNwt") != std::string::npos)
            ++snnwt_on_frontier;
        table.addRow({p.label, TextTable::fmt(p.areaMm2),
                      TextTable::fmt(p.energyUj, 3),
                      TextTable::fmt(p.latencyNs / 1000.0, 3),
                      on ? "YES" : ""});
        csv.writeRow({p.label, TextTable::fmt(p.areaMm2),
                      TextTable::fmt(p.energyUj, 3),
                      TextTable::fmt(p.latencyNs / 1000.0, 3),
                      on ? "1" : "0"});
    }
    table.print(std::cout);

    std::cout << "frontier size: " << frontier.size() << " of "
              << points.size() << " designs; cheapest is "
              << points[frontier.front()].label << ", fastest is ";
    std::size_t fastest = frontier.front();
    for (std::size_t idx : frontier) {
        if (points[idx].latencyNs < points[fastest].latencyNs)
            fastest = idx;
    }
    std::cout << points[fastest].label << "\n";
    std::cout << "SNNwt designs on the frontier: " << snnwt_on_frontier
              << " (paper: the timed design is never competitive)\n";
    return 0;
}
