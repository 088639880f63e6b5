/**
 * @file
 * Accelerator design-space walk: given an area budget (mm^2) and a
 * latency target, enumerate every design this library can build for a
 * workload — folded/expanded x MLP/SNNwt/SNNwot x ni — and recommend
 * the cheapest one that fits, the way Section 4.3 argues an embedded
 * designer would.
 *
 * Run:  ./accelerator_design [budget_mm2=8.0] [latency_us=1.0]
 */

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <optional>
#include <vector>

#include "neuro/common/config.h"
#include "neuro/common/table.h"
#include "neuro/core/experiment.h"
#include "neuro/hw/folded.h"

namespace {

struct Candidate
{
    neuro::hw::Design design;
    std::string label;
    double areaMm2;
    double latencyUs;
    double energyUj;
};

} // namespace

int
main(int argc, char **argv)
{
    using namespace neuro;
    Config cfg;
    cfg.parseArgs(argc, argv);
    const double budget = cfg.getDouble("budget_mm2", 8.0);
    const double latency_target = cfg.getDouble("latency_us", 1.0);

    core::Workload w = core::makeMnistWorkload(500, 100, 1);
    std::vector<Candidate> candidates;
    auto consider = [&](hw::Design design, const std::string &label) {
        Candidate c{design, label, design.totalAreaMm2(),
                    design.timePerImageNs() / 1000.0,
                    design.totalEnergyPerImageUj()};
        candidates.push_back(std::move(c));
    };

    for (std::size_t ni : {1UL, 2UL, 4UL, 8UL, 16UL, 32UL}) {
        consider(hw::buildFoldedMlp(w.mlpTopo, ni),
                 "MLP folded ni=" + std::to_string(ni));
        consider(hw::buildFoldedSnnWot(w.snnTopo, ni),
                 "SNNwot folded ni=" + std::to_string(ni));
        consider(hw::buildFoldedSnnWt(w.snnTopo, ni),
                 "SNNwt folded ni=" + std::to_string(ni));
    }
    consider(hw::buildExpandedMlp(w.mlpTopo), "MLP expanded");
    consider(hw::buildExpandedSnnWot(w.snnTopo), "SNNwot expanded");
    consider(hw::buildExpandedSnnWt(w.snnTopo), "SNNwt expanded");

    TextTable table("design space (MNIST topologies, 65nm)");
    table.setHeader({"Design", "Area (mm2)", "Latency (us)",
                     "Energy (uJ)", "Fits?"});
    for (const auto &c : candidates) {
        const bool fits =
            c.areaMm2 <= budget && c.latencyUs <= latency_target;
        table.addRow({c.label, TextTable::fmt(c.areaMm2),
                      TextTable::fmt(c.latencyUs, 3),
                      TextTable::fmt(c.energyUj, 3),
                      fits ? "yes" : "no"});
    }
    table.print(std::cout);

    // Recommend: the lowest-energy design meeting both constraints.
    std::optional<std::size_t> best;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
        const auto &c = candidates[i];
        if (c.areaMm2 > budget || c.latencyUs > latency_target)
            continue;
        if (!best || c.energyUj < candidates[*best].energyUj)
            best = i;
    }
    if (best) {
        const auto &c = candidates[*best];
        std::printf("\nrecommended under %.1f mm2 / %.2f us: %s "
                    "(%.2f mm2, %.3f us, %.3f uJ/image)\n",
                    budget, latency_target, c.label.c_str(), c.areaMm2,
                    c.latencyUs, c.energyUj);
        std::cout << "\n";
        c.design.print(std::cout);
    } else {
        std::printf("\nno design fits %.1f mm2 at %.2f us; relax one "
                    "constraint (try latency_us=10).\n",
                    budget, latency_target);
    }
    return 0;
}
