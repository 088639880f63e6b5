/**
 * @file
 * Figure 6: bridging error rates between sigmoid and step functions —
 * the MLP+BP is retrained with the parameterized sigmoid for
 * a = 1,2,4,8,16 and with the [0/1] step function; as `a` grows the
 * error approaches the step function's, showing the activation is the
 * only spike-related piece of the SNN/MLP gap.
 *
 * Knobs: train=N test=N (and NEURO_SCALE).
 */

#include <iostream>

#include "neuro/common/config.h"
#include "neuro/common/csv.h"
#include "neuro/common/table.h"
#include "neuro/core/explorer.h"

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
    const std::vector<double> slopes = {1, 2, 4, 8, 16};
    const auto points = core::sweepSigmoidSlope(w, slopes, 23);

    TextTable table("Figure 6 (error rate vs sigmoid slope a)");
    table.setHeader({"Activation", "Error rate (%)"});
    CsvWriter csv("bench_fig6_sigmoid_step.csv",
                  {"slope_a", "error_rate_pct"});
    double step_error = 0.0, a16_error = 0.0, a1_error = 0.0;
    for (const auto &p : points) {
        const double error = (1.0 - p.accuracy) * 100.0;
        const std::string label = p.parameter == 0.0
            ? "step function"
            : "sigmoid (a=" + TextTable::fmt(p.parameter, 0) + ")";
        table.addRow({label, TextTable::fmt(error)});
        csv.writeRow({p.parameter, error});
        if (p.parameter == 0.0)
            step_error = error;
        if (p.parameter == 16.0)
            a16_error = error;
        if (p.parameter == 1.0)
            a1_error = error;
    }
    table.addNote("paper (MNIST): error grows from ~2.35% (a=1) toward "
                  "the step function's ~3.0% as a increases");
    table.print(std::cout);

    const double gap_a1 = std::abs(step_error - a1_error);
    const double gap_a16 = std::abs(step_error - a16_error);
    std::cout << "|error(a) - error(step)|: a=1 -> "
              << TextTable::fmt(gap_a1) << "pp, a=16 -> "
              << TextTable::fmt(gap_a16) << "pp"
              << (gap_a16 <= gap_a1 + 0.3
                      ? "  (converges toward the step function: "
                        "reproduced)"
                      : "  (did NOT converge: inspect budget)")
              << "\n";
    return 0;
}
