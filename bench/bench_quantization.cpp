/**
 * @file
 * Section 4.2.1: 8-bit fixed point vs floating point for the MLP — the
 * paper found 8-bit operators and weights within 1% of float accuracy
 * (96.65% vs 97.65%), which is what makes the compact hardware
 * datapath viable. Also reports the piecewise-linear sigmoid's
 * approximation error and an ablation over narrower weights.
 */

#include <iostream>

#include "neuro/common/config.h"
#include "neuro/common/csv.h"
#include "neuro/common/parallel.h"
#include "neuro/common/rng.h"
#include "neuro/common/table.h"
#include "neuro/core/experiment.h"
#include "neuro/core/reports.h"
#include "neuro/mlp/quantized.h"

int
main(int argc, char **argv)
{
    using namespace neuro;
    Config cfg;
    cfg.parseArgs(argc, argv);
    const auto train =
        static_cast<std::size_t>(cfg.getInt("train", 4000));
    const auto test = static_cast<std::size_t>(cfg.getInt("test", 1000));

    core::Workload w = core::makeMnistWorkload(train, test, 1);
    mlp::TrainConfig train_cfg = core::defaultMlpTrainConfig();
    Rng rng(42);
    mlp::Mlp net(core::defaultMlpConfig(w), rng);
    mlp::train(net, w.data.train, train_cfg);

    const double float_acc = mlp::evaluate(net, w.data.test);
    const mlp::QuantizedMlp quant(net);
    const double fixed_acc = quant.evaluate(w.data.test);

    TextTable table("Section 4.2.1 (8-bit fixed point vs float MLP)");
    table.setHeader({"Datapath", "Accuracy (%)", "Paper (%)"});
    table.addRow({"floating point", TextTable::pct(float_acc),
                  TextTable::fmt(core::paper::kMlpFloatAccuracyPct)});
    table.addRow({"8-bit fixed + 16-pt PLI sigmoid",
                  TextTable::pct(fixed_acc),
                  TextTable::fmt(core::paper::kMlpFixed8AccuracyPct)});
    table.addNote("per-layer fractional bits: layer0 = " +
                  TextTable::num(quant.fracBits(0)) + ", layer1 = " +
                  TextTable::num(quant.fracBits(1)));
    table.print(std::cout);

    // Precision ablation: the learning algorithm compensates until the
    // weight width gets very narrow (Section 4.2.2: "one of the assets
    // of the learning algorithm ... to compensate for such low
    // precision").
    TextTable sweep("weight-precision ablation");
    sweep.setHeader({"Weight bits", "Accuracy (%)"});
    CsvWriter csv("bench_quantization.csv", {"bits", "accuracy_pct"});
    // One pool task per precision: each quantizes and evaluates its
    // own copy of the trained network, and the rows are emitted in
    // ablation order afterwards.
    const std::vector<int> all_bits = {8, 6, 5, 4, 3, 2};
    const auto accs = parallelMap<double>(
        all_bits.size(), [&](std::size_t i) {
            const mlp::QuantizedMlp q(net, all_bits[i]);
            return q.evaluate(w.data.test);
        });
    for (std::size_t i = 0; i < all_bits.size(); ++i) {
        sweep.addRow({TextTable::num(all_bits[i]),
                      TextTable::pct(accs[i])});
        csv.writeRow({static_cast<double>(all_bits[i]),
                      accs[i] * 100.0});
    }
    sweep.print(std::cout);

    const mlp::PiecewiseSigmoid pli(1.0f);
    std::cout << "16-point piecewise-linear sigmoid max error: "
              << TextTable::fmt(pli.maxError(), 5) << "\n";
    std::cout << "accuracy cost of 8-bit datapath: "
              << TextTable::fmt((float_acc - fixed_acc) * 100.0)
              << "pp (paper: 1.00pp)"
              << (float_acc - fixed_acc < 0.03
                      ? "  -- within 3pp: reproduced\n"
                      : "  -- larger than expected\n");
    return 0;
}
