/**
 * @file
 * Section 4.5: validation on additional workloads — the MPEG-7-like
 * object-recognition task (MLP 28x28-15-10 vs SNN 28x28-90) and the
 * Spoken-Arabic-Digits-like task (MLP 13x13-60-10 vs SNN 13x13-90),
 * with both accuracy and the folded-hardware area/energy ratios.
 * Includes the homeostasis ablation (paper: ~5% of SNN accuracy).
 */

#include <iostream>

#include "neuro/common/config.h"
#include "neuro/common/rng.h"
#include "neuro/common/table.h"
#include "neuro/core/compare.h"
#include "neuro/core/experiment.h"
#include "neuro/core/reports.h"

namespace {

void
runWorkload(const neuro::core::Workload &w, double paper_mlp_pct,
            double paper_snn_pct)
{
    using namespace neuro;
    // MLP at the paper's topology for this workload.
    mlp::TrainConfig train = core::defaultMlpTrainConfig();
    const double mlp_acc = mlp::trainAndEvaluate(
        core::defaultMlpConfig(w), train, w.data.train, w.data.test, 42);

    // SNN+STDP at the paper's topology.
    const snn::SnnConfig config =
        core::defaultSnnConfig(w, w.data.train.size());
    snn::SnnTrainConfig snn_train;
    snn_train.epochs = scaled(3, 1);
    const double snn_acc = snn::trainAndEvaluateStdp(
        config, snn_train, w.data.train, w.data.test, snn::EvalMode::Wt,
        7);

    // Homeostasis ablation.
    snn::SnnConfig no_homeo = config;
    no_homeo.homeostasis.enabled = false;
    const double ablated_acc = snn::trainAndEvaluateStdp(
        no_homeo, snn_train, w.data.train, w.data.test,
        snn::EvalMode::Wt, 7);

    TextTable table("Section 4.5 (" + w.name + ")");
    table.setHeader({"Model", "Topology", "Accuracy (%)", "Paper (%)"});
    table.addRow({"MLP+BP",
                  std::to_string(w.mlpTopo.inputs) + "-" +
                      std::to_string(w.mlpTopo.hidden) + "-" +
                      std::to_string(w.mlpTopo.outputs),
                  TextTable::pct(mlp_acc),
                  TextTable::fmt(paper_mlp_pct)});
    table.addRow({"SNN+STDP",
                  std::to_string(w.snnTopo.inputs) + "-" +
                      std::to_string(w.snnTopo.neurons),
                  TextTable::pct(snn_acc),
                  TextTable::fmt(paper_snn_pct)});
    table.addRow({"SNN+STDP (no homeostasis)", "ablation",
                  TextTable::pct(ablated_acc), "-"});
    table.print(std::cout);

    const auto ratios =
        core::foldedCostRatios(w.mlpTopo, w.snnTopo, {1, 4, 8, 16});
    std::cout << "folded SNNwot / MLP cost ratios for " << w.name
              << ":\n";
    for (const auto &r : ratios) {
        std::cout << "  ni=" << r.ni << ": area "
                  << TextTable::fmt(r.areaRatio) << "x, energy "
                  << TextTable::fmt(r.energyRatio) << "x\n";
    }
    std::cout << (mlp_acc > snn_acc
                      ? "RESULT: MLP wins accuracy on " + w.name +
                            " (reproduced)\n\n"
                      : "RESULT: SNN unexpectedly won on " + w.name +
                            "\n\n");
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace neuro;
    Config cfg;
    cfg.parseArgs(argc, argv);

    const core::Workload mpeg7 = core::makeMpeg7Workload(
        static_cast<std::size_t>(cfg.getInt("train", 3000)),
        static_cast<std::size_t>(cfg.getInt("test", 800)), 2);
    runWorkload(mpeg7, core::paper::kMpeg7MlpAccuracyPct,
                core::paper::kMpeg7SnnAccuracyPct);

    const core::Workload sad = core::makeSadWorkload(
        static_cast<std::size_t>(cfg.getInt("train", 3000)),
        static_cast<std::size_t>(cfg.getInt("test", 800)), 3);
    runWorkload(sad, core::paper::kSadMlpAccuracyPct,
                core::paper::kSadSnnAccuracyPct);

    std::cout << "paper's conclusion across workloads: SNN achieves "
                 "lower accuracy and higher folded cost than MLP "
                 "(MPEG-7: 3.81x-5.57x area; SAD: 1.27x-1.31x area)\n";
    return 0;
}
