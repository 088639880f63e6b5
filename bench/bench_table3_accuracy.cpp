/**
 * @file
 * Table 3: accuracy of MLP and SNN on the MNIST-like workload — the
 * paper's central accuracy comparison. Trains SNN+STDP once (evaluated
 * through both the timed SNNwt and the count-based SNNwot forward
 * paths), SNN+BP, and MLP+BP, then prints measured vs published.
 *
 * Knobs: train=N test=N snn_epochs=N (also NEURO_SCALE).
 */

#include <iostream>

#include "neuro/common/config.h"
#include "neuro/common/csv.h"
#include "neuro/common/logging.h"
#include "neuro/common/table.h"
#include "neuro/core/experiment.h"
#include "neuro/core/reports.h"

int
main(int argc, char **argv)
{
    using namespace neuro;
    Config cfg;
    cfg.parseArgs(argc, argv);
    const auto train =
        static_cast<std::size_t>(cfg.getInt("train", 6000));
    const auto test = static_cast<std::size_t>(cfg.getInt("test", 1500));

    core::Workload w = core::makeMnistWorkload(train, test, 1);
    inform("table 3: %zu train / %zu test images",
           w.data.train.size(), w.data.test.size());
    const core::AccuracyResults results =
        core::runAccuracyComparison(w, 77);

    TextTable table("Table 3 (accuracy of MLP and SNN, MNIST-like "
                    "workload)");
    table.setHeader({"Type", "Accuracy (%)", "Paper (%)"});
    table.addRow({"SNN+STDP - LIF (SNNwt)",
                  TextTable::pct(results.snnWt),
                  TextTable::fmt(core::paper::kSnnWtAccuracyPct)});
    table.addRow({"SNN+STDP - Simplified (SNNwot)",
                  TextTable::pct(results.snnWot),
                  TextTable::fmt(core::paper::kSnnWotAccuracyPct)});
    table.addRow({"SNN+BP", TextTable::pct(results.snnBp),
                  TextTable::fmt(core::paper::kSnnBpAccuracyPct)});
    table.addRow({"MLP+BP", TextTable::pct(results.mlpBp),
                  TextTable::fmt(core::paper::kMlpBpAccuracyPct)});
    table.addNote("absolute values differ (synthetic workload, scaled "
                  "training); the ordering and the STDP-vs-BP gap are "
                  "the reproduced result");
    table.print(std::cout);

    CsvWriter csv("bench_table3_accuracy.csv",
                  {"model", "accuracy", "paper_accuracy"});
    csv.writeRow({"snn_wt", TextTable::fmt(results.snnWt * 100.0),
                  TextTable::fmt(core::paper::kSnnWtAccuracyPct)});
    csv.writeRow({"snn_wot", TextTable::fmt(results.snnWot * 100.0),
                  TextTable::fmt(core::paper::kSnnWotAccuracyPct)});
    csv.writeRow({"snn_bp", TextTable::fmt(results.snnBp * 100.0),
                  TextTable::fmt(core::paper::kSnnBpAccuracyPct)});
    csv.writeRow({"mlp_bp", TextTable::fmt(results.mlpBp * 100.0),
                  TextTable::fmt(core::paper::kMlpBpAccuracyPct)});

    const bool ordering_holds = results.mlpBp >= results.snnBp - 0.02 &&
        results.snnBp > results.snnWt - 0.02;
    std::cout << (ordering_holds
                      ? "RESULT: ordering MLP+BP >= SNN+BP > SNN+STDP "
                        "reproduced\n"
                      : "RESULT: ordering NOT reproduced -- inspect "
                        "training budget\n");
    return 0;
}
