/**
 * @file
 * Fault-tolerance sweep: stuck-at and bit-flip faults injected into the
 * quantized synaptic storage of both accelerators. Graceful degradation
 * under defects is the founding premise of the hardware-NN accelerator
 * line the paper extends (Temam, ISCA 2012 [6]); this bench quantifies
 * it for the MLP and SNNwot datapaths side by side.
 *
 * Knobs: train=N test=N (and NEURO_SCALE).
 */

#include <iostream>

#include "neuro/common/config.h"
#include "neuro/common/csv.h"
#include "neuro/common/rng.h"
#include "neuro/common/table.h"
#include "neuro/core/experiment.h"
#include "neuro/core/faults.h"

int
main(int argc, char **argv)
{
    using namespace neuro;
    Config cfg;
    cfg.parseArgs(argc, argv);
    const auto train =
        static_cast<std::size_t>(cfg.getInt("train", 2500));
    const auto test = static_cast<std::size_t>(cfg.getInt("test", 600));

    core::Workload w = core::makeMnistWorkload(train, test, 1);
    const std::vector<double> rates = {0.0, 0.005, 0.02, 0.05, 0.10,
                                       0.20};

    // Train both models once.
    mlp::TrainConfig mlp_train = core::defaultMlpTrainConfig();
    Rng rng(42);
    mlp::Mlp mlp_net(core::defaultMlpConfig(w), rng);
    mlp::train(mlp_net, w.data.train, mlp_train);

    snn::SnnConfig snn_config =
        core::defaultSnnConfig(w, w.data.train.size());
    Rng snn_rng(7);
    snn::SnnNetwork snn_net(snn_config, snn_rng);
    snn::SnnStdpTrainer trainer(snn_config);
    snn::SnnTrainConfig snn_train;
    snn_train.epochs = scaled(3, 1);
    trainer.train(snn_net, w.data.train, snn_train);
    const auto labels = trainer.labelNeurons(
        snn_net, w.data.train, snn::EvalMode::Wot, 8);

    TextTable table("synaptic-fault tolerance (accuracy under faulted "
                    "weights)");
    table.setHeader({"Fault model", "Rate", "MLP accuracy",
                     "SNNwot accuracy"});
    CsvWriter csv("bench_fault_tolerance.csv",
                  {"model", "rate", "mlp_acc_pct", "snn_acc_pct"});
    for (core::FaultModel model :
         {core::FaultModel::StuckAtZero, core::FaultModel::StuckAtOne,
          core::FaultModel::BitFlip}) {
        const auto mlp_points =
            core::mlpFaultSweep(mlp_net, w.data.test, rates, model, 11);
        const auto snn_points = core::snnFaultSweep(
            snn_net, labels, w.data.test, rates, model, 13);
        for (std::size_t i = 0; i < rates.size(); ++i) {
            table.addRow({i == 0 ? core::faultModelName(model) : "",
                          TextTable::pct(rates[i], 1),
                          TextTable::pct(mlp_points[i].accuracy),
                          TextTable::pct(snn_points[i].accuracy)});
            csv.writeRow({core::faultModelName(model),
                          TextTable::fmt(rates[i], 3),
                          TextTable::fmt(mlp_points[i].accuracy * 100.0),
                          TextTable::fmt(snn_points[i].accuracy *
                                         100.0)});
        }
        table.addSeparator();
    }
    table.addNote("both datapaths degrade gracefully at low fault "
                  "rates; stuck-at-1 is the most damaging model (it "
                  "saturates the weight)");
    table.print(std::cout);
    return 0;
}
