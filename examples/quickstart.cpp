/**
 * @file
 * Quickstart: train the paper's two models on a small digit workload,
 * compare their accuracy, and price both accelerators in 65nm.
 *
 * Run:  ./quickstart [train=2000] [test=500] [epochs=6]
 */

#include <cstdio>
#include <iostream>

#include "neuro/common/config.h"
#include "neuro/common/rng.h"
#include "neuro/common/table.h"
#include "neuro/core/experiment.h"
#include "neuro/hw/folded.h"

int
main(int argc, char **argv)
{
    using namespace neuro;
    Config cfg;
    cfg.parseArgs(argc, argv);
    const auto train_size =
        static_cast<std::size_t>(cfg.getInt("train", 2000));
    const auto test_size =
        static_cast<std::size_t>(cfg.getInt("test", 500));
    const auto epochs = static_cast<std::size_t>(cfg.getInt("epochs", 6));

    // 1. A labeled image workload (synthetic MNIST stand-in, or the real
    //    files when NEURO_MNIST_DIR is set).
    core::Workload w = core::makeMnistWorkload(train_size, test_size, 1);
    std::printf("workload: %zu train / %zu test, %zux%zu pixels\n",
                w.data.train.size(), w.data.test.size(),
                w.data.train.width(), w.data.train.height());

    // 2. Machine-learning side: MLP + back-propagation.
    mlp::TrainConfig mlp_train = core::defaultMlpTrainConfig();
    mlp_train.epochs = epochs;
    const double mlp_acc =
        mlp::trainAndEvaluate(core::defaultMlpConfig(w), mlp_train,
                              w.data.train, w.data.test, 42);
    std::printf("MLP+BP  (784-100-10): %.2f%% test accuracy\n",
                mlp_acc * 100.0);

    // 3. Neuroscience side: SNN + STDP (unsupervised) + self-labeling.
    snn::SnnConfig snn_cfg =
        core::defaultSnnConfig(w, w.data.train.size());
    Rng rng(7);
    snn::SnnNetwork net(snn_cfg, rng);
    snn::SnnStdpTrainer trainer(snn_cfg);
    snn::SnnTrainConfig snn_train;
    snn_train.epochs = std::max<std::size_t>(2, epochs / 2);
    trainer.train(net, w.data.train, snn_train);
    const auto labels =
        trainer.labelNeurons(net, w.data.train, snn::EvalMode::Wt, 9);
    const auto snn_res =
        trainer.evaluate(net, labels, w.data.test, snn::EvalMode::Wt, 10);
    std::printf("SNN+STDP (784-%zu):    %.2f%% test accuracy\n",
                snn_cfg.numNeurons, snn_res.accuracy * 100.0);

    // 4. Hardware: price a folded accelerator for each at ni = 16.
    const hw::Design mlp_hw = hw::buildFoldedMlp(w.mlpTopo, 16);
    const hw::Design snn_hw = hw::buildFoldedSnnWot(w.snnTopo, 16);
    TextTable table("folded accelerators at ni = 16 (TSMC 65nm model)");
    table.setHeader({"Design", "Area (mm2)", "Delay (ns)", "Energy/img",
                     "Cycles/img"});
    for (const hw::Design *d : {&mlp_hw, &snn_hw}) {
        table.addRow({d->name(), TextTable::fmt(d->totalAreaMm2()),
                      TextTable::fmt(d->clockNs()),
                      TextTable::fmt(d->totalEnergyPerImageUj(), 3) + " uJ",
                      TextTable::num(static_cast<long long>(
                          d->cyclesPerImage()))});
    }
    table.print(std::cout);

    std::printf("\nconclusion: MLP wins on accuracy and on folded cost; "
                "see the bench/ binaries for the paper's full tables.\n");
    return 0;
}
