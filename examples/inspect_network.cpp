/**
 * @file
 * Network inspection: train an SNN+STDP model (or load one saved with
 * `save=path`), render the learned receptive fields as ASCII art and
 * PGM images, and report per-neuron class selectivity — making the
 * STDP specialization the paper describes visible.
 *
 * Run:  ./inspect_network [train=2500] [neurons=48] [save=model.ncmp]
 *       ./inspect_network load=model.ncmp
 */

#include <cstdio>
#include <iostream>
#include <vector>

#include "neuro/common/ascii_art.h"
#include "neuro/common/config.h"
#include "neuro/common/logging.h"
#include "neuro/common/pgm.h"
#include "neuro/common/rng.h"
#include "neuro/common/serialize.h"
#include "neuro/common/stats.h"
#include "neuro/common/table.h"
#include "neuro/core/experiment.h"
#include "neuro/snn/analysis.h"
#include "neuro/snn/serialize.h"

int
main(int argc, char **argv)
{
    using namespace neuro;
    Config cfg;
    cfg.parseArgs(argc, argv);
    const auto train_size =
        static_cast<std::size_t>(cfg.getInt("train", 2500));
    const auto neurons =
        static_cast<std::size_t>(cfg.getInt("neurons", 48));

    core::Workload w = core::makeMnistWorkload(train_size, 400, 1);

    snn::SnnConfig config =
        core::defaultSnnConfig(w, w.data.train.size());
    config.numNeurons = neurons;
    core::retuneSnnForTopology(config, w.data.train.size());
    Rng init_rng(7);
    snn::TrainedSnn model{snn::SnnNetwork(config, init_rng), {}};

    const std::string load_path = cfg.getString("load", "");
    if (!load_path.empty()) {
        Archive archive;
        if (!archive.load(load_path))
            fatal("cannot load model from '%s'", load_path.c_str());
        auto loaded = snn::loadSnn(archive);
        if (!loaded)
            fatal("'%s' does not contain a valid SNN",
                  load_path.c_str());
        model = std::move(*loaded);
        std::printf("loaded %zu-neuron model from %s\n",
                    model.network.config().numNeurons,
                    load_path.c_str());
    } else {
        std::printf("training a %zu-neuron SNN+STDP model...\n",
                    neurons);
        snn::SnnStdpTrainer trainer(model.network.config());
        snn::SnnTrainConfig train;
        train.epochs = scaled(3, 1);
        trainer.train(model.network, w.data.train, train);
        model.labels = trainer.labelNeurons(model.network, w.data.train,
                                            snn::EvalMode::Wt, 9);
        const std::string save_path = cfg.getString("save", "");
        if (!save_path.empty()) {
            Archive archive;
            snn::saveSnn(model.network, model.labels, archive);
            if (archive.save(save_path))
                std::printf("saved model to %s\n", save_path.c_str());
        }
    }

    const auto &net = model.network;
    const std::size_t width = w.data.train.width();
    const std::size_t height = w.data.train.height();

    // Receptive fields of the first 8 neurons, side by side.
    const std::size_t show =
        std::min<std::size_t>(8, net.config().numNeurons);
    std::vector<const float *> fields;
    for (std::size_t n = 0; n < show; ++n)
        fields.push_back(net.weights().row(n));
    std::printf("\nreceptive fields of neurons 0..%zu (labels: ", show - 1);
    for (std::size_t n = 0; n < show; ++n) {
        std::printf("%d%s",
                    n < model.labels.size() ? model.labels[n] : -1,
                    n + 1 < show ? ", " : ")\n");
    }
    std::cout << renderAsciiRow(fields.data(), show, width, height);

    // Export every receptive field as a PGM.
    for (std::size_t n = 0; n < show; ++n) {
        char path[64];
        std::snprintf(path, sizeof(path), "receptive_field_%02zu.pgm", n);
        writePgmNormalized(path, net.weights().row(n), width, height);
    }
    std::printf("wrote receptive_field_00..%02zu.pgm\n", show - 1);

    // Selectivity report.
    const auto report = snn::neuronSelectivity(net, w.data.train, 800);
    Distribution selectivity;
    for (double s : report.selectivity)
        selectivity.sample(s);
    std::printf("\nclass selectivity over %zu neurons: mean %.3f, "
                "max %.3f (0 = untuned, 1 = responds to one class "
                "only)\n",
                report.selectivity.size(), selectivity.mean(),
                selectivity.max());
    std::size_t agreements = 0, labeled = 0;
    for (std::size_t n = 0; n < model.labels.size(); ++n) {
        if (model.labels[n] < 0)
            continue;
        ++labeled;
        if (model.labels[n] == report.preferredClass[n])
            ++agreements;
    }
    if (labeled > 0) {
        std::printf("self-labels agree with potential-based tuning for "
                    "%zu/%zu labeled neurons\n",
                    agreements, labeled);
    }
    return 0;
}
