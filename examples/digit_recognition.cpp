/**
 * @file
 * Digit recognition, end to end: hyper-parameter exploration for the
 * MLP (hidden-layer sweep, as in Figure 8), training at the selected
 * size, 8-bit quantization for the hardware datapath (Section 4.2.1),
 * and a per-class precision/recall breakdown.
 *
 * Run:  ./digit_recognition [train=4000] [test=1000] [epochs=8]
 */

#include <cstdio>
#include <iostream>
#include <vector>

#include "neuro/common/config.h"
#include "neuro/common/rng.h"
#include "neuro/common/table.h"
#include "neuro/core/experiment.h"
#include "neuro/core/explorer.h"
#include "neuro/mlp/quantized.h"

int
main(int argc, char **argv)
{
    using namespace neuro;
    Config cfg;
    cfg.parseArgs(argc, argv);
    const auto train_size =
        static_cast<std::size_t>(cfg.getInt("train", 4000));
    const auto test_size =
        static_cast<std::size_t>(cfg.getInt("test", 1000));
    const auto epochs = static_cast<std::size_t>(cfg.getInt("epochs", 8));

    core::Workload w = core::makeMnistWorkload(train_size, test_size, 1);

    // 1. Explore the hidden-layer size (the paper settled on 100 after
    //    sweeping 10..1000 and finding diminishing returns).
    std::printf("-- hidden-layer exploration --\n");
    const std::vector<std::size_t> sizes = {10, 25, 50, 100};
    const auto sweep = core::sweepMlpHidden(w, sizes, 21);
    std::size_t best_hidden = sizes.front();
    double best_acc = 0.0;
    for (const auto &point : sweep) {
        std::printf("  hidden=%4.0f  accuracy=%.2f%%\n", point.parameter,
                    point.accuracy * 100.0);
        // Prefer the smallest layer within 0.5% of the best seen.
        if (point.accuracy > best_acc + 0.005) {
            best_acc = point.accuracy;
            best_hidden = static_cast<std::size_t>(point.parameter);
        }
    }
    std::printf("selected hidden size: %zu\n\n", best_hidden);

    // 2. Train the selected topology to convergence.
    mlp::MlpConfig config = core::defaultMlpConfig(w);
    config.layerSizes[1] = best_hidden;
    mlp::TrainConfig train = core::defaultMlpTrainConfig();
    train.epochs = epochs;
    Rng rng(42);
    mlp::Mlp net(config, rng);
    mlp::train(net, w.data.train, train,
               [](const mlp::EpochReport &r) {
                   std::printf("  epoch %2zu  train MSE %.5f\n", r.epoch,
                               r.trainError);
               });
    const double float_acc = mlp::evaluate(net, w.data.test);

    // 3. Quantize to the accelerator's 8-bit datapath.
    mlp::QuantizedMlp quant(net);
    const double fixed_acc = quant.evaluate(w.data.test);
    std::printf("\nfloat accuracy:  %.2f%%\n", float_acc * 100.0);
    std::printf("8-bit accuracy:  %.2f%%  (paper: 96.65%% vs 97.65%%)\n",
                fixed_acc * 100.0);

    // 4. Per-class breakdown of the float model's test predictions.
    const auto classes = static_cast<std::size_t>(w.data.test.numClasses());
    std::vector<long long> actual(classes), predicted(classes), hits(classes);
    std::vector<float> input(net.inputSize());
    for (std::size_t i = 0; i < w.data.test.size(); ++i) {
        const datasets::Sample &sample = w.data.test[i];
        for (std::size_t k = 0; k < input.size(); ++k)
            input[k] = static_cast<float>(sample.pixels[k]) / 255.0f;
        const auto truth = static_cast<std::size_t>(sample.label);
        const auto guess = static_cast<std::size_t>(net.predict(input.data()));
        ++actual[truth];
        ++predicted[guess];
        hits[guess] += guess == truth;
    }
    const auto ratio = [](long long n, long long of) {
        return of > 0 ? static_cast<double>(n) / static_cast<double>(of)
                      : 0.0;
    };
    TextTable table("per-class metrics");
    table.setHeader({"Digit", "Samples", "Precision", "Recall"});
    for (std::size_t d = 0; d < classes; ++d) {
        table.addRow({TextTable::num(static_cast<long long>(d)),
                      TextTable::num(actual[d]),
                      TextTable::pct(ratio(hits[d], predicted[d])),
                      TextTable::pct(ratio(hits[d], actual[d]))});
    }
    table.print(std::cout);
    return 0;
}
