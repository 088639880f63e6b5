/**
 * @file
 * Spike coding playground: encode one image under all six coding
 * schemes (four rate codes, two temporal codes), print raster
 * statistics and an ASCII raster, then compare how a trained SNN
 * classifies under each.
 *
 * Run:  ./coding_schemes [train=1500] [test=400]
 */

#include <cstdio>
#include <iostream>
#include <vector>

#include "neuro/common/config.h"
#include "neuro/common/rng.h"
#include "neuro/common/table.h"
#include "neuro/core/experiment.h"

namespace {

/** Print a coarse ASCII raster: time buckets x first 24 pixels. */
void
printRaster(const neuro::snn::PackedSpikeGrid &grid)
{
    constexpr std::size_t kBuckets = 50;
    const auto period = static_cast<std::size_t>(grid.periodMs());
    const std::size_t shown = std::min<std::size_t>(grid.numInputs(), 24);
    std::vector<std::vector<char>> raster(
        shown, std::vector<char>(kBuckets, '.'));
    for (std::size_t k = 0; k < grid.activeTickCount(); ++k) {
        const auto t = static_cast<std::size_t>(grid.activeTicks()[k]);
        std::size_t count = 0;
        const uint16_t *inputs = grid.inputsAt(k, &count);
        for (std::size_t s = 0; s < count; ++s) {
            if (inputs[s] < shown)
                raster[inputs[s]][t * kBuckets / period] = '|';
        }
    }
    for (std::size_t p = 0; p < shown; ++p) {
        std::printf("  px%02zu ", p);
        for (char c : raster[p])
            std::putchar(c);
        std::putchar('\n');
    }
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace neuro;
    Config cfg;
    cfg.parseArgs(argc, argv);
    const auto train =
        static_cast<std::size_t>(cfg.getInt("train", 1500));
    const auto test = static_cast<std::size_t>(cfg.getInt("test", 400));

    core::Workload w = core::makeMnistWorkload(train, test, 1);
    const auto &image = w.data.train[0];

    const std::vector<snn::CodingScheme> schemes = {
        snn::CodingScheme::RatePoisson,
        snn::CodingScheme::RateGaussian,
        snn::CodingScheme::RateRegular,
        snn::CodingScheme::RateBernoulli,
        snn::CodingScheme::TimeToFirstSpike,
        snn::CodingScheme::RankOrder,
    };

    // 1. Encoding statistics for one image under every scheme.
    TextTable stats("one image under each coding scheme");
    stats.setHeader({"Scheme", "Total spikes", "Spikes/bright px"});
    Rng rng(3);
    snn::PackedSpikeGrid grid;
    for (auto scheme : schemes) {
        snn::CodingConfig coding;
        coding.scheme = scheme;
        const snn::SpikeEncoder encoder(coding);
        encoder.encodePacked(image.pixels.data(), image.pixels.size(), rng,
                             grid);
        std::size_t bright = 0;
        for (uint8_t p : image.pixels)
            if (p > 128)
                ++bright;
        stats.addRow({snn::codingSchemeName(scheme),
                      TextTable::num(static_cast<long long>(
                          grid.totalSpikes())),
                      TextTable::fmt(static_cast<double>(
                                         grid.totalSpikes()) /
                                         static_cast<double>(bright),
                                     2)});
    }
    stats.print(std::cout);

    // 2. A raster snippet for the reference rate code.
    std::printf("\nPoisson-rate raster (first 24 pixels, 500 ms -> 50 "
                "columns):\n");
    snn::CodingConfig coding;
    const snn::SpikeEncoder encoder(coding);
    // Use a patch from the image centre so some pixels carry ink.
    std::vector<uint8_t> patch(image.pixels.begin() + 14 * 28 + 2,
                               image.pixels.begin() + 14 * 28 + 26);
    encoder.encodePacked(patch.data(), patch.size(), rng, grid);
    printRaster(grid);

    // 3. Train one SNN per scheme family and compare accuracies.
    std::printf("\ntraining a small SNN+STDP per scheme (this is the "
                "Figure 14 experiment in miniature)...\n");
    TextTable acc_table("SNN+STDP accuracy per coding scheme");
    acc_table.setHeader({"Scheme", "Accuracy (%)"});
    for (auto scheme : schemes) {
        snn::SnnConfig config =
            core::defaultSnnConfig(w, w.data.train.size());
        config.numNeurons = 60;
        config.coding.scheme = scheme;
        if (scheme == snn::CodingScheme::TimeToFirstSpike ||
            scheme == snn::CodingScheme::RankOrder) {
            config.initialThreshold /= 6.0; // single-spike codes.
        }
        snn::SnnTrainConfig train_cfg;
        train_cfg.epochs = 2;
        const double acc = snn::trainAndEvaluateStdp(
            config, train_cfg, w.data.train, w.data.test,
            snn::EvalMode::Wt, 11);
        acc_table.addRow({snn::codingSchemeName(scheme),
                          TextTable::pct(acc)});
    }
    acc_table.addNote("expect the rate codes to cluster together above "
                      "the two temporal codes (paper Figure 14)");
    acc_table.print(std::cout);
    return 0;
}
