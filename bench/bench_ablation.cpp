/**
 * @file
 * Design-choice ablations for the SNN+STDP model — each row isolates
 * one mechanism DESIGN.md calls out:
 *   - homeostasis on/off (paper: worth ~5% accuracy);
 *   - WTA potential reset on/off (the lateral-inhibition strength);
 *   - soft vs hard STDP weight bounds;
 *   - Poisson vs Gaussian spike generation (the hardware uses the
 *     cheaper Gaussian CLT generator, Section 4.2.2);
 *   - event-driven closed-form leak vs discrete integration (identical
 *     dynamics; the bench measures the simulation-speed gain).
 *
 * Knobs: train=N test=N (and NEURO_SCALE).
 */

#include <chrono>
#include <iostream>

#include "neuro/common/config.h"
#include "neuro/common/table.h"
#include "neuro/core/experiment.h"
#include "neuro/snn/lif.h"

namespace {

double
runVariant(const neuro::core::Workload &w, neuro::snn::SnnConfig config)
{
    neuro::snn::SnnTrainConfig train;
    train.epochs = neuro::scaled(3, 1);
    return neuro::snn::trainAndEvaluateStdp(
        config, train, w.data.train, w.data.test,
        neuro::snn::EvalMode::Wt, 7);
}

} // namespace

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
    const snn::SnnConfig base =
        core::defaultSnnConfig(w, w.data.train.size());

    TextTable table("SNN+STDP design-choice ablations");
    table.setHeader({"Variant", "Accuracy (%)", "Delta vs baseline"});
    const double baseline = runVariant(w, base);
    table.addRow({"baseline (paper defaults)", TextTable::pct(baseline),
                  "-"});

    auto ablate = [&](const char *name, snn::SnnConfig config) {
        const double acc = runVariant(w, std::move(config));
        table.addRow({name, TextTable::pct(acc),
                      TextTable::fmt((acc - baseline) * 100.0) + "pp"});
    };

    {
        snn::SnnConfig config = base;
        config.homeostasis.enabled = false;
        ablate("no homeostasis (paper: ~-5%)", config);
    }
    {
        snn::SnnConfig config = base;
        config.wtaReset = false;
        ablate("no WTA potential reset", config);
    }
    {
        snn::SnnConfig config = base;
        config.stdp.softBounds = false;
        ablate("hard STDP bounds", config);
    }
    {
        snn::SnnConfig config = base;
        config.coding.scheme = snn::CodingScheme::RateGaussian;
        ablate("Gaussian spike generation (hw RNG)", config);
    }
    table.addNote("Gaussian-vs-Poisson is the paper's Section 4.2.2 "
                  "claim: accuracy does not change noticeably, and the "
                  "CLT generator is far cheaper in silicon");
    table.print(std::cout);

    // Event-driven vs discrete leak: identical results, different cost.
    const int steps = 1000000;
    double v1 = 5000.0, v2 = 5000.0;
    auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < steps; ++i)
        v1 = snn::lifDecay(v1 + 100.0, 50.0, 500.0);
    auto t1 = std::chrono::steady_clock::now();
    for (int i = 0; i < steps; ++i)
        v2 = snn::lifDecayDiscrete(v2 + 100.0, 50.0, 500.0, 50);
    auto t2 = std::chrono::steady_clock::now();
    const double closed =
        std::chrono::duration<double>(t1 - t0).count();
    const double discrete =
        std::chrono::duration<double>(t2 - t1).count();
    std::cout << "\nevent-driven closed-form leak vs 1 ms-step "
                 "integration over 50 ms intervals: "
              << TextTable::fmt(discrete / closed, 1)
              << "x speedup (final potentials differ by "
              << TextTable::fmt(std::abs(v1 - v2) /
                                    std::max(1.0, std::abs(v1)) * 100.0,
                                2)
              << "%), which is why the paper derives the analytical "
                 "solution for hardware.\n";
    return 0;
}
