/**
 * @file
 * Figure 14: SNN models with different coding schemes — rate coding
 * (Gaussian, plus the Poisson reference) vs the two temporal codes
 * (rank order, time-to-first-spike) across network sizes. The paper's
 * finding: temporal coding is markedly less accurate with STDP
 * (82.14% vs 91.82% at 300 neurons on MNIST).
 *
 * Knobs: train=N test=N neurons=CSV-free list via repeats of the bench.
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
        static_cast<std::size_t>(cfg.getInt("train", 2000));
    const auto test = static_cast<std::size_t>(cfg.getInt("test", 600));

    core::Workload w = core::makeMnistWorkload(train, test, 1);
    const std::vector<snn::CodingScheme> schemes = {
        snn::CodingScheme::RateGaussian,
        snn::CodingScheme::RatePoisson,
        snn::CodingScheme::TimeToFirstSpike,
        snn::CodingScheme::RankOrder,
    };
    const std::vector<std::size_t> sizes = {10, 50, 100, 300};
    const auto points = core::sweepCodingSchemes(w, schemes, sizes, 24);

    TextTable table("Figure 14 (SNN coding schemes vs network size)");
    table.setHeader({"Coding scheme", "# neurons", "Accuracy (%)"});
    CsvWriter csv("bench_fig14_coding.csv",
                  {"scheme", "neurons", "accuracy_pct"});
    snn::CodingScheme last = points.front().scheme;
    double rate_at_max = 0.0, temporal_at_max = 0.0;
    for (const auto &p : points) {
        if (p.scheme != last)
            table.addSeparator();
        last = p.scheme;
        table.addRow({snn::codingSchemeName(p.scheme),
                      TextTable::num(static_cast<long long>(p.neurons)),
                      TextTable::pct(p.accuracy)});
        csv.writeRow({snn::codingSchemeName(p.scheme),
                      TextTable::num(static_cast<long long>(p.neurons)),
                      TextTable::fmt(p.accuracy * 100.0)});
        if (p.neurons == sizes.back()) {
            if (p.scheme == snn::CodingScheme::RateGaussian)
                rate_at_max = p.accuracy;
            if (p.scheme == snn::CodingScheme::RankOrder)
                temporal_at_max = p.accuracy;
        }
    }
    table.addNote("paper at 300 neurons (MNIST): rate 91.82% vs "
                  "temporal 82.14%");
    table.print(std::cout);

    std::cout << "rate vs temporal at " << sizes.back() << " neurons: "
              << TextTable::pct(rate_at_max) << " vs "
              << TextTable::pct(temporal_at_max)
              << (rate_at_max > temporal_at_max
                      ? "  (rate coding wins: reproduced)"
                      : "  (NOT reproduced)")
              << "\n";
    return 0;
}
