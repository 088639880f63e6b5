/**
 * @file
 * Figure 3: spike coding in the SNN — (left) the input spike raster of
 * one image presentation, (right) the neuron membrane potentials
 * rising until the first fires, with refractory/inhibition gating.
 * Emits both series as CSV and prints summary statistics.
 */

#include <algorithm>
#include <iostream>

#include "neuro/common/csv.h"
#include "neuro/common/rng.h"
#include "neuro/common/table.h"
#include "neuro/core/experiment.h"

int
main()
{
    using namespace neuro;
    core::Workload w = core::makeMnistWorkload(500, 100, 1);
    const snn::SnnConfig config =
        core::defaultSnnConfig(w, w.data.train.size());
    Rng rng(7);
    snn::SnnNetwork net(config, rng);
    const snn::SpikeEncoder encoder(config.coding);

    // Present one training image with a full trace.
    Rng spike_rng(42);
    const auto &sample = w.data.train[0];
    snn::PackedSpikeGrid grid;
    encoder.encodePacked(sample.pixels.data(), sample.pixels.size(),
                         spike_rng, grid);
    snn::PresentationTrace trace;
    trace.neuronLimit = 12; // potential lines, as in the figure.
    const auto result = net.presentImage(grid, false, &trace);

    CsvWriter raster("bench_fig3_raster.csv", {"time_ms", "pixel"});
    for (const auto &[t, p] : trace.inputSpikes)
        raster.writeRow(std::vector<double>{static_cast<double>(t),
                                            static_cast<double>(p)});
    CsvWriter potentials("bench_fig3_potentials.csv", {"time_ms",
                                                       "neuron",
                                                       "potential"});
    for (std::size_t t = 0; t < trace.potentials.size(); ++t) {
        for (std::size_t n = 0; n < trace.potentials[t].size(); ++n) {
            potentials.writeRow(std::vector<double>{
                static_cast<double>(t), static_cast<double>(n),
                trace.potentials[t][n]});
        }
    }

    TextTable table("Figure 3 (spike coding summary, one presentation)");
    table.setHeader({"Quantity", "Value"});
    table.addRow({"input spikes",
                  TextTable::num(static_cast<long long>(
                      result.inputSpikeCount))});
    table.addRow({"output spikes",
                  TextTable::num(static_cast<long long>(
                      result.outputSpikeCount))});
    table.addRow({"first firing neuron",
                  TextTable::num(result.firstSpikeNeuron)});
    table.addRow({"first firing time",
                  TextTable::num(result.firstSpikeTimeMs) + " ms"});
    table.addRow({"refractory period",
                  TextTable::num(config.tRefracMs) + " ms"});
    table.addRow({"inhibition period",
                  TextTable::num(config.tInhibitMs) + " ms"});
    table.addNote("raster -> bench_fig3_raster.csv, potentials -> "
                  "bench_fig3_potentials.csv");
    table.print(std::cout);

    // Sanity: potentials rise until the first fire.
    if (result.firstSpikeTimeMs > 1) {
        const auto &row0 = trace.potentials[0];
        const auto &rowT = trace.potentials[static_cast<std::size_t>(
            result.firstSpikeTimeMs - 1)];
        const float max0 = *std::max_element(row0.begin(), row0.end());
        const float maxT = *std::max_element(rowT.begin(), rowT.end());
        std::cout << "max traced potential t=0: " << max0
                  << ", just before first fire: " << maxT << "\n";
    }
    return 0;
}
