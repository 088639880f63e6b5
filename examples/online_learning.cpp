/**
 * @file
 * Permanent online learning — the niche where the paper concludes
 * SNN+STDP accelerators shine (Section 4.4): the network learns *while*
 * being used. This example streams images through an SNN+STDP model,
 * measures prequential (test-then-train) accuracy over the stream, and
 * prices the STDP circuit overhead of the corresponding hardware.
 *
 * Run:  ./online_learning [stream=6000] [window=500]
 */

#include <cstdio>
#include <deque>
#include <iostream>

#include "neuro/common/config.h"
#include "neuro/common/rng.h"
#include "neuro/common/table.h"
#include "neuro/core/experiment.h"
#include "neuro/hw/stdp_hw.h"
#include "neuro/snn/labeling.h"

int
main(int argc, char **argv)
{
    using namespace neuro;
    Config cfg;
    cfg.parseArgs(argc, argv);
    const auto stream_len =
        static_cast<std::size_t>(cfg.getInt("stream", 6000));
    const auto window =
        static_cast<std::size_t>(cfg.getInt("window", 500));

    core::Workload w =
        core::makeMnistWorkload(stream_len, /*test=*/200, 1);
    const datasets::Dataset &stream = w.data.train;

    snn::SnnConfig config = core::defaultSnnConfig(w, stream.size());
    Rng rng(7);
    snn::SnnNetwork net(config, rng);
    snn::SpikeEncoder encoder(config.coding);
    Rng spike_rng(11);
    snn::PackedSpikeGrid grid;

    // Online label estimation: running win counters, re-finalized on the
    // fly — exactly the self-labeling circuit a deployed STDP
    // accelerator would keep next to each neuron.
    snn::SelfLabeling labeling(config.numNeurons, stream.numClasses());
    std::vector<std::size_t> label_counts(
        static_cast<std::size_t>(stream.numClasses()), 0);

    std::printf("streaming %zu images (test-then-train)...\n",
                stream.size());
    std::size_t correct_in_window = 0, seen_in_window = 0;
    for (std::size_t i = 0; i < stream.size(); ++i) {
        const auto &sample = stream[i];
        encoder.encodePacked(sample.pixels.data(), sample.pixels.size(),
                             spike_rng, grid);
        // Test: predict with the labels learned so far...
        const auto labels = labeling.finalize(label_counts);
        // ...while the same presentation also learns (STDP is online:
        // no separate training phase).
        const auto result = net.present(grid);
        const int winner = result.winner();
        if (winner >= 0 &&
            labels[static_cast<std::size_t>(winner)] == sample.label) {
            ++correct_in_window;
        }
        ++seen_in_window;
        // Update the label statistics from the observed outcome.
        if (winner >= 0)
            labeling.record(static_cast<std::size_t>(winner),
                            sample.label);
        ++label_counts[static_cast<std::size_t>(sample.label)];

        if (seen_in_window == window || i + 1 == stream.size()) {
            std::printf("  images %6zu..%6zu  prequential accuracy "
                        "%.2f%%\n",
                        i + 1 - seen_in_window, i + 1,
                        100.0 * static_cast<double>(correct_in_window) /
                            static_cast<double>(seen_in_window));
            correct_in_window = 0;
            seen_in_window = 0;
        }
    }

    // Hardware cost of adding STDP to the folded SNNwt (Table 9).
    TextTable table("STDP circuit overhead (folded SNNwt, Table 9)");
    table.setHeader({"ni", "Inference area", "Learning area",
                     "Area ratio", "Energy ratio"});
    for (std::size_t ni : {1UL, 4UL, 8UL, 16UL}) {
        const hw::Design inference =
            hw::buildFoldedSnnWt(w.snnTopo, ni);
        const hw::Design learning =
            hw::buildFoldedSnnStdp(w.snnTopo, ni);
        const auto overhead = hw::stdpOverhead(w.snnTopo, ni);
        table.addRow({TextTable::num(static_cast<long long>(ni)),
                      TextTable::fmt(inference.totalAreaMm2()) + " mm2",
                      TextTable::fmt(learning.totalAreaMm2()) + " mm2",
                      TextTable::fmt(overhead.areaRatio) + "x",
                      TextTable::fmt(overhead.energyRatio) + "x"});
    }
    table.print(std::cout);
    std::printf("\nonline learning never stopped the network from being "
                "used: that is STDP's edge over BP.\n");
    return 0;
}
