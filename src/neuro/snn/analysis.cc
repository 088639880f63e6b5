#include "neuro/snn/analysis.h"

#include <algorithm>

#include "neuro/common/logging.h"
#include "neuro/snn/snn_wot.h"

namespace neuro {
namespace snn {

SelectivityReport
neuronSelectivity(const SnnNetwork &net, const datasets::Dataset &data,
                  std::size_t max_samples)
{
    NEURO_ASSERT(!data.empty(), "empty dataset");
    const std::size_t num_neurons = net.config().numNeurons;
    const int num_classes = data.numClasses();
    SelectivityReport report;
    report.numClasses = num_classes;
    report.response.assign(num_neurons *
                               static_cast<std::size_t>(num_classes),
                           0.0);
    std::vector<std::size_t> class_counts(
        static_cast<std::size_t>(num_classes), 0);

    const std::size_t samples = std::min(max_samples, data.size());
    const SnnWotDatapath datapath(net);
    std::vector<uint32_t> potentials;
    for (std::size_t i = 0; i < samples; ++i) {
        const auto &sample = data[i];
        datapath.forwardPixels(sample.pixels.data(), &potentials);
        const auto c = static_cast<std::size_t>(sample.label);
        ++class_counts[c];
        for (std::size_t n = 0; n < num_neurons; ++n) {
            report.response[n * static_cast<std::size_t>(num_classes) +
                            c] += static_cast<double>(potentials[n]);
        }
    }
    for (std::size_t n = 0; n < num_neurons; ++n) {
        for (int c = 0; c < num_classes; ++c) {
            const auto cs = static_cast<std::size_t>(c);
            if (class_counts[cs] > 0) {
                report.response[n * static_cast<std::size_t>(
                                        num_classes) +
                                cs] /=
                    static_cast<double>(class_counts[cs]);
            }
        }
    }

    report.preferredClass.assign(num_neurons, -1);
    report.selectivity.assign(num_neurons, 0.0);
    for (std::size_t n = 0; n < num_neurons; ++n) {
        const double *row = report.response.data() +
            n * static_cast<std::size_t>(num_classes);
        double best = -1.0, total = 0.0;
        int best_class = -1;
        for (int c = 0; c < num_classes; ++c) {
            total += row[c];
            if (row[c] > best) {
                best = row[c];
                best_class = c;
            }
        }
        report.preferredClass[n] = best_class;
        if (best > 0.0 && num_classes > 1) {
            const double others =
                (total - best) / static_cast<double>(num_classes - 1);
            report.selectivity[n] =
                std::clamp(1.0 - others / best, 0.0, 1.0);
        }
    }
    return report;
}

} // namespace snn
} // namespace neuro
