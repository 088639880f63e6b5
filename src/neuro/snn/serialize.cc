#include "neuro/snn/serialize.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "neuro/common/rng.h"
#include "neuro/common/serialize.h"

namespace neuro {
namespace snn {

void
saveSnn(const SnnNetwork &net, const std::vector<int> &labels,
        Archive &archive, const std::string &prefix)
{
    const SnnConfig &config = net.config();
    archive.putInts(prefix + ".shape",
                    {static_cast<int64_t>(config.numInputs),
                     static_cast<int64_t>(config.numNeurons)});
    archive.putInts(prefix + ".timing",
                    {config.coding.periodMs, config.coding.minIntervalMs,
                     config.tInhibitMs, config.tRefracMs,
                     static_cast<int64_t>(config.coding.scheme)});
    archive.putScalar(prefix + ".tleak", config.tLeakMs);
    archive.putScalar(prefix + ".threshold0", config.initialThreshold);
    archive.putFloats(prefix + ".weights", net.weights().data());

    std::vector<float> thresholds;
    thresholds.reserve(config.numNeurons);
    for (double threshold : net.thresholds())
        thresholds.push_back(static_cast<float>(threshold));
    archive.putFloats(prefix + ".thresholds", std::move(thresholds));

    std::vector<int64_t> label_values(labels.begin(), labels.end());
    archive.putInts(prefix + ".labels", std::move(label_values));
}

std::optional<TrainedSnn>
loadSnn(const Archive &archive, const std::string &prefix)
{
    // Every record is checked before anything is built from it, so a
    // bad file is refused, never asserted on or sized by a count its
    // payload does not back. A grid indexes inputs as uint16_t, and
    // the weights are divided by the inputs, not compared with a
    // product that may overflow.
    auto allFinite = [](const std::vector<float> &values) {
        return std::all_of(values.begin(), values.end(),
                           [](float v) { return std::isfinite(v); });
    };
    const std::vector<int64_t> *shape = archive.ints(prefix + ".shape");
    const std::vector<float> *weights = archive.floats(prefix + ".weights");
    const std::vector<float> *thresholds =
        archive.floats(prefix + ".thresholds");
    const std::optional<double> tleak = archive.scalar(prefix + ".tleak");
    const std::optional<double> threshold0 =
        archive.scalar(prefix + ".threshold0");
    if (!shape || shape->size() != 2 || (*shape)[0] <= 0 ||
        (*shape)[0] > 65536 || (*shape)[1] <= 0 || !weights ||
        !thresholds || !(tleak > 0.0 && std::isfinite(*tleak)) ||
        !(threshold0 > 0.0 && std::isfinite(*threshold0))) {
        return std::nullopt;
    }
    SnnConfig config;
    config.numInputs = static_cast<std::size_t>((*shape)[0]);
    config.numNeurons = static_cast<std::size_t>((*shape)[1]);
    config.tLeakMs = *tleak;
    config.initialThreshold = *threshold0;
    if (weights->size() % config.numInputs != 0 ||
        weights->size() / config.numInputs != config.numNeurons ||
        thresholds->size() != config.numNeurons || !allFinite(*weights) ||
        !allFinite(*thresholds)) {
        return std::nullopt;
    }
    if (archive.has(prefix + ".timing")) {
        const std::vector<int64_t> *timing =
            archive.ints(prefix + ".timing");
        // The network sizes its decay table by the window.
        constexpr int64_t kMaxTicks = int64_t{1} << 20;
        auto ticks = [&](std::size_t i, int64_t lo) {
            return (*timing)[i] >= lo && (*timing)[i] <= kMaxTicks;
        };
        if (!timing || timing->size() != 5 || !ticks(0, 1) ||
            !ticks(1, 1) || !ticks(2, 0) || !ticks(3, 0) ||
            (*timing)[4] < 0 ||
            (*timing)[4] > static_cast<int64_t>(CodingScheme::RankOrder)) {
            return std::nullopt;
        }
        config.coding.periodMs = static_cast<int>((*timing)[0]);
        config.coding.minIntervalMs = static_cast<int>((*timing)[1]);
        config.tInhibitMs = static_cast<int>((*timing)[2]);
        config.tRefracMs = static_cast<int>((*timing)[3]);
        config.coding.scheme = static_cast<CodingScheme>((*timing)[4]);
    }
    std::vector<int> labels;
    if (archive.has(prefix + ".labels")) {
        const std::vector<int64_t> *stored = archive.ints(prefix + ".labels");
        if (!stored || stored->size() != config.numNeurons)
            return std::nullopt;
        for (int64_t label : *stored) {
            if (label < -1 || label > std::numeric_limits<int>::max())
                return std::nullopt;
            labels.push_back(static_cast<int>(label));
        }
    }

    Rng rng(1); // weights are replaced below.
    TrainedSnn model{SnnNetwork(config, rng), std::move(labels)};
    Matrix loaded(config.numNeurons, config.numInputs);
    loaded.data() = *weights;
    model.network.setWeights(std::move(loaded));
    for (std::size_t n = 0; n < config.numNeurons; ++n)
        model.network.thresholds()[n] = (*thresholds)[n];
    return model;
}

} // namespace snn
} // namespace neuro
