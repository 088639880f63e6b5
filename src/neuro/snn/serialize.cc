#include "neuro/snn/serialize.h"

#include "neuro/common/logging.h"
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
    if (!archive.has(prefix + ".shape") ||
        !archive.has(prefix + ".weights") ||
        !archive.has(prefix + ".thresholds")) {
        return std::nullopt;
    }
    const auto &shape = archive.ints(prefix + ".shape");
    if (shape.size() != 2 || shape[0] <= 0 || shape[1] <= 0)
        return std::nullopt;

    SnnConfig config;
    config.numInputs = static_cast<std::size_t>(shape[0]);
    config.numNeurons = static_cast<std::size_t>(shape[1]);
    if (archive.has(prefix + ".timing")) {
        const auto &timing = archive.ints(prefix + ".timing");
        if (timing.size() != 5 || timing[0] <= 0)
            return std::nullopt;
        config.coding.periodMs = static_cast<int>(timing[0]);
        config.coding.minIntervalMs = static_cast<int>(timing[1]);
        config.tInhibitMs = static_cast<int>(timing[2]);
        config.tRefracMs = static_cast<int>(timing[3]);
        config.coding.scheme = static_cast<CodingScheme>(timing[4]);
    }
    config.tLeakMs = archive.scalar(prefix + ".tleak");
    config.initialThreshold = archive.scalar(prefix + ".threshold0");

    Rng rng(1); // weights are overwritten below.
    TrainedSnn model{SnnNetwork(config, rng), {}};

    const auto &weights = archive.floats(prefix + ".weights");
    if (weights.size() != model.network.weights().size())
        return std::nullopt;
    model.network.weights().data() = weights;

    const auto &thresholds = archive.floats(prefix + ".thresholds");
    if (thresholds.size() != config.numNeurons)
        return std::nullopt;
    for (std::size_t n = 0; n < config.numNeurons; ++n)
        model.network.thresholds()[n] = thresholds[n];

    if (archive.has(prefix + ".labels")) {
        for (int64_t label : archive.ints(prefix + ".labels"))
            model.labels.push_back(static_cast<int>(label));
        if (model.labels.size() != config.numNeurons)
            return std::nullopt;
    }
    return model;
}

} // namespace snn
} // namespace neuro
