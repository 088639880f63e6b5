#include "neuro/snn/trainer.h"

#include <algorithm>
#include <vector>

#include "neuro/common/logging.h"
#include "neuro/common/parallel.h"
#include "neuro/common/profile.h"
#include "neuro/common/rng.h"
#include "neuro/snn/labeling.h"

namespace neuro {
namespace snn {

SnnStdpTrainer::SnnStdpTrainer(const SnnConfig &config)
    : encoder_(config.coding),
      codingHash_(codingConfigHash(config.coding))
{
}

std::shared_ptr<const PackedSpikeGrid>
SnnStdpTrainer::gridFor(const datasets::Dataset &data, std::size_t index,
                        uint64_t seed) const
{
    const auto &pixels = data[index].pixels;
    GridKey key;
    key.sampleIndex = index;
    key.streamSeed = deriveStreamSeed(seed, index);
    key.pixelHash = gridPixelHash(pixels.data(), pixels.size());
    key.codingHash = codingHash_;
    if (auto grid = gridCache_.find(key))
        return grid;
    Rng rng(key.streamSeed);
    PackedSpikeGrid grid;
    encoder_.encodePacked(pixels.data(), pixels.size(), rng, grid);
    return gridCache_.insert(key, std::move(grid));
}

void
SnnStdpTrainer::train(SnnNetwork &net, const datasets::Dataset &data,
                      const SnnTrainConfig &config,
                      const SnnEpochCallback &callback)
{
    NEURO_ASSERT(!data.empty(), "cannot train on an empty dataset");
    NEURO_ASSERT(data.inputSize() == net.config().numInputs,
                 "dataset input size %zu != SNN inputs %zu",
                 data.inputSize(), net.config().numInputs);

    NEURO_PROFILE_SCOPE("snn/train");
    Rng rng(config.seed); // presentation order only; see SnnTrainConfig.
    const std::size_t n = data.size();
    std::vector<uint32_t> order(n);
    rng.shuffle(order.data(), n);

    for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
        NEURO_PROFILE_SCOPE("snn/train/epoch");
        rng.shuffle(order.data(), n);
        SnnEpochReport report;
        report.epoch = epoch;
        for (std::size_t step = 0; step < n; ++step) {
            const std::size_t idx = order[step];
            const auto grid = gridFor(data, idx, config.seed);
            const PresentationResult r =
                net.present(*grid, /*learn=*/true);
            report.outputSpikes += r.outputSpikeCount;
            if (r.outputSpikeCount == 0)
                ++report.silentImages;
        }
        obsCount<"snn.images_presented">(n);
        obsSample<"snn.epoch_output_spikes">(
            static_cast<double>(report.outputSpikes));
        if (callback)
            callback(report);
    }
}

namespace {

/** Shard the evaluation range into runs that amortize a worker's setup,
 *  while leaving the pool enough chunks to balance the
 *  (sample-dependent) presentation cost. */
std::size_t
evalGrain(std::size_t n)
{
    const std::size_t threads = parallelThreadCount();
    return std::max<std::size_t>(8, n / (threads * 4));
}

/** The SNNwot winner of every sample: one shared const datapath,
 *  integer arithmetic, so any sharding gives the same winners. */
std::vector<int>
wotWinners(const SnnWotDatapath &datapath, const datasets::Dataset &data)
{
    NEURO_ASSERT(data.inputSize() == datapath.numInputs(),
                 "dataset input size != SNNwot inputs");
    const std::size_t n = data.size();
    std::vector<int> winners(n);
    parallelForRange(0, n, evalGrain(n), [&](std::size_t i0,
                                             std::size_t i1) {
        NEURO_PROFILE_SCOPE("snn/eval/shard");
        for (std::size_t i = i0; i < i1; ++i)
            winners[i] = datapath.forwardPixels(data[i].pixels.data());
    });
    return winners;
}

/** Accuracy of @p winners under @p labels (none silent). */
SnnEvalResult
scoreWinners(const std::vector<int> &winners,
             const std::vector<int> &labels, const datasets::Dataset &data)
{
    SnnEvalResult result;
    std::size_t correct = 0;
    for (std::size_t i = 0; i < data.size(); ++i) {
        if (winners[i] >= 0 &&
            labels[static_cast<std::size_t>(winners[i])] ==
                data[i].label) {
            ++correct;
        }
    }
    result.accuracy =
        static_cast<double>(correct) / static_cast<double>(data.size());
    return result;
}

} // namespace

std::vector<int>
SnnStdpTrainer::winnersFor(const SnnNetwork &net,
                           const datasets::Dataset &data, uint64_t seed,
                           std::vector<uint8_t> *fired) const
{
    const std::size_t n = data.size();
    std::vector<int> winners(n, -1);
    if (fired)
        fired->assign(n, 0);

    // One task per shard: a worker-local copy of the frozen network
    // (presentations scribble on neuron dynamics), and one encoding
    // per sample keyed by (seed, i) via SplitMix64 — spike encodings
    // do not depend on iteration order, so any thread count produces
    // the same winners. Encodings are served from the grid cache
    // (thread-safe), so a second pass over the same data re-presents
    // without re-encoding.
    parallelForRange(0, n, evalGrain(n), [&](std::size_t i0,
                                             std::size_t i1) {
        NEURO_PROFILE_SCOPE("snn/eval/shard");
        SnnNetwork local(net);
        for (std::size_t i = i0; i < i1; ++i) {
            const auto grid = gridFor(data, i, seed);
            bool spiked = false;
            winners[i] = local.firstSpikeWinner(*grid, &spiked);
            if (fired)
                (*fired)[i] = spiked;
        }
    });
    return winners;
}

std::vector<int>
SnnStdpTrainer::labelNeurons(SnnNetwork &net, const datasets::Dataset &data,
                             EvalMode mode, uint64_t seed)
{
    NEURO_ASSERT(!data.empty(), "cannot label on an empty dataset");
    NEURO_PROFILE_SCOPE("snn/label");
    const std::vector<int> winners = mode == EvalMode::Wot
        ? wotWinners(SnnWotDatapath(net), data)
        : winnersFor(net, data, seed, nullptr);
    // Reduce in index order; integer win counters make the labeling
    // independent of how the shards were scheduled anyway.
    SelfLabeling labeling(net.config().numNeurons, data.numClasses());
    for (std::size_t i = 0; i < data.size(); ++i) {
        if (winners[i] >= 0)
            labeling.record(static_cast<std::size_t>(winners[i]),
                            data[i].label);
    }
    return labeling.finalize(data.classHistogram());
}

SnnEvalResult
SnnStdpTrainer::evaluate(SnnNetwork &net, const std::vector<int> &labels,
                         const datasets::Dataset &data, EvalMode mode,
                         uint64_t seed)
{
    NEURO_ASSERT(labels.size() == net.config().numNeurons,
                 "labels size mismatch");
    NEURO_ASSERT(!data.empty(), "cannot evaluate on an empty dataset");
    NEURO_PROFILE_SCOPE("snn/eval");
    if (mode == EvalMode::Wot)
        return evaluateWot(SnnWotDatapath(net), labels, data);
    std::vector<uint8_t> fired;
    SnnEvalResult result =
        scoreWinners(winnersFor(net, data, seed, &fired), labels, data);
    result.silent = static_cast<std::size_t>(
        std::count(fired.begin(), fired.end(), uint8_t{0}));
    return result;
}

SnnEvalResult
evaluateWot(const SnnWotDatapath &datapath, const std::vector<int> &labels,
            const datasets::Dataset &data)
{
    NEURO_ASSERT(labels.size() == datapath.numNeurons(),
                 "labels size mismatch");
    NEURO_ASSERT(!data.empty(), "cannot evaluate on an empty dataset");
    return scoreWinners(wotWinners(datapath, data), labels, data);
}

double
trainAndEvaluateStdp(const SnnConfig &config,
                     const SnnTrainConfig &train_config,
                     const datasets::Dataset &train_set,
                     const datasets::Dataset &test_set, EvalMode mode,
                     uint64_t init_seed)
{
    Rng rng(init_seed);
    SnnNetwork net(config, rng);
    SnnStdpTrainer trainer(config);
    trainer.train(net, train_set, train_config);
    const auto labels = trainer.labelNeurons(net, train_set, mode,
                                             train_config.seed + 101);
    return trainer
        .evaluate(net, labels, test_set, mode, train_config.seed + 202)
        .accuracy;
}

} // namespace snn
} // namespace neuro
