#include "neuro/snn/trainer.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "neuro/common/logging.h"
#include "neuro/common/mutex.h"
#include "neuro/common/parallel.h"
#include "neuro/common/profile.h"
#include "neuro/common/rng.h"
#include "neuro/snn/labeling.h"

namespace neuro {
namespace snn {

GridCacheStats
GridStore::stats() const
{
    MutexGuard lock(mutex_);
    return stats_;
}

void
GridStore::reset(std::size_t n)
{
    slots_.clear();
    slots_.resize(n);
    MutexGuard lock(mutex_);
    bytes_ = 0;
    stats_ = {};
}

bool
GridStore::admit(std::size_t index,
                 std::unique_ptr<const PackedSpikeGrid> &grid)
{
    const std::size_t bytes = grid->bytes();
    {
        MutexGuard lock(mutex_);
        if (bytes_ + bytes > budgetBytes_) {
            ++stats_.evictions;
            obsCount<"snn.grid_cache.evictions">();
            return false;
        }
        bytes_ += bytes;
        ++stats_.misses;
        ++stats_.entries;
    }
    obsCount<"snn.grid_cache.misses">();
    slots_[index] = std::move(grid);
    return true;
}

void
GridStore::countEpochHits()
{
    MutexGuard lock(mutex_);
    stats_.hits += stats_.entries;
    obsCount<"snn.grid_cache.hits">(stats_.entries);
}

SnnStdpTrainer::SnnStdpTrainer(const SnnConfig &config)
    : encoder_(config.coding)
{
}

std::unique_ptr<const PackedSpikeGrid>
SnnStdpTrainer::gridFor(const datasets::Dataset &data, std::size_t index,
                        uint64_t seed) const
{
    // Encode into this thread's reused grid, then copy it out sized to
    // its events.
    thread_local PackedSpikeGrid scratch;
    const auto &pixels = data[index].pixels;
    Rng rng(deriveStreamSeed(seed, index));
    encoder_.encodePacked(pixels.data(), pixels.size(), rng, scratch);
    return std::make_unique<const PackedSpikeGrid>(scratch.compactCopy());
}

void
SnnStdpTrainer::storeGrids(const datasets::Dataset &data, uint64_t seed)
{
    const std::size_t n = data.size();
    store_.reset(n);
    // Task j encodes the samples [n * j / m, n * (j + 1) / m) on the
    // same thread in every train() (parallelInvoke runs task 0 on the
    // caller and each other task on its own worker), so each thread's
    // malloc arena holds the same share of the store every time.
    // Grids are a function of (seed, index): any split makes the same
    // grids.
    const std::size_t tasks = std::min(parallelWidth(), n);
    std::vector<std::function<void()>> shares;
    for (std::size_t j = 0; j < tasks; ++j) {
        shares.emplace_back([&, j] {
            for (std::size_t i = n * j / tasks; i < n * (j + 1) / tasks;
                 ++i) {
                auto grid = gridFor(data, i, seed);
                // A grid the full store refuses is encoded again
                // wherever it is presented.
                store_.admit(i, grid);
            }
        });
    }
    parallelInvoke(std::move(shares));
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
    storeGrids(data, config.seed);

    // Every presentation is walked by a team that splits the neurons
    // (docs/parallelism.md, "Neuron-split STDP training"); a team of
    // one is the one-member walk.
    PresentationTeam team(net, PresentationTeam::sizeFor(net.config(),
                                                         parallelWidth()));
    for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
        NEURO_PROFILE_SCOPE("snn/train/epoch");
        rng.shuffle(order.data(), n);
        SnnEpochReport report;
        report.epoch = epoch;
        auto presentEpoch = [&](std::size_t member) {
            for (std::size_t step = 0; step < n; ++step) {
                const std::size_t index = order[step];
                const PackedSpikeGrid *grid = store_.held(index);
                std::unique_ptr<const PackedSpikeGrid> encoded;
                if (!grid) {
                    // Refused by the full store: every member encodes
                    // the same grid.
                    encoded = gridFor(data, index, config.seed);
                    grid = encoded.get();
                }
                const PresentationResult r =
                    net.present(*grid, team, member);
                if (member != 0)
                    continue;
                report.outputSpikes += r.outputSpikeCount;
                if (r.outputSpikeCount == 0)
                    ++report.silentImages;
            }
        };
        std::vector<std::function<void()>> members;
        for (std::size_t k = 0; k < team.members(); ++k)
            members.emplace_back([&presentEpoch, k] { presentEpoch(k); });
        parallelInvoke(std::move(members));
        if (epoch > 0)
            store_.countEpochHits();
        obsCount<"snn.images_presented">(n);
        obsCount<"snn.train.discarded_ticks">(team.takeDiscardedTicks());
        obsGauge<"snn.train.team_size">(static_cast<double>(team.members()));
        obsSample<"snn.epoch_output_spikes">(
            static_cast<double>(report.outputSpikes));
        if (callback)
            callback(report);
    }
}

namespace {

/** Images per evaluation shard: small, so the pool balances the
 *  (sample-dependent) inference cost and no thread idles behind a long
 *  last shard. A shard's setup is only a reader's scratch buffers. */
constexpr std::size_t kEvalGrain = 32;

/** The SNNwot winner of every sample: one shared const datapath,
 *  integer arithmetic, so any sharding gives the same winners. */
std::vector<int>
wotWinners(const SnnWotDatapath &datapath, const datasets::Dataset &data)
{
    NEURO_ASSERT(data.inputSize() == datapath.numInputs(),
                 "dataset input size != SNNwot inputs");
    const std::size_t n = data.size();
    std::vector<int> winners(n);
    parallelForRange(0, n, kEvalGrain, [&](std::size_t i0,
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

    // One reader per shard over the shared const network (each reader
    // owns the neuron state its walks write), and one encoding per
    // sample keyed by (seed, i) via SplitMix64: spike encodings do not
    // depend on iteration order, so any thread count produces the
    // same winners. The reader encodes only the ticks up to the first
    // spike, and nothing goes through the grid store: a pass reads
    // each grid once.
    parallelForRange(0, n, kEvalGrain, [&](std::size_t i0,
                                             std::size_t i1) {
        NEURO_PROFILE_SCOPE("snn/eval/shard");
        FirstSpikeReader reader(net, encoder_);
        for (std::size_t i = i0; i < i1; ++i) {
            const auto &pixels = data[i].pixels;
            bool spiked = false;
            winners[i] = reader.winner(pixels.data(), pixels.size(),
                                       deriveStreamSeed(seed, i), &spiked);
            if (fired)
                (*fired)[i] = spiked;
        }
    });
    return winners;
}

std::vector<int>
SnnStdpTrainer::labelNeurons(const SnnNetwork &net,
                             const datasets::Dataset &data, EvalMode mode,
                             uint64_t seed)
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
SnnStdpTrainer::evaluate(const SnnNetwork &net,
                         const std::vector<int> &labels,
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
