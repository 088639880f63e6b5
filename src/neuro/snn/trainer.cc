#include "neuro/snn/trainer.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
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
    store_.reset(n);

    // In epoch 1 a pool worker encodes grids into the store ahead of
    // the presentation loop. Grids are a function of (seed, index), so
    // whoever encodes one makes the same grid. At one thread, or
    // inside a pool task, where a nested primitive would run the two
    // in turn, the loop encodes inline.
    const bool prefetch = parallelWidth() > 1;
    for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
        NEURO_PROFILE_SCOPE("snn/train/epoch");
        rng.shuffle(order.data(), n);
        SnnEpochReport report;
        report.epoch = epoch;
        // Epoch 1's hand-off to the prefetcher. Steps are claimed in
        // order, each once: `claimed` counts the steps claimed, and
        // `done` is one past the last step the prefetcher stored, or n
        // once it has stopped. The loop claims a step the prefetcher
        // has not reached and encodes it inline; a step the prefetcher
        // holds, the loop waits for. So every grid is encoded once.
        std::atomic<uint64_t> claimed{0};
        std::atomic<uint64_t> done{0};
        auto presentEpoch = [&](bool ahead) {
            for (std::size_t step = 0; step < n; ++step) {
                uint64_t expect = step;
                // Relaxed: the claim only splits the steps; the grid
                // itself is published through `done`.
                if (ahead &&
                    !claimed.compare_exchange_strong(
                        expect, step + 1, std::memory_order_relaxed))
                    awaitAtLeast(done, step + 1);
                const std::size_t index = order[step];
                const PackedSpikeGrid *grid = store_.held(index);
                std::unique_ptr<const PackedSpikeGrid> encoded;
                if (!grid) {
                    // Not stored yet (epoch 1) or refused by the full
                    // store (any epoch).
                    encoded = gridFor(data, index, config.seed);
                    grid = encoded.get();
                    if (epoch == 0)
                        store_.admit(index, encoded);
                }
                const PresentationResult r = net.present(*grid);
                report.outputSpikes += r.outputSpikeCount;
                if (r.outputSpikeCount == 0)
                    ++report.silentImages;
            }
        };
        if (epoch == 0 && prefetch) {
            parallelInvoke({
                [&] {
                    try {
                        presentEpoch(true);
                    } catch (...) {
                        // Stop the prefetcher at its next claim.
                        claimed.store(n, std::memory_order_relaxed);
                        throw;
                    }
                },
                [&] {
                    // Release a waiting loop however this exits.
                    struct Stop
                    {
                        std::atomic<uint64_t> &done;
                        uint64_t n;
                        ~Stop() { done.store(n, std::memory_order_release); }
                    } stop{done, n};
                    for (;;) {
                        const uint64_t step =
                            claimed.fetch_add(1, std::memory_order_relaxed);
                        if (step >= n)
                            break;
                        auto encoded = gridFor(data, order[step],
                                               config.seed);
                        // The store is full: the loop encodes the rest.
                        if (!store_.admit(order[step], encoded))
                            break;
                        done.store(step + 1, std::memory_order_release);
                    }
                },
            });
        } else {
            presentEpoch(false);
            if (epoch > 0)
                store_.countEpochHits();
        }
        obsCount<"snn.images_presented">(n);
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
