/**
 * @file
 * STDP training pipeline (Sections 2.2 and 3.1): unsupervised STDP over
 * the training set, a self-labeling pass, then evaluation under either
 * the timed (SNNwt) or the count-based (SNNwot) forward path.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "neuro/common/mutex.h"
#include "neuro/datasets/dataset.h"
#include "neuro/snn/network.h"
#include "neuro/snn/snn_wot.h"

namespace neuro {
namespace snn {

/** Which forward path evaluation uses. */
enum class EvalMode
{
    Wt, ///< timed LIF simulation, first-spike readout (SNNwt).
    Wot ///< 8-bit SnnWotDatapath over spike counts (SNNwot).
};

/** Training-run parameters. */
struct SnnTrainConfig
{
    std::size_t epochs = 1; ///< passes over the training set.
    /** Spike-generation / shuffling seed. Each sample's encoding uses
     *  its own stream, deriveStreamSeed(seed, sampleIndex), so the
     *  encoding is frozen across epochs (and stored); only the
     *  presentation order reshuffles, every epoch. */
    uint64_t seed = 11;
};

/** Per-epoch training progress. */
struct SnnEpochReport
{
    std::size_t epoch = 0;          ///< 0-based epoch.
    std::size_t outputSpikes = 0;   ///< total output spikes this epoch.
    std::size_t silentImages = 0;   ///< images with no output spike.
};

/** Optional observer invoked after each epoch. */
using SnnEpochCallback = std::function<void(const SnnEpochReport &)>;

/** Evaluation outcome. */
struct SnnEvalResult
{
    double accuracy = 0.0;        ///< fraction correct.
    std::size_t silent = 0;       ///< images resolved by the
                                  ///< max-potential fallback.
};

/** Counters of the grid store over the last train(). */
struct GridCacheStats
{
    uint64_t hits = 0;       ///< presentations served from the store.
    uint64_t misses = 0;     ///< grids encoded into the store.
    uint64_t evictions = 0;  ///< grids the full store refused.
    std::size_t entries = 0; ///< grids the store holds.
};

/**
 * The training grids of one train(): one slot per sample, filled
 * before epoch 1 and read by every epoch. A sample's grid is a
 * function of (seed, index), so a slot never goes stale within a
 * train(). Grids are admitted while they fit the byte budget; the
 * sample of a refused grid is encoded inline in every epoch.
 */
class GridStore
{
  public:
    /** Byte budget: ~40k MNIST-sized grids of ~6.5 KB. */
    static constexpr std::size_t kBudgetBytes = 256u << 20;

    /** @return the counters (not while a train() runs). */
    GridCacheStats stats() const;

  private:
    friend class SnnStdpTrainer;
    friend class GridStoreTestPeer;

    /** Empty the store into @p n slots and zero its counters. */
    void reset(std::size_t n);

    /** @return the grid in slot @p index, or nullptr. */
    const PackedSpikeGrid *
    held(std::size_t index) const
    {
        return slots_[index].get();
    }

    /** Move @p grid into slot @p index if it fits the budget (leave it
     *  with the caller otherwise). Concurrent calls take distinct
     *  slots. @return whether it fit. */
    bool admit(std::size_t index,
               std::unique_ptr<const PackedSpikeGrid> &grid);

    /** An epoch after the first presented every held grid once. */
    void countEpochHits();

    std::size_t budgetBytes_ = kBudgetBytes;
    std::vector<std::unique_ptr<const PackedSpikeGrid>> slots_;
    mutable Mutex mutex_;
    std::size_t bytes_ NEURO_GUARDED_BY(mutex_) = 0;
    GridCacheStats stats_ NEURO_GUARDED_BY(mutex_);
};

/** Drives STDP training, labeling and evaluation of an SnnNetwork. */
class SnnStdpTrainer
{
  public:
    /** The encoder is derived from the network's coding config. */
    explicit SnnStdpTrainer(const SnnConfig &config);

    /** Run unsupervised STDP over @p data. Resets the grid store and
     *  encodes every sample into it on the pool before epoch 1; every
     *  epoch presents from it. Above one thread a team of pool threads
     *  presents each grid, each over its own neurons (PresentationTeam);
     *  the learned state is the same at any thread count. */
    void train(SnnNetwork &net, const datasets::Dataset &data,
               const SnnTrainConfig &config,
               const SnnEpochCallback &callback = {});

    /**
     * Self-labeling pass (weights frozen): tag each neuron with the
     * label it wins most often, normalized by class frequency.
     *
     * Samples are sharded across the thread pool. Under EvalMode::Wt
     * each shard's FirstSpikeReader reads @p net, shared, and encodes
     * each sample from an Rng seeded from (seed, sampleIndex); under
     * EvalMode::Wot every shard reads one SnnWotDatapath built from
     * @p net (integer arithmetic, no Rng). Either way the result is
     * bit-identical at any thread count (docs/parallelism.md).
     */
    std::vector<int> labelNeurons(const SnnNetwork &net,
                                  const datasets::Dataset &data,
                                  EvalMode mode, uint64_t seed);

    /**
     * Classification accuracy with the given neuron labels. Sharded
     * like labelNeurons(), with the same determinism contract; under
     * EvalMode::Wot it is evaluateWot() of the network's datapath.
     */
    SnnEvalResult evaluate(const SnnNetwork &net,
                           const std::vector<int> &labels,
                           const datasets::Dataset &data, EvalMode mode,
                           uint64_t seed);

    /** @return the encoder (for tests and traces). */
    const SpikeEncoder &encoder() const { return encoder_; }

    /** @return the grid store of the last train() (stats). */
    const GridStore &gridCache() const { return store_; }

    /**
     * A fresh encoding of sample @p index of @p data under @p seed,
     * sized to its events; the grid store is not touched. Thread-safe.
     */
    std::unique_ptr<const PackedSpikeGrid>
    gridFor(const datasets::Dataset &data, std::size_t index,
            uint64_t seed) const;

  private:
    /** Reset the grid store to @p data's samples and encode each into
     *  it under @p seed, split over the pool. */
    void storeGrids(const datasets::Dataset &data, uint64_t seed);

    /** SNNwt winners (and fired flags) for every sample of @p data. */
    std::vector<int> winnersFor(const SnnNetwork &net,
                                const datasets::Dataset &data,
                                uint64_t seed,
                                std::vector<uint8_t> *fired) const;

    friend class GridStoreTestPeer;

    SpikeEncoder encoder_;
    GridStore store_;
};

/**
 * SNNwot accuracy of @p datapath under @p labels on @p data: what
 * SnnStdpTrainer::evaluate() runs under EvalMode::Wot, also for faulted
 * weights or perturbed data. Sharded; identical at any thread count.
 */
SnnEvalResult evaluateWot(const SnnWotDatapath &datapath,
                          const std::vector<int> &labels,
                          const datasets::Dataset &data);

/**
 * End-to-end convenience used by the accuracy benches: build, train,
 * label and evaluate an SNN+STDP model.
 * @return test accuracy in [0,1].
 */
double trainAndEvaluateStdp(const SnnConfig &config,
                            const SnnTrainConfig &train_config,
                            const datasets::Dataset &train_set,
                            const datasets::Dataset &test_set,
                            EvalMode mode, uint64_t init_seed);

} // namespace snn
} // namespace neuro

