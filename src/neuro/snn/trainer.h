/**
 * @file
 * STDP training pipeline (Sections 2.2 and 3.1): unsupervised STDP over
 * the training set, a self-labeling pass, then evaluation under either
 * the timed (SNNwt) or the count-based (SNNwot) forward path.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "neuro/datasets/dataset.h"
#include "neuro/snn/grid_cache.h"
#include "neuro/snn/network.h"

namespace neuro {
namespace snn {

/** Which forward path evaluation uses. */
enum class EvalMode
{
    Wt, ///< timed LIF simulation, first-spike readout (SNNwt).
    Wot ///< deterministic spike counts, max-potential readout (SNNwot).
};

/** Training-run parameters. */
struct SnnTrainConfig
{
    std::size_t epochs = 1; ///< passes over the training set.
    /** Spike-generation / shuffling seed. Each sample's encoding uses
     *  its own stream, deriveStreamSeed(seed, sampleIndex), so the
     *  encoding is frozen across epochs (and cacheable); only the
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

/** Drives STDP training, labeling and evaluation of an SnnNetwork. */
class SnnStdpTrainer
{
  public:
    /** The encoder is derived from the network's coding config; the
     *  encoded-grid cache gets the default byte budget. */
    explicit SnnStdpTrainer(const SnnConfig &config);

    /** Run unsupervised STDP over @p data. */
    void train(SnnNetwork &net, const datasets::Dataset &data,
               const SnnTrainConfig &config,
               const SnnEpochCallback &callback = {});

    /**
     * Self-labeling pass (weights frozen): tag each neuron with the
     * label it wins most often, normalized by class frequency.
     *
     * Samples are sharded across the thread pool, each presented to a
     * worker-local copy of the network with an Rng seeded from
     * (seed, sampleIndex), so the result is bit-identical at any
     * thread count (docs/parallelism.md). @p net itself is left
     * untouched.
     */
    std::vector<int> labelNeurons(SnnNetwork &net,
                                  const datasets::Dataset &data,
                                  EvalMode mode, uint64_t seed);

    /**
     * Classification accuracy with the given neuron labels. Sharded
     * like labelNeurons(), with the same determinism contract.
     */
    SnnEvalResult evaluate(SnnNetwork &net, const std::vector<int> &labels,
                           const datasets::Dataset &data, EvalMode mode,
                           uint64_t seed);

    /** @return the encoder (for tests and traces). */
    const SpikeEncoder &encoder() const { return encoder_; }

    /** @return the encoded-grid cache (stats, tests). */
    const GridCache &gridCache() const { return gridCache_; }

    /**
     * The cached encoding of sample @p index of @p data under @p seed:
     * served from the grid cache when resident, encoded (and inserted)
     * otherwise. Thread-safe; all presentation paths go through here.
     */
    std::shared_ptr<const PackedSpikeGrid>
    gridFor(const datasets::Dataset &data, std::size_t index,
            uint64_t seed) const;

  private:
    /** Winners (and fired flags) for every sample of @p data. */
    std::vector<int> winnersFor(SnnNetwork &net,
                                const datasets::Dataset &data,
                                EvalMode mode, uint64_t seed,
                                std::vector<uint8_t> *fired) const;

    SpikeEncoder encoder_;
    uint64_t codingHash_ = 0;
    mutable GridCache gridCache_;
};

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

