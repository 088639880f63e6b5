// present() against its oracle: the event-driven production path must
// be bit-identical to the reference tick walk presentImage() — same
// winners, same potentials, same learned weights — on both of its
// phase 2 paths (uniform ticks through kernels::lifStep and gated
// ticks), and the full pipeline must agree at any thread count. Also
// covers the trainer's grid-cache routing.

#include <gtest/gtest.h>

#include "neuro/common/parallel.h"
#include "neuro/common/rng.h"
#include "neuro/snn/spike_bits.h"
#include "neuro/snn/trainer.h"
#include "neuro/telemetry/metrics.h"

namespace neuro {
namespace snn {
namespace {

/** Two-class task (same construction as test_trainer). */
datasets::Dataset
makeHalves(std::size_t count, uint64_t seed)
{
    datasets::Dataset data("halves", 8, 8, 2);
    Rng rng(seed);
    for (std::size_t i = 0; i < count; ++i) {
        datasets::Sample s;
        s.label = static_cast<int>(i % 2);
        s.pixels.assign(64, 0);
        for (std::size_t y = 0; y < 8; ++y) {
            const bool bright = (s.label == 0) ? (y < 4) : (y >= 4);
            for (std::size_t x = 0; x < 8; ++x) {
                s.pixels[y * 8 + x] = bright
                    ? static_cast<uint8_t>(200 + rng.uniformInt(56))
                    : static_cast<uint8_t>(rng.uniformInt(25));
            }
        }
        data.add(std::move(s));
    }
    return data;
}

SnnConfig
smallConfig()
{
    SnnConfig config;
    config.numInputs = 64;
    config.numNeurons = 8;
    config.coding.periodMs = 200;
    config.coding.minIntervalMs = 20;
    config.tLeakMs = 200.0;
    config.initialThreshold = 0.5 * 32.0 * 8.0 * 127.0;
    config.stdp.ltpIncrement = 12.0f;
    config.stdp.ltdDecrement = 3.0f;
    config.homeostasis.epochMs = 20 * 200;
    config.homeostasis.activityTarget = 5.0;
    config.homeostasis.rate = 0.08;
    config.homeostasis.minThreshold = config.initialThreshold * 0.25;
    return config;
}

/** Compare two presentation results field by field, exactly. */
void
expectIdenticalResults(const PresentationResult &a,
                       const PresentationResult &b, std::size_t i)
{
    EXPECT_EQ(a.firstSpikeNeuron, b.firstSpikeNeuron) << "sample " << i;
    EXPECT_EQ(a.firstSpikeTimeMs, b.firstSpikeTimeMs) << "sample " << i;
    EXPECT_EQ(a.maxPotentialNeuron, b.maxPotentialNeuron) << "sample " << i;
    EXPECT_EQ(a.inputSpikeCount, b.inputSpikeCount) << "sample " << i;
    EXPECT_EQ(a.outputSpikeCount, b.outputSpikeCount) << "sample " << i;
    EXPECT_EQ(a.wtaInhibitions, b.wtaInhibitions) << "sample " << i;
    EXPECT_EQ(a.stdpPotentiated, b.stdpPotentiated) << "sample " << i;
    EXPECT_EQ(a.stdpDepressed, b.stdpDepressed) << "sample " << i;
    EXPECT_EQ(a.spikeCountPerNeuron, b.spikeCountPerNeuron)
        << "sample " << i;
}

/** Compare the full network state exactly. */
void
expectIdenticalState(const SnnNetwork &a, const SnnNetwork &b)
{
    EXPECT_EQ(a.weights().data(), b.weights().data());
    EXPECT_EQ(a.thresholds(), b.thresholds());
    EXPECT_EQ(a.potentials(), b.potentials());
    EXPECT_EQ(a.homeostasisEpochs(), b.homeostasisEpochs());
}

/** present() vs presentImage() on @p grid, both from copies of
 *  @p net. @return present()'s result. */
PresentationResult
expectHandBuiltGridAgrees(const SnnNetwork &net,
                          const PackedSpikeGrid &grid,
                          std::size_t expected_active_ticks)
{
    SnnNetwork present_net(net);
    SnnNetwork oracle_net(net);

    auto &reg = telemetry::MetricRegistry::instance();
    const auto active = reg.counter("snn.engine.ticks_active");
    const auto skipped = reg.counter("snn.engine.ticks_skipped");
    const uint64_t active0 = active->value();
    const uint64_t skipped0 = skipped->value();
    const auto r = present_net.present(grid, /*learn=*/false);
    const uint64_t activeTicks = active->value() - active0;
    const uint64_t skippedTicks = skipped->value() - skipped0;
    const auto ref = oracle_net.presentImage(grid, /*learn=*/false);

    expectIdenticalResults(ref, r, 0);
    expectIdenticalState(oracle_net, present_net);
    EXPECT_EQ(r.inputSpikeCount, grid.totalSpikes());
    // Only spike-carrying ticks are visited; the rest are skipped.
    EXPECT_EQ(activeTicks, expected_active_ticks);
    EXPECT_EQ(skippedTicks, static_cast<uint64_t>(grid.periodMs()) -
                                expected_active_ticks);
    return r;
}

/** Tick counts of a present() sequence. */
struct TickCounts
{
    uint64_t active = 0;  ///< snn.engine.ticks_active.
    uint64_t uniform = 0; ///< snn.engine.ticks_uniform (fast path).
};

/**
 * Two learning epochs (STDP + homeostasis must evolve identically),
 * then a no-learn pass over the learned network, present() against
 * presentImage() from identical copies of a @p config network.
 * @return the tick counters present() moved.
 */
TickCounts
expectLearningSequenceAgrees(const SnnConfig &config)
{
    const datasets::Dataset data = makeHalves(64, 7);
    const SpikeEncoder encoder(config.coding);

    Rng init(9);
    SnnNetwork present_net(config, init);
    SnnNetwork oracle_net(present_net); // identical copy.

    auto &reg = telemetry::MetricRegistry::instance();
    const auto active = reg.counter("snn.engine.ticks_active");
    const auto uniform = reg.counter("snn.engine.ticks_uniform");
    const uint64_t active0 = active->value();
    const uint64_t uniform0 = uniform->value();

    PackedSpikeGrid grid;
    std::size_t potentiated = 0;
    for (const uint64_t seed : {21u, 22u, 23u}) {
        const bool learn = seed != 23u;
        for (std::size_t i = 0; i < data.size(); ++i) {
            Rng rng(deriveStreamSeed(seed, i));
            encoder.encodePacked(data[i].pixels.data(),
                                 data[i].pixels.size(), rng, grid);
            const auto r = present_net.present(grid, learn);
            const auto ref = oracle_net.presentImage(grid, learn);
            expectIdenticalResults(ref, r, i);
            potentiated += r.stdpPotentiated;
        }
        expectIdenticalState(oracle_net, present_net);
    }
    // The sequence must actually exercise learning and homeostasis.
    EXPECT_GT(potentiated, 0u);
    EXPECT_GT(present_net.homeostasisEpochs(), 0);
    return {active->value() - active0, uniform->value() - uniform0};
}

/** Both phase 2 paths must run: uniform ticks, where every neuron is
 *  open and takes lifStep, and gated ticks after each firing. */
void
expectBothTickPaths(const TickCounts &ticks)
{
    EXPECT_GT(ticks.uniform, 0u);
    EXPECT_LT(ticks.uniform, ticks.active);
}

TEST(SnnPresent, PresentationsBitIdenticalToPresentImage)
{
    expectBothTickPaths(expectLearningSequenceAgrees(smallConfig()));
}

/** smallConfig() at 37 neurons: two 16-neuron lifStep tiles plus a
 *  5-neuron tail. */
SnnConfig
tiledConfig()
{
    SnnConfig config = smallConfig();
    config.numNeurons = 37;
    return config;
}

TEST(SnnPresent, TiledLayerBitIdenticalToPresentImage)
{
    expectBothTickPaths(expectLearningSequenceAgrees(tiledConfig()));
}

TEST(SnnPresent, TiledLayerWithoutResetBitIdenticalToPresentImage)
{
    // Peers keep their potentials, and their inhibition outlasts the
    // winner's refractory period, so the winner reopens first and the
    // fast path must wait for the latest gate.
    SnnConfig config = tiledConfig();
    config.wtaReset = false;
    config.tRefracMs = 5;
    config.tInhibitMs = 15;
    expectBothTickPaths(expectLearningSequenceAgrees(config));
}

TEST(SnnPresent, PresentEqualsPresentImageWithoutLearning)
{
    // present() vs presentImage() on the same grids, from a fresh
    // network with learning off: the public API contract.
    const datasets::Dataset data = makeHalves(16, 3);
    const SnnConfig config = smallConfig();
    const SpikeEncoder encoder(config.coding);

    Rng init(4);
    SnnNetwork present_net(config, init);
    SnnNetwork oracle_net(present_net); // identical copy.

    PackedSpikeGrid grid;
    for (std::size_t i = 0; i < data.size(); ++i) {
        Rng rng(deriveStreamSeed(5, i));
        encoder.encodePacked(data[i].pixels.data(), data[i].pixels.size(),
                             rng, grid);
        const auto r = present_net.present(grid, /*learn=*/false);
        const auto ref = oracle_net.presentImage(grid, /*learn=*/false);
        expectIdenticalResults(ref, r, i);
    }
    expectIdenticalState(oracle_net, present_net);
}

/** A 784-input net whose threshold no hand-built grid reaches. */
SnnNetwork
quietNetwork(uint64_t seed)
{
    SnnConfig config;
    config.numInputs = 784;
    config.numNeurons = 20;
    config.coding.periodMs = 200;
    config.coding.minIntervalMs = 20;
    config.tLeakMs = 200.0;
    config.initialThreshold = 30000.0;
    config.homeostasis.enabled = false;
    Rng rng(seed);
    return SnnNetwork(config, rng);
}

/** A finalized grid for quietNetwork() (784 inputs, 200 ticks). */
PackedSpikeGrid
handBuiltGrid(const std::vector<std::pair<int, uint16_t>> &spikes)
{
    PackedSpikeGrid grid(784, 200);
    for (const auto &[t, p] : spikes)
        grid.addSpike(t, p);
    grid.finalize();
    return grid;
}

TEST(SnnPresent, HandBuiltSparseGridMatchesPresentImage)
{
    const PackedSpikeGrid grid =
        handBuiltGrid({{3, 1}, {3, 2}, {50, 0}, {150, 3}});
    expectHandBuiltGridAgrees(quietNetwork(7), grid, 3); // 3 instants.
}

TEST(SnnPresent, EmptyWindowMatchesPresentImage)
{
    const auto r =
        expectHandBuiltGridAgrees(quietNetwork(8), handBuiltGrid({}), 0);
    EXPECT_EQ(r.outputSpikeCount, 0u);
    EXPECT_EQ(r.firstSpikeNeuron, -1);
}

/** Winners of a full train+label+evaluate pass. */
SnnEvalResult
evalPipeline(const datasets::Dataset &train_set,
             const datasets::Dataset &test_set, std::vector<int> *labels_out)
{
    const SnnConfig config = smallConfig();
    Rng rng(2);
    SnnNetwork net(config, rng);
    SnnStdpTrainer trainer(config);
    SnnTrainConfig train;
    train.epochs = 2;
    trainer.train(net, train_set, train);
    const auto labels = trainer.labelNeurons(net, train_set, EvalMode::Wt,
                                             201);
    if (labels_out)
        *labels_out = labels;
    return trainer.evaluate(net, labels, test_set, EvalMode::Wt, 202);
}

TEST(SnnPresent, FullPipelineBitIdenticalAcrossThreads)
{
    const datasets::Dataset train_set = makeHalves(64, 11);
    const datasets::Dataset test_set = makeHalves(32, 12);

    const std::size_t saved = parallelThreadCount();
    std::vector<int> ref_labels;
    setParallelThreadCount(1);
    const SnnEvalResult reference =
        evalPipeline(train_set, test_set, &ref_labels);

    setParallelThreadCount(4);
    std::vector<int> labels;
    const SnnEvalResult result = evalPipeline(train_set, test_set, &labels);
    EXPECT_EQ(labels, ref_labels);
    EXPECT_DOUBLE_EQ(result.accuracy, reference.accuracy);
    EXPECT_EQ(result.silent, reference.silent);
    setParallelThreadCount(saved);
}

TEST(SnnPresent, TrainerServesSecondPassFromGridCache)
{
    const datasets::Dataset data = makeHalves(48, 13);
    const SnnConfig config = smallConfig();
    Rng rng(2);
    SnnNetwork net(config, rng);
    SnnStdpTrainer trainer(config);

    SnnTrainConfig train;
    train.epochs = 2;
    trainer.train(net, data, train);

    // Epoch 1 misses (and fills) the cache; epoch 2 must be served
    // from it entirely: hit rate >= 50% over the two epochs.
    const GridCacheStats after_train = trainer.gridCache().stats();
    EXPECT_EQ(after_train.misses, data.size());
    EXPECT_EQ(after_train.hits, data.size());
    EXPECT_EQ(after_train.entries, data.size());

    // Labeling uses a different seed: new keys, all misses...
    const auto labels = trainer.labelNeurons(net, data, EvalMode::Wt, 77);
    const GridCacheStats after_label = trainer.gridCache().stats();
    EXPECT_EQ(after_label.misses, 2 * data.size());

    // ...and evaluating the same data under the same seed hits 100%.
    trainer.evaluate(net, labels, data, EvalMode::Wt, 77);
    const GridCacheStats after_eval = trainer.gridCache().stats();
    EXPECT_EQ(after_eval.misses, after_label.misses)
        << "second pass must not re-encode";
    EXPECT_EQ(after_eval.hits, after_label.hits + data.size());
}

} // namespace
} // namespace snn
} // namespace neuro
