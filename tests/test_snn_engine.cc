// present() against its oracle: the event-driven production path must
// be bit-identical to the reference tick walk presentImage() — same
// winners, same potentials, same learned weights — on both of its
// phase 2 paths (uniform ticks through kernels::lifStep and gated
// ticks), and the full pipeline must agree at any thread count.
// firstSpikeWinner(), the same walk ended at the first output spike,
// must give the reference's first-spike answer and count only the
// ticks it stepped. Also covers the trainer's grid-cache routing and
// that inference leaves homeostasis alone.

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

/** firstSpikeWinner() on a copy of @p net against the reference
 *  presentImage(grid, false) on a copy of @p oracle. */
void
expectFirstSpikeWinnerAgrees(const SnnNetwork &net,
                             const SnnNetwork &oracle,
                             const PackedSpikeGrid &grid, std::size_t i)
{
    SnnNetwork probe(net);
    SnnNetwork oracle_copy(oracle);
    bool fired = false;
    const int winner = probe.firstSpikeWinner(grid, &fired);
    const auto ref = oracle_copy.presentImage(grid, /*learn=*/false);
    EXPECT_EQ(winner, ref.winner(Readout::FirstSpike)) << "sample " << i;
    EXPECT_EQ(fired, ref.firstSpikeNeuron >= 0) << "sample " << i;
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
            expectFirstSpikeWinnerAgrees(present_net, oracle_net, grid, i);
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
        expectFirstSpikeWinnerAgrees(present_net, oracle_net, grid, i);
        const auto r = present_net.present(grid, /*learn=*/false);
        const auto ref = oracle_net.presentImage(grid, /*learn=*/false);
        expectIdenticalResults(ref, r, i);
    }
    expectIdenticalState(oracle_net, present_net);
}

/** A 784-input, 20-neuron net for hand-built grids. Weights lie in
 *  [76.5, 178.5] and thresholds within 2.5% of @p threshold. */
SnnNetwork
handBuiltNetwork(uint64_t seed, double threshold)
{
    SnnConfig config;
    config.numInputs = 784;
    config.numNeurons = 20;
    config.coding.periodMs = 200;
    config.coding.minIntervalMs = 20;
    config.tLeakMs = 200.0;
    config.initialThreshold = threshold;
    config.homeostasis.enabled = false;
    Rng rng(seed);
    return SnnNetwork(config, rng);
}

/** A net whose threshold no hand-built grid reaches. */
SnnNetwork
quietNetwork(uint64_t seed)
{
    return handBuiltNetwork(seed, 30000.0);
}

/** A net where 20 spikes in one tick fire a neuron (>= 1530 drive
 *  against thresholds <= 1025) and 3 in a window never do. */
SnnNetwork
firingNetwork(uint64_t seed)
{
    return handBuiltNetwork(seed, 1000.0);
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

/** Spikes (tick, pixel) from inputs [first, first + count) at @p t. */
std::vector<std::pair<int, uint16_t>>
burst(int t, uint16_t first, uint16_t count)
{
    std::vector<std::pair<int, uint16_t>> spikes;
    for (uint16_t p = first; p < first + count; ++p)
        spikes.emplace_back(t, p);
    return spikes;
}

std::vector<std::pair<int, uint16_t>>
concat(std::initializer_list<std::vector<std::pair<int, uint16_t>>> parts)
{
    std::vector<std::pair<int, uint16_t>> all;
    for (const auto &part : parts)
        all.insert(all.end(), part.begin(), part.end());
    return all;
}

/**
 * firstSpikeWinner() on a copy of @p net against presentImage() on
 * another: the same answer, and counters that cover only the ticks it
 * stepped. @p stepped_ticks and @p stepped_spikes are those of the
 * ticks up to and including the decision (all of them when silent).
 */
void
expectFirstSpikeCut(const SnnNetwork &net, const PackedSpikeGrid &grid,
                    bool expect_fired, uint64_t stepped_ticks,
                    uint64_t stepped_spikes)
{
    auto &reg = telemetry::MetricRegistry::instance();
    const auto active = reg.counter("snn.engine.ticks_active");
    const auto skipped = reg.counter("snn.engine.ticks_skipped");
    const auto inputs = reg.counter("snn.input_spikes");
    const auto outputs = reg.counter("snn.output_spikes");
    const auto inhibitions = reg.counter("snn.wta_inhibitions");
    const uint64_t active0 = active->value();
    const uint64_t skipped0 = skipped->value();
    const uint64_t inputs0 = inputs->value();
    const uint64_t outputs0 = outputs->value();
    const uint64_t inhibitions0 = inhibitions->value();

    SnnNetwork probe(net);
    bool fired = !expect_fired;
    const int winner = probe.firstSpikeWinner(grid, &fired);

    EXPECT_EQ(active->value() - active0, stepped_ticks);
    EXPECT_EQ(skipped->value() - skipped0,
              static_cast<uint64_t>(grid.periodMs()) - stepped_ticks);
    EXPECT_EQ(inputs->value() - inputs0, stepped_spikes);
    EXPECT_EQ(outputs->value() - outputs0, expect_fired ? 1u : 0u);
    EXPECT_EQ(inhibitions->value() - inhibitions0,
              expect_fired ? net.config().numNeurons - 1 : 0u);

    SnnNetwork oracle(net);
    const auto ref = oracle.presentImage(grid, /*learn=*/false);
    EXPECT_EQ(fired, expect_fired);
    EXPECT_EQ(ref.firstSpikeNeuron >= 0, expect_fired);
    EXPECT_EQ(winner, ref.winner(Readout::FirstSpike));
    if (expect_fired) {
        // The walk ended on the reference's first-spike tick.
        ASSERT_GE(stepped_ticks, 1u);
        EXPECT_EQ(grid.activeTicks()[stepped_ticks - 1],
                  ref.firstSpikeTimeMs);
    }
}

TEST(SnnFirstSpike, FiringOnTickZeroStopsThere)
{
    // A present() would go on to step ticks 10, 50 and 150.
    const PackedSpikeGrid grid = handBuiltGrid(
        concat({burst(0, 0, 20), burst(10, 20, 20), burst(50, 40, 20),
                burst(150, 60, 20)}));
    expectFirstSpikeCut(firingNetwork(7), grid, true, 1, 20);
}

TEST(SnnFirstSpike, FiringOnLastActiveTick)
{
    const PackedSpikeGrid grid = handBuiltGrid(
        concat({burst(3, 1, 2), burst(50, 0, 1), burst(150, 100, 20)}));
    expectFirstSpikeCut(firingNetwork(8), grid, true, 3, 23);
}

TEST(SnnFirstSpike, SilentGridFallsBackToMaxPotential)
{
    const PackedSpikeGrid grid =
        handBuiltGrid({{3, 1}, {3, 2}, {50, 0}, {150, 3}});
    expectFirstSpikeCut(quietNetwork(7), grid, false, 3, 4);
    expectFirstSpikeCut(quietNetwork(8), handBuiltGrid({}), false, 0, 0);
}

TEST(SnnFirstSpike, LeavesNextPresentationUntouched)
{
    // A learning presentation after an early-ended walk must match
    // one on a fresh copy, with a homeostasis epoch closing on it
    // that would count any firing the walk left behind.
    SnnConfig config = smallConfig();
    config.homeostasis.epochMs = config.coding.periodMs;
    config.homeostasis.activityTarget = 0.0;
    const datasets::Dataset data = makeHalves(16, 5);
    const SpikeEncoder encoder(config.coding);

    Rng init(6);
    SnnNetwork net(config, init);
    PackedSpikeGrid grid;
    PackedSpikeGrid next;
    std::size_t fired_count = 0;
    for (std::size_t i = 0; i + 1 < data.size(); i += 2) {
        Rng rng(deriveStreamSeed(31, i));
        encoder.encodePacked(data[i].pixels.data(), data[i].pixels.size(),
                             rng, grid);
        Rng next_rng(deriveStreamSeed(31, i + 1));
        encoder.encodePacked(data[i + 1].pixels.data(),
                             data[i + 1].pixels.size(), next_rng, next);
        for (const bool learn : {false, true}) {
            SnnNetwork probed(net);
            SnnNetwork fresh(net);
            bool fired = false;
            probed.firstSpikeWinner(grid, &fired);
            fired_count += fired;
            const auto r = probed.present(next, learn);
            const auto ref = fresh.present(next, learn);
            expectIdenticalResults(ref, r, i);
            expectIdenticalState(fresh, probed);
        }
        net.present(grid, /*learn=*/true);
    }
    EXPECT_GT(fired_count, 0u);
}

/** Thresholds after learning on grids[0] and grids[1], with the
 *  rest presented without learning in between, through present()
 *  or (@p reference) presentImage(). */
std::vector<double>
thresholdsAfter(const SnnConfig &config,
                const std::vector<PackedSpikeGrid> &grids, bool reference,
                std::size_t *inferred_spikes)
{
    Rng init(9);
    SnnNetwork net(config, init);
    auto step = [&](const PackedSpikeGrid &grid, bool learn) {
        return reference ? net.presentImage(grid, learn)
                         : net.present(grid, learn);
    };
    step(grids[0], /*learn=*/true);
    for (std::size_t i = 2; i < grids.size(); ++i)
        *inferred_spikes += step(grids[i], /*learn=*/false).outputSpikeCount;
    step(grids[1], /*learn=*/true);
    EXPECT_EQ(net.homeostasisEpochs(), 1);
    return net.thresholds();
}

TEST(SnnPresent, InferenceLeavesHomeostasisAlone)
{
    // The epoch spans the two learning presentations and closes after
    // the inferences, so any inference firing it counted would push
    // that neuron's threshold up instead of leaving it as it is.
    SnnConfig config = smallConfig();
    config.homeostasis.epochMs = 2 * config.coding.periodMs;
    config.homeostasis.activityTarget = 0.0;
    const datasets::Dataset data = makeHalves(18, 8);
    const SpikeEncoder encoder(config.coding);
    std::vector<PackedSpikeGrid> grids(data.size());
    for (std::size_t i = 0; i < data.size(); ++i) {
        Rng rng(deriveStreamSeed(41, i));
        encoder.encodePacked(data[i].pixels.data(), data[i].pixels.size(),
                             rng, grids[i]);
    }
    const std::vector<PackedSpikeGrid> learn_only(grids.begin(),
                                                  grids.begin() + 2);
    for (const bool reference : {false, true}) {
        std::size_t inferred = 0;
        const auto plain =
            thresholdsAfter(config, learn_only, reference, &inferred);
        const auto interleaved =
            thresholdsAfter(config, grids, reference, &inferred);
        EXPECT_GT(inferred, 0u);
        EXPECT_EQ(interleaved, plain)
            << (reference ? "presentImage()" : "present()");
    }
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
