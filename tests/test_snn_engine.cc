// present() against its oracle: the event-driven production path must
// be bit-identical to the reference tick walk presentImage() — same
// winners, same potentials, same learned weights — on both of its
// phase 2 paths (uniform ticks through kernels::lifStep and gated
// ticks), and the full pipeline must agree at any thread count.
// firstSpikeWinner(), the same walk ended at the first output spike,
// must give the reference's first-spike answer and count only the
// ticks it stepped. FirstSpikeReader, which encodes only up to a
// horizon, must give the full grid's answers at any thread count and
// kernel ISA. Also covers the trainer's grid-cache routing and that
// inference leaves homeostasis alone.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <optional>

#include "neuro/common/parallel.h"
#include "neuro/common/rng.h"
#include "neuro/datasets/synth_digits.h"
#include "neuro/kernels/kernels.h"
#include "neuro/snn/spike_bits.h"
#include "neuro/snn/trainer.h"
#include "neuro/telemetry/metrics.h"

namespace neuro {
namespace snn {

/** Reaches into SpikeEncoder's horizon band. */
class SpikeEncoderTestPeer
{
  public:
    static void
    setBand(SpikeEncoder &encoder, double band)
    {
        encoder.horizonBand_ = band;
    }
};

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

/** firstSpikeWinner() on @p net against the reference
 *  presentImage(grid, false) on a copy of @p oracle. */
void
expectFirstSpikeWinnerAgrees(const SnnNetwork &net,
                             const SnnNetwork &oracle,
                             const PackedSpikeGrid &grid, std::size_t i)
{
    SnnNetwork oracle_copy(oracle);
    PresentationState state;
    bool fired = false;
    const int winner = net.firstSpikeWinner(grid, state, &fired);
    const auto ref = oracle_copy.presentImage(grid, /*learn=*/false);
    EXPECT_EQ(winner, ref.winner()) << "sample " << i;
    EXPECT_EQ(fired, ref.firstSpikeNeuron >= 0) << "sample " << i;
}

/** Tick counts of a present() sequence, by tick class. */
struct TickCounts
{
    uint64_t active = 0;      ///< snn.engine.ticks_active.
    uint64_t uniform = 0;     ///< snn.engine.ticks_uniform.
    uint64_t nearUniform = 0; ///< snn.engine.ticks_near_uniform.
    uint64_t allGated = 0;    ///< snn.engine.ticks_all_gated.

    /** Ticks on the per-neuron slow path. */
    uint64_t
    slow() const
    {
        return active - uniform - nearUniform - allGated;
    }
};

/** Reads the tick-class counters' movement since construction. */
class TickCounter
{
  public:
    TickCounter() : start_(read()) {}

    TickCounts
    delta() const
    {
        const TickCounts now = read();
        return {now.active - start_.active, now.uniform - start_.uniform,
                now.nearUniform - start_.nearUniform,
                now.allGated - start_.allGated};
    }

  private:
    static TickCounts
    read()
    {
        auto &reg = telemetry::MetricRegistry::instance();
        return {reg.counter("snn.engine.ticks_active")->value(),
                reg.counter("snn.engine.ticks_uniform")->value(),
                reg.counter("snn.engine.ticks_near_uniform")->value(),
                reg.counter("snn.engine.ticks_all_gated")->value()};
    }

    TickCounts start_;
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

    const TickCounter ticks;
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
    return ticks.delta();
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
    // The defaults: the winner reopens after its peers. Ticks before
    // the peers reopen are all-gated; after them the layer steps
    // near-uniformly around the refractory winner.
    const TickCounts ticks = expectLearningSequenceAgrees(smallConfig());
    expectBothTickPaths(ticks);
    EXPECT_GT(ticks.allGated, 0u);
    EXPECT_GT(ticks.nearUniform, 0u);
}

TEST(SnnPresent, WinnerReopeningBeforePeersBitIdenticalToPresentImage)
{
    // tRefracMs < tInhibitMs: the winner reopens alone while its peers
    // are still inhibited, which the fast path must not step. The
    // slow tick then holds the inhibited peers; without the reset
    // they reopen with potentials to decay over their own gaps.
    for (const bool reset : {true, false}) {
        SnnConfig config = smallConfig();
        config.tRefracMs = 3;
        config.tInhibitMs = 12;
        config.wtaReset = reset;
        const TickCounts ticks = expectLearningSequenceAgrees(config);
        expectBothTickPaths(ticks);
        EXPECT_GT(ticks.allGated, 0u);
        EXPECT_GT(ticks.nearUniform, 0u);
        EXPECT_GT(ticks.slow(), 0u);
    }
}

TEST(SnnPresent, NoResetBitIdenticalToPresentImage)
{
    // Without the WTA reset, an inhibited peer can sit above its
    // threshold; the near-uniform tick must not let it fire.
    SnnConfig config = smallConfig();
    config.wtaReset = false;
    const TickCounts ticks = expectLearningSequenceAgrees(config);
    expectBothTickPaths(ticks);
    EXPECT_GT(ticks.nearUniform, 0u);
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

/** A 784-input, 20-neuron config for hand-built grids. Weights lie
 *  in [76.5, 178.5] and thresholds within 2.5% of @p threshold. */
SnnConfig
handBuiltConfig(double threshold)
{
    SnnConfig config;
    config.numInputs = 784;
    config.numNeurons = 20;
    config.coding.periodMs = 200;
    config.coding.minIntervalMs = 20;
    config.tLeakMs = 200.0;
    config.initialThreshold = threshold;
    config.homeostasis.enabled = false;
    return config;
}

/** A handBuiltConfig() net. */
SnnNetwork
handBuiltNetwork(uint64_t seed, double threshold)
{
    Rng rng(seed);
    return SnnNetwork(handBuiltConfig(threshold), rng);
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

/** A learning present() against a learning presentImage() of
 *  @p grid, from copies of @p net. @return present()'s result and
 *  the ticks it moved. */
std::pair<PresentationResult, TickCounts>
expectLearningGridAgrees(const SnnNetwork &net, const PackedSpikeGrid &grid)
{
    SnnNetwork present_net(net);
    SnnNetwork oracle_net(net);
    const TickCounter ticks;
    const auto r = present_net.present(grid, /*learn=*/true);
    const TickCounts moved = ticks.delta();
    const auto ref = oracle_net.presentImage(grid, /*learn=*/true);
    expectIdenticalResults(ref, r, 0);
    expectIdenticalState(oracle_net, present_net);
    return {r, moved};
}

/** A handBuiltConfig(1000) net (20 spikes in one tick fire a neuron,
 *  3 never do) with @p neurons neurons and the given gates. */
SnnNetwork
gatedFiringNetwork(std::size_t neurons, int refrac_ms, int inhibit_ms)
{
    SnnConfig config = handBuiltConfig(1000.0);
    config.numNeurons = neurons;
    config.tRefracMs = refrac_ms;
    config.tInhibitMs = inhibit_ms;
    Rng rng(12);
    return SnnNetwork(config, rng);
}

TEST(SnnPresent, SpikesOnAllGatedTicksFeedStdp)
{
    // The firing at tick 10 gates every neuron until 15. The inputs
    // at tick 12 land on an all-gated tick, and the peer that fires at
    // 20 must potentiate them: their spike times are within its LTP
    // window, so 20 + 3 + 20 inputs potentiate, against 20 at tick 10.
    const PackedSpikeGrid grid = handBuiltGrid(concat(
        {burst(10, 0, 20), burst(12, 100, 3), burst(20, 20, 20),
         burst(120, 200, 2)}));
    const auto [r, ticks] =
        expectLearningGridAgrees(gatedFiringNetwork(20, 20, 5), grid);
    EXPECT_EQ(r.outputSpikeCount, 2u);
    EXPECT_EQ(r.stdpPotentiated, 20u + 43u);
    EXPECT_EQ(ticks.allGated, 1u);
}

TEST(SnnPresent, RepeatedFiringsBitIdenticalToPresentImage)
{
    // Bursts every 3 ticks against a 2-tick inhibition and a 50-tick
    // refractory period: each fires a new peer, so the refractory
    // winners pile up, past the near-uniform path's held list at 20
    // neurons and within it at 6. Then the reverse gates: the winner
    // reopens at 12 and fires again inside its peers' inhibition.
    std::vector<std::vector<std::pair<int, uint16_t>>> parts;
    for (int i = 0; i < 12; ++i)
        parts.push_back(burst(10 + 3 * i, static_cast<uint16_t>(20 * i), 20));
    parts.push_back(burst(70, 300, 2));
    parts.push_back(burst(130, 400, 3));
    std::vector<std::pair<int, uint16_t>> piled;
    for (const auto &part : parts)
        piled.insert(piled.end(), part.begin(), part.end());
    const PackedSpikeGrid pile = handBuiltGrid(piled);
    for (const std::size_t neurons : {20u, 6u}) {
        const auto [r, ticks] = expectLearningGridAgrees(
            gatedFiringNetwork(neurons, 50, 2), pile);
        EXPECT_GE(r.outputSpikeCount, 6u) << neurons << " neurons";
        EXPECT_GT(ticks.nearUniform, 0u) << neurons << " neurons";
    }

    const PackedSpikeGrid twice = handBuiltGrid(concat(
        {burst(10, 0, 20), burst(13, 20, 20), burst(16, 40, 2),
         burst(40, 60, 3), burst(90, 80, 2)}));
    for (const std::size_t neurons : {20u, 6u}) {
        const auto [r, ticks] = expectLearningGridAgrees(
            gatedFiringNetwork(neurons, 2, 15), twice);
        EXPECT_EQ(r.outputSpikeCount, 2u) << neurons << " neurons";
        EXPECT_EQ(r.spikeCountPerNeuron[static_cast<std::size_t>(
                      r.firstSpikeNeuron)],
                  2u)
            << neurons << " neurons";
        EXPECT_GT(ticks.slow(), 0u) << neurons << " neurons";
    }
}

/**
 * firstSpikeWinner() on @p net against presentImage() on a copy: the
 * same answer, and counters that cover only the ticks it
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

    PresentationState state;
    bool fired = !expect_fired;
    const int winner = net.firstSpikeWinner(grid, state, &fired);

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
    EXPECT_EQ(winner, ref.winner());
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
            PresentationState state;
            bool fired = false;
            probed.firstSpikeWinner(grid, state, &fired);
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

/** SNNwt answers for every sample of a dataset. */
struct Answers
{
    std::vector<int> winners;
    std::vector<uint8_t> fired;

    bool
    operator==(const Answers &o) const
    {
        return winners == o.winners && fired == o.fired;
    }
};

/** The reference answers: `present(full, false).winner()`
 *  of each sample's full grid under stream seed (@p seed, i). */
Answers
fullGridAnswers(const SnnNetwork &net, const datasets::Dataset &data,
                uint64_t seed)
{
    const SpikeEncoder encoder(net.config().coding);
    SnnNetwork probe(net);
    PackedSpikeGrid grid;
    Answers answers;
    for (std::size_t i = 0; i < data.size(); ++i) {
        Rng rng(deriveStreamSeed(seed, i));
        encoder.encodePacked(data[i].pixels.data(), data[i].pixels.size(),
                             rng, grid);
        const PresentationResult r = probe.present(grid, /*learn=*/false);
        answers.winners.push_back(r.winner());
        answers.fired.push_back(r.firstSpikeNeuron >= 0);
    }
    return answers;
}

/** The answers of one FirstSpikeReader per shard, as the trainer's
 *  inference runs them, through @p encoder; @p horizon gets the
 *  largest horizon a reader ended on. With @p copy_per_shard each
 *  reader reads its own copy of @p net instead of sharing it. */
Answers
readerAnswers(const SnnNetwork &net, const SpikeEncoder &encoder,
              const datasets::Dataset &data, uint64_t seed, int *horizon,
              bool copy_per_shard = false)
{
    Answers answers;
    answers.winners.assign(data.size(), -1);
    answers.fired.assign(data.size(), 0);
    std::vector<int> horizons(data.size(), 0);
    parallelForRange(0, data.size(), 16, [&](std::size_t i0,
                                             std::size_t i1) {
        std::optional<SnnNetwork> copy;
        if (copy_per_shard)
            copy.emplace(net);
        FirstSpikeReader reader(copy ? *copy : net, encoder);
        for (std::size_t i = i0; i < i1; ++i) {
            bool fired = false;
            answers.winners[i] = reader.winner(
                data[i].pixels.data(), data[i].pixels.size(),
                deriveStreamSeed(seed, i), &fired);
            answers.fired[i] = fired;
        }
        horizons[i0] = reader.horizonMs();
    });
    *horizon = *std::max_element(horizons.begin(), horizons.end());
    return answers;
}

TEST(FirstSpikeReader, AnswersEqualFullGridAcrossThreadsAndIsas)
{
    // Paper timing (784 inputs, 500 ms window, U = 50 ms) on MNIST-like
    // digits. The 300-neuron layer fires early, well inside the first
    // horizon (125 ms); the 10-neuron layers with raised thresholds
    // fire later or never, so readers restart and double the horizon.
    const datasets::Dataset data = datasets::mnistLike(240, 0, 3).train;
    struct Case
    {
        std::size_t neurons;
        double thresholdScale;
    };
    auto &reg = telemetry::MetricRegistry::instance();
    const auto restarts = reg.counter("snn.encode.horizon_restarts");
    const std::size_t saved = parallelThreadCount();
    for (const Case c : {Case{300, 1.0}, Case{10, 1.0}, Case{10, 2.5},
                         Case{10, 1000.0}}) {
        SnnConfig config;
        config.numNeurons = c.neurons;
        config.initialThreshold *= c.thresholdScale;
        Rng init(c.neurons);
        const SnnNetwork net(config, init);
        const SpikeEncoder encoder(config.coding);
        const Answers expected = fullGridAnswers(net, data, 17);
        const auto fired = static_cast<std::size_t>(
            std::count(expected.fired.begin(), expected.fired.end(), 1));
        for (const kernels::SimdMode mode :
             {kernels::SimdMode::Off, kernels::SimdMode::Avx2,
              kernels::SimdMode::Auto}) {
            kernels::setSimdMode(mode);
            for (const std::size_t threads : {1u, 4u}) {
                setParallelThreadCount(threads);
                const uint64_t restarts0 = restarts->value();
                int horizon = 0;
                const Answers got =
                    readerAnswers(net, encoder, data, 17, &horizon);
                const uint64_t restarted = restarts->value() - restarts0;
                EXPECT_TRUE(got == expected)
                    << c.neurons << " neurons, threshold x"
                    << c.thresholdScale << ", " << threads << " threads";
                if (c.thresholdScale == 1.0 && c.neurons == 300) {
                    EXPECT_EQ(horizon, 125);
                    EXPECT_EQ(fired, data.size());
                } else if (fired == 0) {
                    // Silent layer: every reader ends at a full encode.
                    EXPECT_EQ(horizon, 500);
                    EXPECT_GT(restarted, 0u);
                }
                if (c.thresholdScale == 2.5) {
                    EXPECT_GT(fired, 0u);
                    EXPECT_GT(restarted, 0u);
                    EXPECT_GT(horizon, 125);
                }
            }
        }
    }
    kernels::setSimdMode(kernels::SimdMode::Auto);
    setParallelThreadCount(saved);
}

TEST(FirstSpikeReader, SharedNetworkMatchesPerThreadCopies)
{
    // Readers on four pool threads share one const network; each
    // writes only its own state, so they answer as readers that each
    // walk a private copy. The 10-neuron layer restarts, so both the
    // truncated and the full walks run concurrently.
    const datasets::Dataset data = datasets::mnistLike(160, 0, 5).train;
    const std::size_t saved = parallelThreadCount();
    setParallelThreadCount(4);
    for (const std::size_t neurons : {300u, 10u}) {
        SnnConfig config;
        config.numNeurons = neurons;
        config.initialThreshold *= neurons == 10 ? 2.5 : 1.0;
        Rng init(neurons + 1);
        const SnnNetwork net(config, init);
        const SpikeEncoder encoder(config.coding);
        int horizon = 0;
        const Answers shared = readerAnswers(net, encoder, data, 23, &horizon);
        const Answers copies = readerAnswers(net, encoder, data, 23, &horizon,
                                             /*copy_per_shard=*/true);
        EXPECT_TRUE(shared == copies) << neurons << " neurons";
        EXPECT_TRUE(shared == fullGridAnswers(net, data, 23))
            << neurons << " neurons";
    }
    setParallelThreadCount(saved);
}

TEST(FirstSpikeReader, ForcedEncoderFallbackGivesTheSameAnswers)
{
    // An infinite band sends every lit image a reader encodes below the
    // period to the full encode; the readers then walk complete grids
    // and answer as before.
    const datasets::Dataset data = datasets::mnistLike(64, 0, 6).train;
    SnnConfig config;
    config.numNeurons = 10;
    config.initialThreshold *= 2.5;
    Rng init(12);
    const SnnNetwork net(config, init);
    SpikeEncoder encoder(config.coding);
    SpikeEncoderTestPeer::setBand(encoder,
                                  std::numeric_limits<double>::infinity());
    const auto fallbacks = telemetry::MetricRegistry::instance().counter(
        "snn.encode.horizon_fallbacks");
    const uint64_t fallbacks0 = fallbacks->value();
    int horizon = 0;
    EXPECT_TRUE(readerAnswers(net, encoder, data, 31, &horizon) ==
                fullGridAnswers(net, data, 31));
    EXPECT_GT(fallbacks->value() - fallbacks0, 0u);
}

TEST(FirstSpikeReader, HorizonFallsBackAfterALateImage)
{
    // The 300-neuron layer answers these digits below period/4. A
    // dimmed digit first fires in [period/4, period/2), and a dark
    // image never fires. Each raises the start horizon until
    // kHorizonHistory early images have followed it.
    const datasets::Dataset data = datasets::mnistLike(24, 0, 3).train;
    const SnnConfig config;
    Rng init(300);
    const SnnNetwork net(config, init);
    const SpikeEncoder encoder(config.coding);
    const int period = config.coding.periodMs;

    // The first dimming of digit 0 whose full grid fires late.
    auto firstSpikeTick = [&](const std::vector<uint8_t> &pixels,
                              uint64_t seed) {
        Rng rng(seed);
        PackedSpikeGrid grid;
        encoder.encodePacked(pixels.data(), pixels.size(), rng, grid);
        SnnNetwork probe(net);
        return probe.present(grid, /*learn=*/false).firstSpikeTimeMs;
    };
    const uint64_t late_seed = deriveStreamSeed(17, 1000);
    std::vector<uint8_t> late;
    for (int divisor = 2; divisor <= 12 && late.empty(); ++divisor) {
        std::vector<uint8_t> dim = data[0].pixels;
        for (uint8_t &p : dim)
            p = static_cast<uint8_t>(p / divisor);
        const int64_t tick = firstSpikeTick(dim, late_seed);
        if (tick >= period / 4 && tick < period / 2)
            late = dim;
    }
    ASSERT_FALSE(late.empty());
    const std::vector<uint8_t> dark(config.numInputs, 0);

    auto &reg = telemetry::MetricRegistry::instance();
    const auto restarts = reg.counter("snn.encode.horizon_restarts");
    FirstSpikeReader reader(net, encoder);
    std::size_t next = 0;
    auto readEarly = [&](int expected_horizon) {
        const auto &pixels = data[next].pixels;
        const uint64_t seed = deriveStreamSeed(17, next++);
        const int64_t tick = firstSpikeTick(pixels, seed);
        ASSERT_GE(tick, 0);
        ASSERT_LT(tick, period / 4);
        reader.winner(pixels.data(), pixels.size(), seed);
        EXPECT_EQ(reader.horizonMs(), expected_horizon) << "image " << next;
    };
    readEarly(period / 4);
    struct Outlier
    {
        const std::vector<uint8_t> &pixels;
        int raised; ///< the horizon it needs.
    };
    for (const Outlier outlier : {Outlier{late, period / 2},
                                  Outlier{dark, period}}) {
        const uint64_t restarts0 = restarts->value();
        reader.winner(outlier.pixels.data(), outlier.pixels.size(),
                      late_seed);
        EXPECT_EQ(restarts->value() - restarts0, 1u);
        EXPECT_EQ(reader.horizonMs(), outlier.raised);
        for (std::size_t k = 1; k < FirstSpikeReader::kHorizonHistory; ++k)
            readEarly(outlier.raised);
        readEarly(period / 4);
    }
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

    // At one thread training encodes inline, so every lookup is the
    // presentation loop's (test_trainer covers the prefetching run).
    const std::size_t saved = parallelThreadCount();
    setParallelThreadCount(1);
    SnnTrainConfig train;
    train.epochs = 2;
    trainer.train(net, data, train);
    setParallelThreadCount(saved);

    // Epoch 1 encodes every grid into the store; epoch 2 must be
    // served from it entirely.
    const GridCacheStats after_train = trainer.gridCache().stats();
    EXPECT_EQ(after_train.misses, data.size());
    EXPECT_EQ(after_train.hits, data.size());
    EXPECT_EQ(after_train.entries, data.size());

    // Inference encodes through its FirstSpikeReader, past the store:
    // labeling and evaluation leave it untouched, even under the
    // training seed.
    const auto labels = trainer.labelNeurons(net, data, EvalMode::Wt, 77);
    trainer.evaluate(net, labels, data, EvalMode::Wt, train.seed);
    const GridCacheStats after_eval = trainer.gridCache().stats();
    EXPECT_EQ(after_eval.hits, after_train.hits);
    EXPECT_EQ(after_eval.misses, after_train.misses);
    EXPECT_EQ(after_eval.entries, after_train.entries);
}

} // namespace
} // namespace snn
} // namespace neuro
