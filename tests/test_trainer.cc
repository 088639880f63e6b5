// Tests for the STDP training pipeline: unsupervised learning +
// self-labeling + evaluation, on a small two-class task so the suite
// stays fast; and the training grid store and neuron-split team at
// every thread count, on the paper's 784-300 layer.

#include <gtest/gtest.h>

#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "neuro/common/mutex.h"
#include "neuro/common/parallel.h"
#include "neuro/common/rng.h"
#include "neuro/common/serialize.h"
#include "neuro/datasets/synth_digits.h"
#include "neuro/kernels/kernels.h"
#include "neuro/serve/registry.h"
#include "neuro/snn/serialize.h"
#include "neuro/snn/trainer.h"
#include "neuro/telemetry/metrics.h"

namespace neuro {
namespace snn {

/** Reaches into a trainer's grid store. */
class GridStoreTestPeer
{
  public:
    static void
    setBudget(SnnStdpTrainer &trainer, std::size_t bytes)
    {
        trainer.store_.budgetBytes_ = bytes;
    }

    static std::size_t
    bytes(const SnnStdpTrainer &trainer)
    {
        MutexGuard lock(trainer.store_.mutex_);
        return trainer.store_.bytes_;
    }
};

namespace {

/** Two-class task: top-half-bright vs bottom-half-bright 8x8 images. */
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
            const bool bright =
                (s.label == 0) ? (y < 4) : (y >= 4);
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
halvesConfig()
{
    SnnConfig config;
    config.numInputs = 64;
    config.numNeurons = 8;
    config.coding.periodMs = 200;
    config.coding.minIntervalMs = 20;
    config.tLeakMs = 200.0;
    config.initialThreshold = 0.5 * 32.0 * 8.0 * 127.0; // half drive.
    config.stdp.ltpIncrement = 12.0f;
    config.stdp.ltdDecrement = 3.0f;
    config.homeostasis.epochMs = 20 * 200;
    config.homeostasis.activityTarget = 5.0;
    config.homeostasis.rate = 0.08;
    config.homeostasis.minThreshold = config.initialThreshold * 0.25;
    return config;
}

TEST(SnnStdpTrainer, TrainingProducesSpikesAndCallback)
{
    const SnnConfig config = halvesConfig();
    const datasets::Dataset data = makeHalves(60, 1);
    Rng rng(2);
    SnnNetwork net(config, rng);
    SnnStdpTrainer trainer(config);
    SnnTrainConfig train;
    train.epochs = 2;
    std::size_t epochs_seen = 0;
    trainer.train(net, data, train, [&](const SnnEpochReport &r) {
        EXPECT_EQ(r.epoch, epochs_seen);
        ++epochs_seen;
        EXPECT_GT(r.outputSpikes, 0u);
    });
    EXPECT_EQ(epochs_seen, 2u);
}

TEST(SnnStdpTrainer, LearnsTwoClassTask)
{
    const SnnConfig config = halvesConfig();
    const datasets::Dataset train_set = makeHalves(200, 3);
    const datasets::Dataset test_set = makeHalves(60, 4);
    Rng rng(5);
    SnnNetwork net(config, rng);
    SnnStdpTrainer trainer(config);
    SnnTrainConfig train;
    train.epochs = 3;
    trainer.train(net, train_set, train);

    const auto labels =
        trainer.labelNeurons(net, train_set, EvalMode::Wt, 6);
    const auto wt =
        trainer.evaluate(net, labels, test_set, EvalMode::Wt, 7);
    EXPECT_GT(wt.accuracy, 0.85) << "STDP failed a separable 2-class task";

    const auto labels_wot =
        trainer.labelNeurons(net, train_set, EvalMode::Wot, 8);
    const auto wot =
        trainer.evaluate(net, labels_wot, test_set, EvalMode::Wot, 9);
    EXPECT_GT(wot.accuracy, 0.85);
}

TEST(SnnStdpTrainer, ConvenienceWrapperRuns)
{
    const SnnConfig config = halvesConfig();
    SnnTrainConfig train;
    train.epochs = 2;
    const double acc = trainAndEvaluateStdp(
        config, train, makeHalves(120, 10), makeHalves(40, 11),
        EvalMode::Wot, 12);
    EXPECT_GT(acc, 0.6);
}

TEST(SnnStdpTrainer, HomeostasisAblationChangesOutcome)
{
    // With homeostasis disabled the network still runs; the paper
    // reports ~5% accuracy from homeostasis on MNIST. Here we only
    // assert the ablation path works and produces a valid accuracy.
    SnnConfig config = halvesConfig();
    config.homeostasis.enabled = false;
    SnnTrainConfig train;
    train.epochs = 2;
    const double acc = trainAndEvaluateStdp(
        config, train, makeHalves(120, 13), makeHalves(40, 14),
        EvalMode::Wt, 15);
    EXPECT_GE(acc, 0.0);
    EXPECT_LE(acc, 1.0);
}

/** Weights, thresholds and epoch reports of one training run. */
struct TrainedState
{
    std::vector<float> weights;
    std::vector<double> thresholds;
    std::vector<std::size_t> outputSpikes;
    std::vector<std::size_t> silentImages;
    GridCacheStats cache;
    std::size_t storeBytes = 0; ///< grid bytes the store holds.
};

/** Two epochs of @p config over @p data with a fresh network and a
 *  trainer whose grid store holds @p budget bytes. */
TrainedState
trainState(const SnnConfig &config, const datasets::Dataset &data,
           std::size_t budget = GridStore::kBudgetBytes)
{
    Rng rng(21);
    SnnNetwork net(config, rng);
    SnnStdpTrainer trainer(config);
    GridStoreTestPeer::setBudget(trainer, budget);
    SnnTrainConfig train;
    train.epochs = 2;
    TrainedState state;
    trainer.train(net, data, train, [&](const SnnEpochReport &r) {
        state.outputSpikes.push_back(r.outputSpikes);
        state.silentImages.push_back(r.silentImages);
    });
    state.weights = net.weights().data();
    state.thresholds = net.thresholds();
    state.cache = trainer.gridCache().stats();
    state.storeBytes = GridStoreTestPeer::bytes(trainer);
    return state;
}

/** trainState() of a wider layer than halvesConfig(). */
TrainedState
trainHalves(const datasets::Dataset &data,
            std::size_t budget = GridStore::kBudgetBytes)
{
    SnnConfig config = halvesConfig();
    config.numNeurons = 64;
    return trainState(config, data, budget);
}

/** The paper's 784-300 layer, with homeostasis epochs short enough to
 *  move the thresholds (which the per-neuron fire counts decide)
 *  within a small training set. */
SnnConfig
paperLayerConfig()
{
    SnnConfig config;
    config.homeostasis.epochMs = 16 * config.coding.periodMs;
    config.homeostasis.activityTarget = 2.0;
    return config;
}

/** @p count MNIST-like 28x28 digits. */
datasets::Dataset
smallDigits(std::size_t count)
{
    datasets::SynthDigitsOptions options;
    options.trainSize = count;
    options.testSize = 10;
    return datasets::makeSynthDigits(options).train;
}

/** Restores the thread count and the kernel table on scope exit. */
struct PoolAndSimdRestore
{
    std::size_t threads = parallelThreadCount();
    ~PoolAndSimdRestore()
    {
        setParallelThreadCount(threads);
        kernels::setSimdMode(kernels::SimdMode::Auto);
    }
};

double
gaugeValue(const char *name)
{
    return telemetry::MetricRegistry::instance().gauge(name)->value();
}

/** Every field of @p run equals @p expect's. */
void
expectSameTraining(const TrainedState &run, const TrainedState &expect,
                   const std::string &where)
{
    EXPECT_EQ(run.weights, expect.weights) << where;
    EXPECT_EQ(run.thresholds, expect.thresholds) << where;
    EXPECT_EQ(run.outputSpikes, expect.outputSpikes) << where;
    EXPECT_EQ(run.silentImages, expect.silentImages) << where;
}

TEST(SnnStdpTrainer, NeuronSplitTrainingIsBitIdenticalAtAnyThreadCount)
{
    // Two epochs of the 784-300 layer leave the same weights,
    // thresholds and epoch reports at every kernel table and thread
    // count: 300 neurons form a team of one member per thread.
    const SnnConfig config = paperLayerConfig();
    const datasets::Dataset data = smallDigits(48);
    PoolAndSimdRestore restore;
    kernels::setSimdMode(kernels::SimdMode::Off);
    setParallelThreadCount(1);
    const TrainedState serial = trainState(config, data);
    ASSERT_GT(serial.outputSpikes[0], data.size());
    std::vector<double> thresholds(config.numNeurons);
    for (kernels::SimdMode mode :
         {kernels::SimdMode::Off, kernels::SimdMode::Avx2,
          kernels::SimdMode::Avx512}) {
        // Forcing a level the machine lacks falls back to a narrower
        // one, which is simply covered twice.
        kernels::setSimdMode(mode);
        for (const std::size_t threads : {1u, 2u, 3u, 4u, 8u}) {
            setParallelThreadCount(threads);
            const std::string where = std::to_string(threads) +
                " threads at " + kernels::isaName(kernels::activeIsa());
            expectSameTraining(trainState(config, data), serial, where);
            EXPECT_EQ(gaugeValue("snn.train.team_size"),
                      static_cast<double>(threads))
                << where;
        }
    }
    // Homeostasis moved the thresholds, so the fire counts agreed.
    Rng rng(21);
    const SnnNetwork fresh(config, rng);
    EXPECT_NE(serial.thresholds, fresh.thresholds());
}

TEST(SnnStdpTrainer, UpFrontEncodeMissesOncePerGrid)
{
    // The grid store is filled before epoch 1, split over the pool
    // above one thread and inline inside a pool task: one miss per
    // grid, one hit per grid in epoch 2, and the serial result.
    const datasets::Dataset data = smallDigits(40);
    const SnnConfig config = paperLayerConfig();
    PoolAndSimdRestore restore;
    setParallelThreadCount(1);
    const TrainedState serial = trainState(config, data);
    for (const std::size_t threads : {1u, 2u, 4u}) {
        setParallelThreadCount(threads);
        const TrainedState run = trainState(config, data);
        const std::string where = std::to_string(threads) + " threads";
        expectSameTraining(run, serial, where);
        EXPECT_EQ(run.cache.entries, data.size()) << where;
        EXPECT_EQ(run.cache.misses, data.size()) << where;
        EXPECT_EQ(run.cache.hits, data.size()) << where;
        EXPECT_EQ(run.cache.evictions, 0u) << where;
    }
    TrainedState nested;
    bool in_task = false;
    parallelInvoke({[&] {
                        in_task = ThreadPool::inParallelRegion();
                        nested = trainState(config, data);
                    },
                    [] {}});
    EXPECT_TRUE(in_task);
    expectSameTraining(nested, serial, "inside a pool task");
    EXPECT_EQ(nested.cache.misses, data.size());
    EXPECT_EQ(gaugeValue("snn.train.team_size"), 1.0);
}

TEST(SnnStdpTrainer, StoreSmallerThanTheTrainingSetKeepsTheSerialResult)
{
    // Every member of a team encodes the grids the full store refused
    // for itself, from the same (seed, index) streams.
    const datasets::Dataset data = smallDigits(40);
    const SnnConfig config = paperLayerConfig();
    const std::size_t budget =
        10 * SnnStdpTrainer(config)
                 .gridFor(data, 0, SnnTrainConfig{}.seed)
                 ->bytes();
    PoolAndSimdRestore restore;
    setParallelThreadCount(1);
    const TrainedState serial = trainState(config, data);
    for (const std::size_t threads : {2u, 4u}) {
        setParallelThreadCount(threads);
        const TrainedState run = trainState(config, data, budget);
        const std::string where = std::to_string(threads) + " threads";
        expectSameTraining(run, serial, where);
        EXPECT_GT(run.cache.entries, 0u) << where;
        EXPECT_LT(run.cache.entries, data.size()) << where;
        EXPECT_EQ(run.cache.evictions, data.size() - run.cache.entries)
            << where;
        EXPECT_EQ(run.cache.hits, run.cache.entries) << where;
    }
}

TEST(SnnStdpTrainer, FullGridStoreEncodesTheRestInline)
{
    // A store with room for a few grids refuses the rest, and the loop
    // encodes their samples inline in both epochs from the same
    // (seed, index) streams: training learns what it does with every
    // grid stored.
    const datasets::Dataset data = makeHalves(150, 25);
    const std::size_t budget =
        4 * SnnStdpTrainer(halvesConfig())
                .gridFor(data, 0, SnnTrainConfig{}.seed)
                ->bytes();
    const std::size_t saved = parallelThreadCount();
    setParallelThreadCount(1);
    const TrainedState unbounded = trainHalves(data);
    ASSERT_EQ(unbounded.cache.entries, data.size());
    ASSERT_GT(unbounded.storeBytes, budget);
    auto expectUnboundedResult = [&](const TrainedState &run,
                                     const std::string &where) {
        EXPECT_EQ(run.weights, unbounded.weights) << where;
        EXPECT_EQ(run.thresholds, unbounded.thresholds) << where;
        EXPECT_EQ(run.outputSpikes, unbounded.outputSpikes) << where;
        EXPECT_EQ(run.silentImages, unbounded.silentImages) << where;
        // The store stops at its budget, and each refusal is counted.
        EXPECT_GT(run.cache.entries, 0u) << where;
        EXPECT_LT(run.cache.entries, data.size()) << where;
        EXPECT_LE(run.storeBytes, budget) << where;
        EXPECT_GE(run.cache.evictions, data.size() - run.cache.entries)
            << where;
        EXPECT_LE(run.cache.evictions,
                  data.size() - run.cache.entries + 1)
            << where;
        EXPECT_EQ(run.cache.misses, run.cache.entries) << where;
        // Epoch 2 presents every stored grid once.
        EXPECT_EQ(run.cache.hits, run.cache.entries) << where;
    };
    expectUnboundedResult(trainHalves(data, budget), "1 thread");
    setParallelThreadCount(4);
    expectUnboundedResult(trainHalves(data, budget), "4 threads");
    TrainedState nested;
    parallelInvoke({[&] { nested = trainHalves(data, budget); }, [] {}});
    expectUnboundedResult(nested, "inside a pool task");
    setParallelThreadCount(saved);
}

TEST(SnnStdpTrainer, ThrowingEpochCallbackLeavesNoMemberWaiting)
{
    // The callback runs after the epoch's team has finished, so the
    // exception reaches the caller with no member waiting, and the
    // pool is free again: a second training run on it completes with
    // the serial result.
    const datasets::Dataset data = smallDigits(24);
    const SnnConfig config = paperLayerConfig();
    PoolAndSimdRestore restore;
    setParallelThreadCount(4);
    Rng rng(24);
    SnnNetwork net(config, rng);
    SnnStdpTrainer trainer(config);
    SnnTrainConfig train;
    train.epochs = 3;
    std::size_t epochs_seen = 0;
    EXPECT_THROW(trainer.train(net, data, train,
                               [&](const SnnEpochReport &) {
                                   ++epochs_seen;
                                   throw std::runtime_error("stop");
                               }),
                 std::runtime_error);
    EXPECT_EQ(epochs_seen, 1u);
    EXPECT_EQ(gaugeValue("snn.train.team_size"), 4.0);

    const TrainedState after = trainState(config, data);
    setParallelThreadCount(1);
    const TrainedState serial = trainState(config, data);
    expectSameTraining(after, serial, "after the throw");
}

/**
 * The served SNNwot sibling is the in-process EvalMode::Wot readout: a
 * trained, Wot-labeled model loaded into a ModelRegistry answers every
 * image with labels[winner] of the network's datapath, so its accuracy
 * is evaluate(..., EvalMode::Wot)'s under the same labels.
 */
TEST(SnnWotBackend, ServedSiblingIsTheInProcessWotReadout)
{
    const SnnConfig config = halvesConfig();
    const datasets::Dataset train_set = makeHalves(120, 16);
    const datasets::Dataset test_set = makeHalves(40, 17);
    Rng rng(18);
    SnnNetwork net(config, rng);
    SnnStdpTrainer trainer(config);
    SnnTrainConfig train;
    train.epochs = 2;
    trainer.train(net, train_set, train);
    const auto labels =
        trainer.labelNeurons(net, train_set, EvalMode::Wot, 19);

    const std::string path =
        testing::TempDir() + "trainer_served_wot.neuro";
    {
        Archive archive;
        saveSnn(net, labels, archive);
        ASSERT_TRUE(archive.save(path));
    }
    serve::ModelRegistry registry;
    std::string error;
    ASSERT_EQ(registry.loadFile("halves", path, &error).size(), 2u)
        << error;
    std::remove(path.c_str());
    const auto wot = registry.find("halves.wot");
    ASSERT_NE(wot, nullptr);
    const auto session = wot->newSession();

    const SnnWotDatapath datapath(net);
    std::size_t correct = 0;
    for (std::size_t i = 0; i < test_set.size(); ++i) {
        const auto &pixels = test_set[i].pixels;
        const int served =
            session->classify(pixels.data(), pixels.size(), i);
        EXPECT_EQ(served, labels[static_cast<std::size_t>(
                              datapath.forwardPixels(pixels.data()))])
            << "image " << i;
        correct += served == test_set[i].label;
    }
    const double served_accuracy = static_cast<double>(correct) /
        static_cast<double>(test_set.size());
    EXPECT_EQ(served_accuracy,
              trainer.evaluate(net, labels, test_set, EvalMode::Wot, 20)
                  .accuracy);
}

} // namespace
} // namespace snn
} // namespace neuro
