// Tests for the STDP training pipeline: unsupervised learning +
// self-labeling + evaluation, on a small two-class task so the suite
// stays fast.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "neuro/common/rng.h"
#include "neuro/common/serialize.h"
#include "neuro/serve/registry.h"
#include "neuro/snn/serialize.h"
#include "neuro/snn/trainer.h"

namespace neuro {
namespace snn {
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
