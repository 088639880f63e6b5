// Integration tests: cross-module flows on small workloads, asserting
// the paper's qualitative orderings rather than absolute numbers.

#include <gtest/gtest.h>

#include "neuro/common/rng.h"
#include "neuro/core/compare.h"
#include "neuro/core/experiment.h"
#include "neuro/core/explorer.h"
#include "neuro/gpu/gpu_model.h"
#include "neuro/hw/folded.h"
#include "neuro/mlp/quantized.h"
#include "neuro/snn/labeling.h"
#include "neuro/snn/snn_wot.h"

namespace neuro {
namespace {

core::Workload
smallMnist()
{
    // Shared tiny workload so the suite stays fast.
    static const core::Workload w = core::makeMnistWorkload(900, 250, 1);
    return w;
}

TEST(Integration, MlpBeatsSnnBpBeatsChance)
{
    const core::Workload w = smallMnist();
    mlp::TrainConfig train = core::defaultMlpTrainConfig();
    train.epochs = 6;
    const double mlp_acc = mlp::trainAndEvaluate(
        core::defaultMlpConfig(w), train, w.data.train, w.data.test, 42);

    snn::SnnBpConfig bp_config = core::defaultSnnBpConfig(w);
    bp_config.epochs = 4;
    Rng rng(2);
    snn::SnnBp snn_bp(bp_config, rng);
    snn_bp.train(w.data.train);
    const double bp_acc = snn_bp.evaluate(w.data.test, 3);

    EXPECT_GT(mlp_acc, 0.85);
    EXPECT_GT(bp_acc, 0.6);
    EXPECT_GE(mlp_acc, bp_acc - 0.05)
        << "MLP+BP should not lose to SNN+BP";
}

TEST(Integration, StdpLearnsAboveChanceAndWotTracksWt)
{
    const core::Workload w = smallMnist();
    const snn::SnnConfig config =
        core::defaultSnnConfig(w, w.data.train.size());
    Rng rng(7);
    snn::SnnNetwork net(config, rng);
    snn::SnnStdpTrainer trainer(config);
    snn::SnnTrainConfig train;
    train.epochs = 3;
    trainer.train(net, w.data.train, train);

    const auto labels_wt =
        trainer.labelNeurons(net, w.data.train, snn::EvalMode::Wt, 8);
    const double wt = trainer
        .evaluate(net, labels_wt, w.data.test, snn::EvalMode::Wt, 9)
        .accuracy;
    const auto labels_wot =
        trainer.labelNeurons(net, w.data.train, snn::EvalMode::Wot, 10);
    const double wot = trainer
        .evaluate(net, labels_wot, w.data.test, snn::EvalMode::Wot, 11)
        .accuracy;

    EXPECT_GT(wt, 0.3) << "STDP far below usable accuracy";
    EXPECT_GT(wot, 0.3);
    // The two forward paths read out the same learned weights: their
    // accuracies track within a few points (paper: 1.03% apart).
    EXPECT_NEAR(wt, wot, 0.2);

    // EvalMode::Wot is the integer SNNwot datapath: a hand-rolled
    // self-labeling and accuracy over SnnWotDatapath::forward() on the
    // encoder's counts give exactly the trainer's labels and accuracy.
    const snn::SnnWotDatapath datapath(net);
    const snn::SpikeEncoder &encoder = trainer.encoder();
    auto winner = [&](const datasets::Sample &sample) {
        std::vector<uint8_t> counts(sample.pixels.size());
        for (std::size_t p = 0; p < counts.size(); ++p)
            counts[p] = encoder.spikeCount(sample.pixels[p]);
        return datapath.forward(counts.data());
    };
    snn::SelfLabeling labeling(config.numNeurons,
                               w.data.train.numClasses());
    for (std::size_t i = 0; i < w.data.train.size(); ++i) {
        labeling.record(static_cast<std::size_t>(winner(w.data.train[i])),
                        w.data.train[i].label);
    }
    EXPECT_EQ(labeling.finalize(w.data.train.classHistogram()),
              labels_wot);
    std::size_t correct = 0;
    for (std::size_t i = 0; i < w.data.test.size(); ++i) {
        if (labels_wot[static_cast<std::size_t>(winner(w.data.test[i]))] ==
            w.data.test[i].label) {
            ++correct;
        }
    }
    EXPECT_EQ(wot, static_cast<double>(correct) /
                       static_cast<double>(w.data.test.size()));
}

TEST(Integration, QuantizedMlpDeployableAfterTraining)
{
    const core::Workload w = smallMnist();
    mlp::MlpConfig config = core::defaultMlpConfig(w);
    config.layerSizes[1] = 30;
    mlp::TrainConfig train;
    train.epochs = 6;
    Rng rng(5);
    mlp::Mlp net(config, rng);
    mlp::train(net, w.data.train, train);
    const mlp::QuantizedMlp quant(net);
    EXPECT_GT(quant.evaluate(w.data.test),
              mlp::evaluate(net, w.data.test) - 0.06);
}

TEST(Integration, Table8ShapeAcceleratorsBeatGpuExceptSnnWtNi1)
{
    const core::Workload w = smallMnist();
    const double gpu_mlp_ns =
        gpu::evaluate(gpu::mlpWorkload(784, 100, 10)).timeUs * 1000.0;
    const double gpu_wt_ns =
        gpu::evaluate(gpu::snnWtWorkload(784, 300, 500)).timeUs * 1000.0;

    const hw::Design mlp1 = hw::buildFoldedMlp(w.mlpTopo, 1);
    const hw::Design mlp16 = hw::buildFoldedMlp(w.mlpTopo, 16);
    const hw::Design wt1 = hw::buildFoldedSnnWt(w.snnTopo, 1);

    // Table 8's qualitative content.
    EXPECT_GT(gpu_mlp_ns / mlp1.timePerImageNs(), 10.0)
        << "folded MLP ni=1 must beat the GPU by >10x";
    EXPECT_GT(gpu_mlp_ns / mlp16.timePerImageNs(),
              gpu_mlp_ns / mlp1.timePerImageNs())
        << "more parallel folds must be faster";
    EXPECT_LT(gpu_wt_ns / wt1.timePerImageNs(), 1.0)
        << "SNNwt ni=1 must LOSE to the GPU (paper: 0.12x)";
}

TEST(Integration, FoldedRatiosFavorMlp)
{
    const core::Workload w = smallMnist();
    const auto ratios =
        core::foldedCostRatios(w.mlpTopo, w.snnTopo, {1, 4, 8, 16});
    ASSERT_EQ(ratios.size(), 4u);
    for (const auto &r : ratios) {
        EXPECT_GT(r.areaRatio, 1.5) << "ni=" << r.ni;
        EXPECT_GT(r.energyRatio, 1.2) << "ni=" << r.ni;
    }
}

TEST(Integration, ExplorerSweepsProduceOrderedSizes)
{
    const core::Workload w = core::makeMnistWorkload(400, 120, 2);
    const auto points = core::sweepMlpHidden(w, {5, 40}, 3);
    ASSERT_EQ(points.size(), 2u);
    // More neurons should not hurt on this easy task (allow noise).
    EXPECT_GT(points[1].accuracy, points[0].accuracy - 0.05);
}

} // namespace
} // namespace neuro
