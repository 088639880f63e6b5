// Tests for the scaling study and the classification metrics.

#include <gtest/gtest.h>

#include <sstream>

#include "neuro/core/metrics.h"
#include "neuro/hw/scaling.h"

namespace neuro {
namespace {

TEST(ScalingStudy, LadderGrowsMonotonically)
{
    const auto ladder = hw::defaultScaleLadder();
    ASSERT_GE(ladder.size(), 4u);
    for (std::size_t i = 1; i < ladder.size(); ++i) {
        EXPECT_GT(ladder[i].inputs, ladder[i - 1].inputs);
        EXPECT_GT(ladder[i].mlpHidden, ladder[i - 1].mlpHidden);
        EXPECT_EQ(ladder[i].snnNeurons, ladder[i].mlpHidden * 3);
    }
}

TEST(ScalingStudy, PaperConclusionsHoldAcrossScales)
{
    const auto results = hw::scalingStudy(hw::defaultScaleLadder());
    for (const auto &r : results) {
        // Expanded: the multiplier-free SNN always wins area.
        EXPECT_TRUE(r.snnWinsExpandedArea())
            << "inputs=" << r.scale.inputs;
        // Folded: the MLP always wins (3x fewer synapses to store).
        EXPECT_FALSE(r.snnWinsFoldedArea())
            << "inputs=" << r.scale.inputs;
        EXPECT_GT(r.mlpExpandedMm2, 0.0);
        EXPECT_GT(r.snnFoldedMm2, 0.0);
    }
    // The expanded advantage widens with scale.
    const double first_ratio =
        results.front().snnExpandedMm2 / results.front().mlpExpandedMm2;
    const double last_ratio =
        results.back().snnExpandedMm2 / results.back().mlpExpandedMm2;
    EXPECT_LT(last_ratio, first_ratio);
}

TEST(ConfusionMatrix, AccuracyAndCells)
{
    core::ConfusionMatrix m(3);
    m.record(0, 0);
    m.record(0, 1);
    m.record(1, 1);
    m.record(2, 2);
    EXPECT_EQ(m.total(), 4u);
    EXPECT_DOUBLE_EQ(m.accuracy(), 0.75);
    EXPECT_EQ(m.at(0, 1), 1u);
    EXPECT_EQ(m.at(1, 0), 0u);
}

TEST(ConfusionMatrix, PrecisionRecallF1)
{
    core::ConfusionMatrix m(2);
    // Class 0: 3 actual (2 correct); class 1: 2 actual (1 correct),
    // predictions of 0: 2+1=3 -> precision(0) = 2/3; recall(0) = 2/3.
    m.record(0, 0);
    m.record(0, 0);
    m.record(0, 1);
    m.record(1, 0);
    m.record(1, 1);
    EXPECT_NEAR(m.precision(0), 2.0 / 3.0, 1e-12);
    EXPECT_NEAR(m.recall(0), 2.0 / 3.0, 1e-12);
    EXPECT_NEAR(m.f1(0), 2.0 / 3.0, 1e-12);
    EXPECT_NEAR(m.precision(1), 0.5, 1e-12);
    EXPECT_NEAR(m.recall(1), 0.5, 1e-12);
}

TEST(ConfusionMatrix, OutOfRangePredictionIsError)
{
    core::ConfusionMatrix m(2);
    m.record(0, -1);
    m.record(0, 5);
    EXPECT_EQ(m.total(), 2u);
    EXPECT_DOUBLE_EQ(m.accuracy(), 0.0);
}

TEST(ConfusionMatrix, NeverPredictedClassHasZeroPrecision)
{
    core::ConfusionMatrix m(2);
    m.record(1, 0);
    EXPECT_DOUBLE_EQ(m.precision(1), 0.0);
    EXPECT_DOUBLE_EQ(m.recall(1), 0.0);
    EXPECT_DOUBLE_EQ(m.f1(1), 0.0);
}

TEST(ConfusionMatrix, PrintRendersAllCells)
{
    core::ConfusionMatrix m(2);
    m.record(0, 0);
    m.record(1, 0);
    std::ostringstream os;
    m.print(os);
    EXPECT_NE(os.str().find("accuracy"), std::string::npos);
}

TEST(EvaluateConfusion, RunsPredictorOverDataset)
{
    datasets::Dataset data("toy", 1, 1, 2);
    for (int i = 0; i < 10; ++i) {
        datasets::Sample s;
        s.pixels = {static_cast<uint8_t>(i < 5 ? 10 : 200)};
        s.label = i < 5 ? 0 : 1;
        data.add(std::move(s));
    }
    const auto matrix = core::evaluateConfusion(
        data, [](const datasets::Sample &s) {
            return s.pixels[0] > 100 ? 1 : 0;
        });
    EXPECT_DOUBLE_EQ(matrix.accuracy(), 1.0);
    EXPECT_EQ(matrix.at(0, 0), 5u);
    EXPECT_EQ(matrix.at(1, 1), 5u);
}

} // namespace
} // namespace neuro
