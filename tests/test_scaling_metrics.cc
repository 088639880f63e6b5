// Tests for the scaling study.

#include <gtest/gtest.h>

#include "neuro/hw/scaling.h"

namespace neuro {
namespace {

TEST(ScalingStudy, LadderGrowsMonotonically)
{
    const auto results = hw::scalingStudy();
    ASSERT_GE(results.size(), 4u);
    for (std::size_t i = 1; i < results.size(); ++i) {
        const hw::ScalePoint &rung = results[i].scale;
        const hw::ScalePoint &prev = results[i - 1].scale;
        EXPECT_GT(rung.inputs, prev.inputs);
        EXPECT_GT(rung.mlpHidden, prev.mlpHidden);
        EXPECT_EQ(rung.snnNeurons, rung.mlpHidden * 3);
    }
}

TEST(ScalingStudy, PaperConclusionsHoldAcrossScales)
{
    const auto results = hw::scalingStudy();
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

} // namespace
} // namespace neuro
