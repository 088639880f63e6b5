// Tests for the cycle-level machinery: the folded schedule simulators
// (validated against the analytic cycle formulas of hw/folded.h).

#include <gtest/gtest.h>

#include <vector>

#include "neuro/cycle/folded_mlp_sim.h"
#include "neuro/cycle/folded_snn_sim.h"
#include "neuro/hw/folded.h"

namespace neuro {
namespace cycle {
namespace {

class FoldedMlpSimTest : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(FoldedMlpSimTest, CyclesMatchAnalyticFormula)
{
    const hw::MlpTopology topo{784, 100, 10};
    const std::size_t ni = GetParam();
    const ScheduleStats stats = simulateFoldedMlp(topo, ni);
    EXPECT_EQ(stats.cycles, hw::foldedMlpCycles(topo, ni));
    // Every logical MAC happens exactly once (bias handled separately).
    EXPECT_EQ(stats.macs, 784u * 100 + 100 * 10);
    EXPECT_EQ(stats.activations, 110u);
    // Idle lanes only in ragged final chunks.
    if (784 % ni == 0 && 100 % ni == 0) {
        EXPECT_EQ(stats.idleLanes, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(Folds, FoldedMlpSimTest,
                         ::testing::Values(1u, 3u, 4u, 8u, 16u, 32u));

class FoldedSnnWotSimTest : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(FoldedSnnWotSimTest, CyclesMatchAnalyticFormula)
{
    const hw::SnnTopology topo{784, 300};
    const std::size_t ni = GetParam();
    const ScheduleStats stats = simulateFoldedSnnWot(topo, ni);
    EXPECT_EQ(stats.cycles, hw::foldedSnnWotCycles(topo, ni));
    EXPECT_EQ(stats.adds, 784u * 300);
    EXPECT_EQ(stats.maxOps, 299u);
}

INSTANTIATE_TEST_SUITE_P(Folds, FoldedSnnWotSimTest,
                         ::testing::Values(1u, 4u, 8u, 16u));

TEST(FoldedSnnWtSim, ActivityFollowsSpikes)
{
    const hw::SnnTopology topo{784, 300};
    // 10 steps: spikes only in the first two.
    std::vector<uint32_t> spikes(10, 0);
    spikes[0] = 100;
    spikes[1] = 50;
    const ScheduleStats stats = simulateFoldedSnnWt(topo, 4, spikes);
    // Schedule always scans all inputs...
    EXPECT_EQ(stats.cycles, 10u * ((784 + 3) / 4 + 7));
    // ...but integration energy is data-dependent (clock gating).
    EXPECT_EQ(stats.adds, (100u + 50u) * 300u);
}

TEST(FoldedSnnWtSim, SramTrafficIndependentOfActivity)
{
    const hw::SnnTopology topo{784, 300};
    const std::vector<uint32_t> quiet(5, 0);
    const std::vector<uint32_t> busy(5, 700);
    const auto a = simulateFoldedSnnWt(topo, 8, quiet);
    const auto b = simulateFoldedSnnWt(topo, 8, busy);
    EXPECT_EQ(a.sramWordReads, b.sramWordReads);
    EXPECT_LT(a.adds, b.adds);
}

} // namespace
} // namespace cycle
} // namespace neuro
