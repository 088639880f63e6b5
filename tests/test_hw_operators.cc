// Tests for the operator-level hardware models: areas must reproduce
// the paper's published per-operator layout numbers (Table 4).

#include <gtest/gtest.h>

#include "neuro/core/reports.h"
#include "neuro/hw/operators.h"

namespace neuro {
namespace hw {
namespace {

constexpr double kTol = 0.10; // 10% model tolerance vs layout.

void
expectNear(double measured, double published, double tol,
           const char *what)
{
    EXPECT_NEAR(measured, published, published * tol) << what;
}

TEST(AdderTreeFaCount, SmallTreesByHand)
{
    // 2 operands of 8 bits: one 9-bit adder.
    EXPECT_EQ(adderTreeFaCount(2, 8), 9u);
    // 4 operands: two 9-bit + one 10-bit.
    EXPECT_EQ(adderTreeFaCount(4, 8), 2 * 9 + 10u);
    // 3 operands: one 9-bit (pair), then one 10-bit with the carry.
    EXPECT_EQ(adderTreeFaCount(3, 8), 9 + 10u);
    EXPECT_EQ(adderTreeFaCount(1, 8), 0u);
}

TEST(AdderTreeFaCount, MonotoneInInputsAndBits)
{
    EXPECT_GT(adderTreeFaCount(100, 8), adderTreeFaCount(50, 8));
    EXPECT_GT(adderTreeFaCount(100, 12), adderTreeFaCount(100, 8));
}

TEST(Log2Ceil, Values)
{
    EXPECT_EQ(log2Ceil(1), 0);
    EXPECT_EQ(log2Ceil(2), 1);
    EXPECT_EQ(log2Ceil(3), 2);
    EXPECT_EQ(log2Ceil(784), 10);
    EXPECT_EQ(log2Ceil(1024), 10);
}

TEST(Operators, AdderTreesMatchTable4)
{
    expectNear(makeAdderTree(784, 8).areaUm2,
               core::paper::kAdderTree784x8Um2, kTol, "MLP hidden tree");
    expectNear(makeAdderTree(100, 8).areaUm2, 5657.0, kTol, "MLP output tree");
    expectNear(makeAdderTree(15, 8).areaUm2,
               core::paper::kAdderTree15x8Um2, kTol, "15-input tree");
}

TEST(Operators, SnnNeuronOperatorsMatchTable4)
{
    // SNNwot neuron = 12-bit tree + per-input spike decode.
    const double wot = makeAdderTree(784, 12).areaUm2 +
        784.0 * kTech.spikeDecodeAreaUm2;
    expectNear(wot, core::paper::kAdderTreeSnnWotUm2, kTol,
               "SNNwot neuron");
    // SNNwt neuron = 8-bit tree + LIF extras.
    const double wt = makeAdderTree(784, 8).areaUm2 +
        makeLifExtras(784).areaUm2;
    expectNear(wt, core::paper::kAdderTreeSnnWtUm2, kTol,
               "SNNwt neuron");
}

TEST(Operators, MaxAndRngMatchTable4)
{
    expectNear(makeMaxTree(20, 24).areaUm2,
               core::paper::kMaxOpUm2, kTol, "20-input max");
    EXPECT_DOUBLE_EQ(makeGaussianRng().areaUm2, core::paper::kGaussRngUm2);
    EXPECT_DOUBLE_EQ(makeMultiplier(8).areaUm2, core::paper::kMultiplier8Um2);
}

TEST(Operators, MultiplierScalesQuadratically)
{
    const double a8 = makeMultiplier(8).areaUm2;
    const double a16 = makeMultiplier(16).areaUm2;
    EXPECT_NEAR(a16 / a8, 4.0, 1e-9);
}

class TreeMonotoneTest : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(TreeMonotoneTest, AreaEnergyDelayPositiveAndGrow)
{
    const std::size_t n = GetParam();
    const OperatorSpec small = makeAdderTree(n, 8);
    const OperatorSpec larger = makeAdderTree(n * 2, 8);
    EXPECT_GT(small.areaUm2, 0.0);
    EXPECT_GT(small.energyPj, 0.0);
    EXPECT_GE(small.delayNs, 0.0);
    EXPECT_GT(larger.areaUm2, small.areaUm2);
    EXPECT_GE(larger.delayNs, small.delayNs);
}

INSTANTIATE_TEST_SUITE_P(Sizes, TreeMonotoneTest,
                         ::testing::Values(2u, 4u, 16u, 64u, 256u, 784u));

TEST(Operators, FoldedExtrasScaleWithNi)
{
    EXPECT_GT(makeWotLaneBuffers(16).areaUm2, makeWotLaneBuffers(1).areaUm2);
    EXPECT_GT(makeWtFoldedExtras(16).areaUm2, makeWtFoldedExtras(1).areaUm2);
    EXPECT_GT(makeStdpPerInput(16).areaUm2, makeStdpPerInput(1).areaUm2);
}

} // namespace
} // namespace hw
} // namespace neuro
