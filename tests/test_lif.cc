// Tests for the LIF neuron's leak: the closed form the hardware uses
// (Section 2.2) against the reference discrete integration. The
// per-neuron state machine (gating, firing, reset) lives in SnnNetwork
// and is tested in test_network and test_snn_engine.

#include <gtest/gtest.h>

#include <cmath>

#include "neuro/snn/lif.h"

namespace neuro {
namespace snn {
namespace {

TEST(LifDecay, MatchesAnalyticExpression)
{
    EXPECT_NEAR(lifDecay(100.0, 500.0, 500.0), 100.0 * std::exp(-1.0),
                1e-9);
    EXPECT_DOUBLE_EQ(lifDecay(42.0, 0.0, 500.0), 42.0);
}

class LeakEquivalenceTest
    : public ::testing::TestWithParam<std::pair<double, double>>
{
};

TEST_P(LeakEquivalenceTest, DiscreteConvergesToClosedForm)
{
    const auto [dt, tleak] = GetParam();
    const double exact = lifDecay(1000.0, dt, tleak);
    const double coarse = lifDecayDiscrete(1000.0, dt, tleak, 10);
    const double fine = lifDecayDiscrete(1000.0, dt, tleak, 10000);
    // The paper replaces per-timestep integration by the closed form;
    // the discrete simulation must converge to it as steps increase.
    EXPECT_NEAR(fine, exact, std::fabs(exact) * 1e-3 + 1e-6);
    EXPECT_LT(std::fabs(fine - exact), std::fabs(coarse - exact) + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, LeakEquivalenceTest,
    ::testing::Values(std::make_pair(1.0, 500.0),
                      std::make_pair(50.0, 500.0),
                      std::make_pair(500.0, 500.0),
                      std::make_pair(45.0, 50.0),
                      std::make_pair(200.0, 10.0)));

} // namespace
} // namespace snn
} // namespace neuro
