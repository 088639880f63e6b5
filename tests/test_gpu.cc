// Tests for the GPU baseline model (Table 8).

#include <gtest/gtest.h>

#include "neuro/gpu/gpu_model.h"

namespace neuro {
namespace gpu {
namespace {

TEST(GpuModel, LaunchOverheadDominatesSmallLayers)
{
    const GpuWorkload mlp = mlpWorkload(784, 100, 10);
    const GpuCost cost = evaluate(mlp);
    // 3 launches + 2 transfers + sync: fixed costs are most of it.
    const double fixed = kKernelLaunchUs * mlp.kernels +
        kTransferLatencyUs * mlp.transfers + kSyncUs;
    EXPECT_GT(fixed / cost.timeUs, 0.8);
}

TEST(GpuModel, CalibratedTimesInPaperRange)
{
    // Back-derived from Table 8: GPU per-image times for the three
    // networks all land in ~50-90 us.
    const double mlp_us = evaluate(mlpWorkload(784, 100, 10)).timeUs;
    const double wot_us = evaluate(snnWotWorkload(784, 300)).timeUs;
    EXPECT_GT(mlp_us, 40.0);
    EXPECT_LT(mlp_us, 120.0);
    EXPECT_GT(wot_us, 40.0);
    EXPECT_LT(wot_us, 120.0);
}

TEST(GpuModel, EnergyIsTimeTimesPower)
{
    const GpuCost cost = evaluate(mlpWorkload(784, 100, 10));
    EXPECT_DOUBLE_EQ(cost.energyUj, cost.timeUs * kActivePowerW);
}

TEST(GpuModel, SnnWtMuchSlowerThanSnnWot)
{
    const double wot = evaluate(snnWotWorkload(784, 300)).timeUs;
    const double wt = evaluate(snnWtWorkload(784, 300, 500)).timeUs;
    EXPECT_GT(wt, 1.5 * wot);
}

TEST(GpuModel, ScalesWithNetworkSize)
{
    const double small = evaluate(mlpWorkload(784, 100, 10)).timeUs;
    const double large = evaluate(mlpWorkload(784, 8000, 1000)).timeUs;
    EXPECT_GT(large, small); // big layers leave the launch-bound regime.
}

TEST(GpuModel, WorkloadAccounting)
{
    const GpuWorkload w = mlpWorkload(784, 100, 10);
    EXPECT_EQ(w.flops, 2u * (785 * 100 + 101 * 10));
    EXPECT_EQ(w.kernels, 3);
    EXPECT_EQ(w.transfers, 2);
    const GpuWorkload s = snnWotWorkload(784, 300);
    EXPECT_GT(s.flops, 2u * 784 * 300 - 1);
}

} // namespace
} // namespace gpu
} // namespace neuro
