/**
 * @file
 * Analytic GPU execution model for the Table 8 baseline: the paper runs
 * CUBLAS-sgemv-based implementations of the MLP and SNNwot on an NVIDIA
 * K20M and reports accelerator speedups of 40x-6000x. For these tiny
 * layers (100-300 neurons, 784 inputs) the GPU is dominated by fixed
 * per-kernel costs — kernel launch, device synchronization and PCIe
 * transfers — not by arithmetic; the model therefore charges per-kernel
 * and per-transfer latencies plus roofline compute/bandwidth terms.
 * Constants are calibrated so the derived per-image times land where the
 * paper's speedups put them (~55-80 us/image for all three networks).
 */

#pragma once

#include <cstdint>
#include <string>

namespace neuro {
namespace gpu {

/** The modeled device: NVIDIA K20M, CUDA 5.5 era. */
inline constexpr const char *kDeviceName = "NVIDIA K20M";
inline constexpr double kPeakGflops = 3520.0;     ///< single-precision peak.
inline constexpr double kMemBandwidthGBs = 208.0; ///< device DRAM bandwidth.
inline constexpr double kPcieBandwidthGBs = 6.0;  ///< effective host rate.
inline constexpr double kKernelLaunchUs = 12.0;   ///< launch + driver.
inline constexpr double kTransferLatencyUs = 8.0; ///< per-cudaMemcpy fixed.
inline constexpr double kSyncUs = 10.0;           ///< per-image synchronize.
inline constexpr double kActivePowerW = 60.0;     ///< average power, busy.

/** One network's per-image GPU workload. */
struct GpuWorkload
{
    std::string name;        ///< e.g. "MLP 784-100-10".
    uint64_t flops = 0;      ///< arithmetic per image (2 x MACs).
    uint64_t deviceBytes = 0;///< weight/activation traffic per image.
    uint64_t hostBytes = 0;  ///< PCIe traffic per image (in + out).
    int kernels = 0;         ///< kernel launches per image.
    int transfers = 0;       ///< cudaMemcpy calls per image.
};

/** Derived per-image cost. */
struct GpuCost
{
    double timeUs = 0;   ///< wall-clock time per image.
    double energyUj = 0; ///< energy per image.
};

/** Evaluate @p workload on the modeled device. */
GpuCost evaluate(const GpuWorkload &workload);

/** Workload of the 2-layer MLP via two sgemv calls + activation. */
GpuWorkload mlpWorkload(std::size_t inputs, std::size_t hidden,
                        std::size_t outputs);

/** Workload of SNNwot: conversion kernel + sgemv + max reduction. */
GpuWorkload snnWotWorkload(std::size_t inputs, std::size_t neurons);

/** Workload of SNNwt: per-step integration over the whole window. */
GpuWorkload snnWtWorkload(std::size_t inputs, std::size_t neurons,
                          int period_steps, int kernel_batch = 50);

} // namespace gpu
} // namespace neuro

