#include "neuro/gpu/gpu_model.h"

#include "neuro/common/logging.h"

namespace neuro {
namespace gpu {

GpuCost
evaluate(const GpuWorkload &workload)
{
    // Roofline terms (us): arithmetic and device-memory streaming.
    const double compute_us =
        static_cast<double>(workload.flops) / (kPeakGflops * 1e3);
    const double device_us = static_cast<double>(workload.deviceBytes) /
        (kMemBandwidthGBs * 1e3);
    const double kernel_body_us =
        compute_us > device_us ? compute_us : device_us;

    // Fixed per-call overheads dominate at these sizes.
    const double launch_us =
        kKernelLaunchUs * static_cast<double>(workload.kernels);
    const double transfer_us =
        kTransferLatencyUs * static_cast<double>(workload.transfers) +
        static_cast<double>(workload.hostBytes) / (kPcieBandwidthGBs * 1e3);

    GpuCost cost;
    cost.timeUs = launch_us + transfer_us + kernel_body_us + kSyncUs;
    cost.energyUj = cost.timeUs * kActivePowerW;
    return cost;
}

GpuWorkload
mlpWorkload(std::size_t inputs, std::size_t hidden, std::size_t outputs)
{
    GpuWorkload w;
    w.name = "MLP";
    const uint64_t macs =
        static_cast<uint64_t>(inputs + 1) * hidden +
        static_cast<uint64_t>(hidden + 1) * outputs;
    w.flops = 2 * macs;
    // Weights stream from DRAM every image (no reuse at batch size 1).
    w.deviceBytes = macs * 4 + (inputs + hidden + outputs) * 4;
    w.hostBytes = inputs + outputs * 4;
    w.kernels = 3;   // sgemv x2 + fused activation kernel.
    w.transfers = 2; // input upload, result download.
    return w;
}

GpuWorkload
snnWotWorkload(std::size_t inputs, std::size_t neurons)
{
    GpuWorkload w;
    w.name = "SNNwot";
    const uint64_t macs = static_cast<uint64_t>(inputs) * neurons;
    w.flops = 2 * macs + inputs; // conversion + gemv + small max.
    w.deviceBytes = macs * 4 + (inputs + neurons) * 4;
    w.hostBytes = inputs + 4;
    w.kernels = 3;   // convert, sgemv, max-reduce.
    w.transfers = 2;
    return w;
}

GpuWorkload
snnWtWorkload(std::size_t inputs, std::size_t neurons, int period_steps,
              int kernel_batch)
{
    NEURO_ASSERT(period_steps > 0 && kernel_batch > 0,
                 "bad SNNwt GPU workload");
    GpuWorkload w;
    w.name = "SNNwt";
    // Every 1 ms step is a sparse integrate + leak update; steps are
    // batched kernel_batch at a time to amortize launches (the paper's
    // code still ends up slower than the ni>=16 accelerator).
    const uint64_t steps = static_cast<uint64_t>(period_steps);
    const uint64_t macs =
        static_cast<uint64_t>(inputs) * neurons * steps / 10;
    w.flops = 2 * macs + neurons * steps;
    w.deviceBytes =
        static_cast<uint64_t>(inputs) * neurons * 4 * steps / 10 +
        neurons * 4 * steps;
    w.hostBytes = inputs + 4;
    w.kernels = static_cast<int>(steps) / kernel_batch + 2;
    w.transfers = 2;
    return w;
}

} // namespace gpu
} // namespace neuro
