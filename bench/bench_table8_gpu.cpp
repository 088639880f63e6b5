/**
 * @file
 * Table 8: speedups and energy benefits over a GPU (NVIDIA K20M,
 * CUBLAS sgemv implementations). Accelerator times/energies come from
 * the Table 7 designs; the GPU side from the calibrated launch/transfer
 * roofline model.
 */

#include <iostream>

#include "neuro/common/table.h"
#include "neuro/core/reports.h"
#include "neuro/gpu/gpu_model.h"
#include "neuro/hw/folded.h"

namespace {

struct AccelPoints
{
    neuro::hw::Design ni1;
    neuro::hw::Design ni16;
    neuro::hw::Design expanded;
};

void
addRows(neuro::TextTable &table, const char *name,
        const neuro::gpu::GpuCost &gpu, const AccelPoints &accel,
        const neuro::core::paper::Table8Row &pub)
{
    using neuro::TextTable;
    const double gpu_ns = gpu.timeUs * 1000.0;
    auto speed = [&](const neuro::hw::Design &d) {
        return gpu_ns / d.timePerImageNs();
    };
    auto energy = [&](const neuro::hw::Design &d) {
        return gpu.energyUj / d.totalEnergyPerImageUj();
    };
    table.addRow({name, "speedup",
                  neuro::core::vsPaper(speed(accel.ni1), pub.speedupNi1),
                  neuro::core::vsPaper(speed(accel.ni16),
                                       pub.speedupNi16),
                  neuro::core::vsPaper(speed(accel.expanded),
                                       pub.speedupExpanded)});
    table.addRow({name, "energy benefit",
                  neuro::core::vsPaper(energy(accel.ni1), pub.energyNi1),
                  neuro::core::vsPaper(energy(accel.ni16),
                                       pub.energyNi16),
                  neuro::core::vsPaper(energy(accel.expanded),
                                       pub.energyExpanded)});
    table.addSeparator();
}

} // namespace

int
main()
{
    using namespace neuro;
    namespace paper = core::paper;

    const hw::MlpTopology mlp{784, 100, 10};
    const hw::SnnTopology snn{784, 300};

    const gpu::GpuCost gpu_wot = gpu::evaluate(gpu::snnWotWorkload(784, 300));
    const gpu::GpuCost gpu_wt =
        gpu::evaluate(gpu::snnWtWorkload(784, 300, 500));
    const gpu::GpuCost gpu_mlp = gpu::evaluate(gpu::mlpWorkload(784, 100, 10));

    std::cout << "GPU (" << gpu::kDeviceName << ") per-image model: SNNwot "
              << TextTable::fmt(gpu_wot.timeUs, 1) << " us, SNNwt "
              << TextTable::fmt(gpu_wt.timeUs, 1) << " us, MLP "
              << TextTable::fmt(gpu_mlp.timeUs, 1) << " us\n\n";

    TextTable table("Table 8 (speedups and energy benefits over GPU)");
    table.setHeader({"Network", "Metric", "ni=1", "ni=16", "expanded"});
    addRows(table, "SNNwot", gpu_wot,
            {hw::buildFoldedSnnWot(snn, 1), hw::buildFoldedSnnWot(snn, 16),
             hw::buildExpandedSnnWot(snn)},
            paper::kTable8[0]);
    addRows(table, "SNNwt", gpu_wt,
            {hw::buildFoldedSnnWt(snn, 1), hw::buildFoldedSnnWt(snn, 16),
             hw::buildExpandedSnnWt(snn)},
            paper::kTable8[1]);
    addRows(table, "MLP", gpu_mlp,
            {hw::buildFoldedMlp(mlp, 1), hw::buildFoldedMlp(mlp, 16),
             hw::buildExpandedMlp(mlp)},
            paper::kTable8[2]);
    table.addNote("shape to reproduce: accelerators beat the GPU by "
                  "1-4 orders of magnitude EXCEPT folded SNNwt at small "
                  "ni, which loses (paper 0.12x)");
    table.print(std::cout);
    return 0;
}
