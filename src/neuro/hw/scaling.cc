#include "neuro/hw/scaling.h"

#include "neuro/common/logging.h"
#include "neuro/common/parallel.h"

namespace neuro {
namespace hw {

std::vector<ScaleComparison>
scalingStudy(const std::vector<ScalePoint> &scales,
             const TechParams &tech)
{
    // Each ladder rung builds four analytic designs independently of
    // the others; parallelMap keeps the output in ladder order.
    return parallelMap<ScaleComparison>(
        scales.size(), [&](std::size_t i) {
            const ScalePoint &scale = scales[i];
            NEURO_ASSERT(scale.inputs > 0 && scale.mlpHidden > 0 &&
                             scale.snnNeurons > 0,
                         "degenerate scale point");
            const MlpTopology mlp{scale.inputs, scale.mlpHidden,
                                  scale.mlpOutputs};
            const SnnTopology snn{scale.inputs, scale.snnNeurons};

            ScaleComparison cmp;
            cmp.scale = scale;
            const Design mlp_exp = buildExpandedMlp(mlp, tech);
            const Design snn_exp = buildExpandedSnnWot(snn, tech);
            cmp.mlpExpandedMm2 = mlp_exp.totalAreaMm2();
            cmp.snnExpandedMm2 = snn_exp.totalAreaMm2();
            cmp.mlpExpandedNsPerImage = mlp_exp.timePerImageNs();
            cmp.snnExpandedNsPerImage = snn_exp.timePerImageNs();
            cmp.mlpExpandedUj = mlp_exp.totalEnergyPerImageUj();
            cmp.snnExpandedUj = snn_exp.totalEnergyPerImageUj();
            cmp.mlpFoldedMm2 =
                buildFoldedMlp(mlp, 16, tech).totalAreaMm2();
            cmp.snnFoldedMm2 =
                buildFoldedSnnWot(snn, 16, tech).totalAreaMm2();
            return cmp;
        });
}

std::vector<ScalePoint>
defaultScaleLadder()
{
    // Grow from MNIST scale (784 inputs, 100/300 neurons) by doubling
    // the input plane and layer widths; the SNN keeps its 3x neuron
    // ratio. Output count grows with the task (more classes at scale).
    std::vector<ScalePoint> ladder;
    std::size_t inputs = 784;
    std::size_t hidden = 100;
    std::size_t outputs = 10;
    for (int step = 0; step < 7; ++step) {
        ladder.push_back({inputs, hidden, outputs, hidden * 3});
        inputs *= 2;
        hidden *= 2;
        if (step % 2 == 1)
            outputs *= 2;
    }
    return ladder;
}

} // namespace hw
} // namespace neuro
