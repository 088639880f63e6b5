#include "neuro/core/compare.h"

#include "neuro/common/logging.h"
#include "neuro/common/parallel.h"
#include "neuro/hw/stdp_hw.h"

namespace neuro {
namespace core {

namespace {

DesignRow
rowFromDesign(const std::string &type, const std::string &ni,
              const hw::Design &design)
{
    DesignRow row;
    row.type = type;
    row.ni = ni;
    row.areaNoSramMm2 = design.areaNoSramMm2();
    row.totalAreaMm2 = design.totalAreaMm2();
    row.delayNs = design.clockNs();
    row.energyUj = design.totalEnergyPerImageUj();
    row.cycles = design.cyclesPerImage();
    return row;
}

} // namespace

std::vector<DesignRow>
makeTable7Rows(const hw::MlpTopology &mlp_topo,
               const hw::SnnTopology &snn_topo)
{
    const std::vector<std::size_t> folds = {1, 4, 8, 16};
    std::vector<DesignRow> rows;

    for (std::size_t ni : folds) {
        rows.push_back(rowFromDesign(
            "SNNwot", std::to_string(ni),
            hw::buildFoldedSnnWot(snn_topo, ni)));
    }
    rows.push_back(rowFromDesign("SNNwot", "expanded",
                                 hw::buildExpandedSnnWot(snn_topo)));

    for (std::size_t ni : folds) {
        rows.push_back(rowFromDesign("SNNwt", std::to_string(ni),
                                     hw::buildFoldedSnnWt(snn_topo, ni)));
    }
    rows.push_back(rowFromDesign("SNNwt", "expanded",
                                 hw::buildExpandedSnnWt(snn_topo)));

    for (std::size_t ni : folds) {
        rows.push_back(rowFromDesign("MLP", std::to_string(ni),
                                     hw::buildFoldedMlp(mlp_topo, ni)));
    }
    rows.push_back(rowFromDesign("MLP", "expanded",
                                 hw::buildExpandedMlp(mlp_topo)));
    return rows;
}

IsoAccuracyResult
isoAccuracyComparison(const Workload &workload, double snn_accuracy,
                      const std::vector<std::size_t> &candidate_sizes,
                      uint64_t seed)
{
    NEURO_ASSERT(!candidate_sizes.empty(), "no candidate sizes");
    IsoAccuracyResult result;
    result.snnAccuracy = snn_accuracy;

    // Each candidate's accuracy depends only on (seed, hidden), so the
    // candidates can be trained concurrently; scanning the results in
    // candidate order afterwards selects the same "smallest matching
    // size" the sequential early-exit loop found. Where one task runs
    // at a time (one thread, or inside a pool task) the loop below is
    // strictly sequential and keeps the early exit, so no extra
    // candidates are ever trained there.
    const auto trainCandidate = [&](std::size_t hidden) {
        mlp::MlpConfig config = defaultMlpConfig(workload);
        config.layerSizes[1] = hidden;
        mlp::TrainConfig train = defaultMlpTrainConfig();
        train.seed = seed + hidden;
        return mlp::trainAndEvaluate(config, train, workload.data.train,
                                     workload.data.test,
                                     seed * 61 + hidden);
    };

    if (parallelWidth() == 1) {
        for (std::size_t hidden : candidate_sizes) {
            const double acc = trainCandidate(hidden);
            result.mlpHidden = hidden;
            result.mlpAccuracy = acc;
            if (acc >= snn_accuracy)
                break; // smallest matching size found.
        }
    } else {
        const std::vector<double> accs = parallelMap<double>(
            candidate_sizes.size(),
            [&](std::size_t i) { return trainCandidate(candidate_sizes[i]); });
        for (std::size_t i = 0; i < candidate_sizes.size(); ++i) {
            result.mlpHidden = candidate_sizes[i];
            result.mlpAccuracy = accs[i];
            if (accs[i] >= snn_accuracy)
                break;
        }
    }

    hw::MlpTopology mlp_topo = workload.mlpTopo;
    mlp_topo.hidden = result.mlpHidden;
    result.mlpAreaMm2 = hw::buildExpandedMlp(mlp_topo).totalAreaMm2();
    result.snnWtAreaMm2 =
        hw::buildExpandedSnnWt(workload.snnTopo).totalAreaMm2();
    result.snnWotAreaMm2 =
        hw::buildExpandedSnnWot(workload.snnTopo).totalAreaMm2();
    return result;
}

std::vector<FoldedRatio>
foldedCostRatios(const hw::MlpTopology &mlp_topo,
                 const hw::SnnTopology &snn_topo,
                 const std::vector<std::size_t> &fold_factors)
{
    std::vector<FoldedRatio> ratios;
    for (std::size_t ni : fold_factors) {
        const hw::Design snn = hw::buildFoldedSnnWot(snn_topo, ni);
        const hw::Design mlp = hw::buildFoldedMlp(mlp_topo, ni);
        FoldedRatio ratio;
        ratio.ni = ni;
        ratio.areaRatio = snn.totalAreaMm2() / mlp.totalAreaMm2();
        ratio.energyRatio =
            snn.totalEnergyPerImageUj() / mlp.totalEnergyPerImageUj();
        ratios.push_back(ratio);
    }
    return ratios;
}

} // namespace core
} // namespace neuro
