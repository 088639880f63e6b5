#include "neuro/hw/pareto.h"

#include <algorithm>
#include <functional>

#include "neuro/common/logging.h"
#include "neuro/common/parallel.h"

namespace neuro {
namespace hw {

bool
DesignPoint::dominates(const DesignPoint &other) const
{
    const bool no_worse = areaMm2 <= other.areaMm2 &&
        energyUj <= other.energyUj && latencyNs <= other.latencyNs;
    const bool strictly_better = areaMm2 < other.areaMm2 ||
        energyUj < other.energyUj || latencyNs < other.latencyNs;
    return no_worse && strictly_better;
}

namespace {

/** The fold factors and MLP neuron pools the design space spans. */
constexpr std::size_t kFoldFactors[] = {1, 2, 4, 8, 16, 32};
constexpr std::size_t kMlpPools[] = {25, 50};

DesignPoint
pointFrom(const std::string &label, const Design &design)
{
    DesignPoint point;
    point.label = label;
    point.areaMm2 = design.totalAreaMm2();
    point.energyUj = design.totalEnergyPerImageUj();
    point.latencyNs = design.timePerImageNs();
    return point;
}

} // namespace

std::vector<DesignPoint>
enumerateDesigns(const MlpTopology &mlp, const SnnTopology &snn)
{
    // Collect one (label, builder) task per candidate design, then
    // build them across the pool; parallelMap keeps this order.
    struct Candidate
    {
        std::string label;
        std::function<Design()> build;
    };
    std::vector<Candidate> candidates;
    for (std::size_t ni : kFoldFactors) {
        const std::string fold = " ni=" + std::to_string(ni);
        candidates.push_back({"MLP folded" + fold,
                              [=] { return buildFoldedMlp(mlp, ni); }});
        candidates.push_back({"SNNwot folded" + fold,
                              [=] { return buildFoldedSnnWot(snn, ni); }});
        candidates.push_back({"SNNwt folded" + fold,
                              [=] { return buildFoldedSnnWt(snn, ni); }});
        for (std::size_t pool : kMlpPools) {
            candidates.push_back(
                {"MLP pooled" + fold + " hw=" + std::to_string(pool),
                 [=] { return buildFoldedMlpPooled(mlp, ni, pool); }});
        }
    }
    candidates.push_back(
        {"MLP expanded", [=] { return buildExpandedMlp(mlp); }});
    candidates.push_back(
        {"SNNwot expanded", [=] { return buildExpandedSnnWot(snn); }});
    candidates.push_back(
        {"SNNwt expanded", [=] { return buildExpandedSnnWt(snn); }});
    return parallelMap<DesignPoint>(
        candidates.size(), [&](std::size_t i) {
            return pointFrom(candidates[i].label, candidates[i].build());
        });
}

std::vector<std::size_t>
paretoFrontier(const std::vector<DesignPoint> &points)
{
    std::vector<std::size_t> frontier;
    for (std::size_t i = 0; i < points.size(); ++i) {
        bool dominated = false;
        for (std::size_t j = 0; j < points.size(); ++j) {
            if (j == i)
                continue;
            if (points[j].dominates(points[i]) ||
                (j < i && points[j].areaMm2 == points[i].areaMm2 &&
                 points[j].energyUj == points[i].energyUj &&
                 points[j].latencyNs == points[i].latencyNs)) {
                dominated = true;
                break;
            }
        }
        if (!dominated)
            frontier.push_back(i);
    }
    std::stable_sort(frontier.begin(), frontier.end(),
                     [&](std::size_t a, std::size_t b) {
                         return points[a].areaMm2 < points[b].areaMm2;
                     });
    return frontier;
}

} // namespace hw
} // namespace neuro
