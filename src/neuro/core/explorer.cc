#include "neuro/core/explorer.h"

#include "neuro/common/config.h"
#include "neuro/common/parallel.h"

namespace neuro {
namespace core {

// Every sweep below is embarrassingly parallel across its points: the
// per-point seeds are fixed functions of (seed, point), never of the
// iteration order, so running points concurrently via parallelMap
// returns the exact vectors the old sequential loops produced.

std::vector<SweepPoint>
sweepMlpHidden(const Workload &workload,
               const std::vector<std::size_t> &hidden_sizes, uint64_t seed)
{
    return parallelMap<SweepPoint>(
        hidden_sizes.size(), [&](std::size_t i) {
            const std::size_t hidden = hidden_sizes[i];
            mlp::MlpConfig config = defaultMlpConfig(workload);
            config.layerSizes[1] = hidden;
            mlp::TrainConfig train = defaultMlpTrainConfig();
            train.seed = seed + hidden;
            const double acc = mlp::trainAndEvaluate(
                config, train, workload.data.train, workload.data.test,
                seed * 31 + hidden);
            return SweepPoint{static_cast<double>(hidden), acc};
        });
}

std::vector<SweepPoint>
sweepSnnNeurons(const Workload &workload,
                const std::vector<std::size_t> &neuron_counts,
                uint64_t seed)
{
    return parallelMap<SweepPoint>(
        neuron_counts.size(), [&](std::size_t i) {
            const std::size_t neurons = neuron_counts[i];
            snn::SnnConfig config =
                defaultSnnConfig(workload, workload.data.train.size());
            config.numNeurons = neurons;
            retuneSnnForTopology(config, workload.data.train.size());

            snn::SnnTrainConfig train;
            train.epochs = scaled(3, 1);
            train.seed = seed + neurons;
            const double acc = snn::trainAndEvaluateStdp(
                config, train, workload.data.train, workload.data.test,
                snn::EvalMode::Wt, seed * 37 + neurons);
            return SweepPoint{static_cast<double>(neurons), acc};
        });
}

std::vector<SweepPoint>
sweepSigmoidSlope(const Workload &workload,
                  const std::vector<double> &slopes, uint64_t seed)
{
    const float base_lr = defaultMlpTrainConfig().learningRate;
    // slopes.size() parametric-sigmoid points plus the step-function
    // limit (recorded as parameter 0) as the last point.
    return parallelMap<SweepPoint>(
        slopes.size() + 1, [&](std::size_t i) {
            mlp::MlpConfig config = defaultMlpConfig(workload);
            mlp::TrainConfig train = defaultMlpTrainConfig();
            double param = 0.0;
            uint64_t eval_seed = seed * 43;
            if (i < slopes.size()) {
                const double a = slopes[i];
                param = a;
                config.activation = mlp::ActivationKind::ParamSigmoid;
                config.slope = static_cast<float>(a);
                train.seed = seed + static_cast<uint64_t>(a * 8);
                eval_seed = seed * 41 + static_cast<uint64_t>(a * 8);
            } else {
                config.activation = mlp::ActivationKind::Step;
                config.slope = 8.0f; // surrogate-gradient slope.
                train.seed = seed + 999;
            }
            // The gradient scales with the slope; keep the effective
            // step size constant so steep sigmoids do not diverge.
            train.learningRate = base_lr / config.slope;
            const double acc = mlp::trainAndEvaluate(
                config, train, workload.data.train, workload.data.test,
                eval_seed);
            return SweepPoint{param, acc};
        });
}

std::vector<CodingSweepPoint>
sweepCodingSchemes(const Workload &workload,
                   const std::vector<snn::CodingScheme> &schemes,
                   const std::vector<std::size_t> &neuron_counts,
                   uint64_t seed)
{
    // Flatten the (scheme, neurons) grid so every cell is one pool
    // task; the row-major order of the old nested loops is preserved.
    struct Cell
    {
        snn::CodingScheme scheme;
        std::size_t neurons;
    };
    std::vector<Cell> cells;
    for (snn::CodingScheme scheme : schemes)
        for (std::size_t neurons : neuron_counts)
            cells.push_back({scheme, neurons});

    return parallelMap<CodingSweepPoint>(
        cells.size(), [&](std::size_t i) {
            const auto [scheme, neurons] = cells[i];
            snn::SnnConfig config =
                defaultSnnConfig(workload, workload.data.train.size());
            config.coding.scheme = scheme;
            config.numNeurons = neurons;
            // Temporal codes deliver at most one spike per pixel; scale
            // the firing threshold down accordingly so neurons still
            // reach it.
            if (scheme == snn::CodingScheme::TimeToFirstSpike ||
                scheme == snn::CodingScheme::RankOrder) {
                config.initialThreshold /= 6.0;
            }
            retuneSnnForTopology(config, workload.data.train.size());

            snn::SnnTrainConfig train;
            train.epochs = scaled(3, 1);
            train.seed = seed + neurons;
            const double acc = snn::trainAndEvaluateStdp(
                config, train, workload.data.train, workload.data.test,
                snn::EvalMode::Wt,
                seed * 47 + neurons + static_cast<uint64_t>(scheme));
            return CodingSweepPoint{scheme, neurons, acc};
        });
}

} // namespace core
} // namespace neuro
