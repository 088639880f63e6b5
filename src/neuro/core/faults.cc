#include "neuro/core/faults.h"

#include "neuro/common/logging.h"
#include "neuro/common/rng.h"
#include "neuro/snn/trainer.h"

namespace neuro {
namespace core {

const char *
faultModelName(FaultModel model)
{
    switch (model) {
      case FaultModel::StuckAtZero:
        return "stuck-at-0";
      case FaultModel::StuckAtOne:
        return "stuck-at-1";
      case FaultModel::BitFlip:
        return "bit-flip";
    }
    panic("unreachable fault model");
}

namespace {

/** Apply @p model to an 8-bit word. */
uint8_t
faultWord(uint8_t word, FaultModel model, Rng &rng)
{
    switch (model) {
      case FaultModel::StuckAtZero:
        return 0;
      case FaultModel::StuckAtOne:
        return 0xFF;
      case FaultModel::BitFlip:
        return word ^ static_cast<uint8_t>(1u << rng.uniformInt(8));
    }
    panic("unreachable fault model");
}

} // namespace

std::vector<FaultSweepPoint>
mlpFaultSweep(const mlp::Mlp &net, const datasets::Dataset &data,
              const std::vector<double> &rates, FaultModel model,
              uint64_t seed)
{
    std::vector<FaultSweepPoint> points;
    for (double rate : rates) {
        NEURO_ASSERT(rate >= 0.0 && rate <= 1.0, "bad fault rate");
        mlp::QuantizedMlp quant(net);
        Rng rng(seed + static_cast<uint64_t>(rate * 1e6));
        const std::size_t faults = static_cast<std::size_t>(
            rate * static_cast<double>(quant.totalWeights()));
        for (std::size_t f = 0; f < faults; ++f) {
            const std::size_t idx = rng.uniformInt(quant.totalWeights());
            const auto word =
                static_cast<uint8_t>(quant.weightAt(idx));
            quant.setWeightAt(idx, static_cast<int8_t>(
                                       faultWord(word, model, rng)));
        }
        points.push_back({rate, quant.evaluate(data)});
    }
    return points;
}

std::vector<FaultSweepPoint>
snnFaultSweep(const snn::SnnNetwork &net, const std::vector<int> &labels,
              const datasets::Dataset &data,
              const std::vector<double> &rates, FaultModel model,
              uint64_t seed)
{
    std::vector<FaultSweepPoint> points;
    for (double rate : rates) {
        NEURO_ASSERT(rate >= 0.0 && rate <= 1.0, "bad fault rate");
        snn::SnnWotDatapath datapath(net);
        Rng rng(seed + static_cast<uint64_t>(rate * 1e6) + 17);
        const std::size_t faults = static_cast<std::size_t>(
            rate * static_cast<double>(datapath.totalWeights()));
        for (std::size_t f = 0; f < faults; ++f) {
            const std::size_t idx =
                rng.uniformInt(datapath.totalWeights());
            datapath.setWeightAt(
                idx, faultWord(datapath.weightAt(idx), model, rng));
        }
        points.push_back(
            {rate, snn::evaluateWot(datapath, labels, data).accuracy});
    }
    return points;
}

} // namespace core
} // namespace neuro
