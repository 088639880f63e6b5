/**
 * @file
 * Operator-level microbenchmarks (google-benchmark): the kernels the
 * simulators spend their time in, plus the event-driven-vs-discrete
 * LIF ablation the paper's closed-form leak optimization rests on.
 */

#include <benchmark/benchmark.h>

#include <vector>

#include "neuro/common/rng.h"
#include "neuro/datasets/synth_digits.h"
#include "neuro/mlp/activation.h"
#include "neuro/mlp/mlp.h"
#include "neuro/snn/coding.h"
#include "neuro/snn/lif.h"
#include "neuro/snn/snn_wot.h"

namespace {

using namespace neuro;

void
BM_LifClosedFormLeak(benchmark::State &state)
{
    double v = 10000.0;
    for (auto _ : state) {
        v = snn::lifDecay(v + 1000.0, 50.0, 500.0);
        benchmark::DoNotOptimize(v);
    }
}
BENCHMARK(BM_LifClosedFormLeak);

void
BM_LifDiscreteLeak(benchmark::State &state)
{
    // The per-timestep integration the paper's closed form replaces:
    // 50 Euler steps for the same 50 ms interval.
    double v = 10000.0;
    for (auto _ : state) {
        v = snn::lifDecayDiscrete(v + 1000.0, 50.0, 500.0,
                                  static_cast<int>(state.range(0)));
        benchmark::DoNotOptimize(v);
    }
}
BENCHMARK(BM_LifDiscreteLeak)->Arg(50);

void
BM_SpikeEncoding(benchmark::State &state)
{
    const auto scheme = static_cast<snn::CodingScheme>(state.range(0));
    snn::CodingConfig config;
    config.scheme = scheme;
    const snn::SpikeEncoder encoder(config);
    datasets::SynthDigitsOptions opt;
    opt.trainSize = 1;
    opt.testSize = 1;
    const auto split = datasets::makeSynthDigits(opt);
    Rng rng(1);
    snn::PackedSpikeGrid grid;
    for (auto _ : state) {
        encoder.encodePacked(split.train[0].pixels.data(),
                             split.train[0].pixels.size(), rng, grid);
        benchmark::DoNotOptimize(grid.activeTicks().data());
    }
}
BENCHMARK(BM_SpikeEncoding)
    ->Arg(static_cast<int>(snn::CodingScheme::RatePoisson))
    ->Arg(static_cast<int>(snn::CodingScheme::RateGaussian))
    ->Arg(static_cast<int>(snn::CodingScheme::RankOrder));

void
BM_MlpForward(benchmark::State &state)
{
    mlp::MlpConfig config;
    config.layerSizes = {784, static_cast<std::size_t>(state.range(0)),
                         10};
    Rng rng(1);
    const mlp::Mlp net(config, rng);
    std::vector<float> input(784, 0.5f);
    std::vector<float> output(10);
    for (auto _ : state) {
        net.forward(input.data(), output.data());
        benchmark::DoNotOptimize(output.data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(net.weightCount()));
}
BENCHMARK(BM_MlpForward)->Arg(15)->Arg(100);

void
BM_ShiftMultiply(benchmark::State &state)
{
    uint32_t acc = 0;
    uint8_t c = 0, w = 0;
    for (auto _ : state) {
        acc += snn::SnnWotDatapath::shiftMultiply(c & 0xF, w);
        ++c;
        w += 7;
        benchmark::DoNotOptimize(acc);
    }
}
BENCHMARK(BM_ShiftMultiply);

void
BM_PiecewiseSigmoid(benchmark::State &state)
{
    const mlp::PiecewiseSigmoid pli(1.0f);
    float x = -8.0f;
    for (auto _ : state) {
        benchmark::DoNotOptimize(pli.apply(x));
        x += 0.001f;
        if (x > 8.0f)
            x = -8.0f;
    }
}
BENCHMARK(BM_PiecewiseSigmoid);

} // namespace
