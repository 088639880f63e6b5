/**
 * @file
 * Microbenchmark of the unified SIMD kernel layer (docs/kernels.md):
 * every kernel runs at every reachable ISA level (scalar, then AVX2 /
 * AVX512 when the CPU and toolchain provide them) over the shapes the
 * repo actually uses — the MNIST MLP layers for the float kernels, the
 * quantized MLP for q8, the paper SNN's 300-neuron layer for the
 * event engine's drive and LIF step, 1024 random words for popcount
 * (which has no caller in src/ and is kept for the repository
 * benchmark's metric) — and reports wall time, element throughput
 * and speedup vs the scalar table as CSV (bench_kernels.csv).
 *
 * Bit-identity cross-check: each vector run's output is compared
 * against the scalar run's word for word and the bench aborts on any
 * mismatch, so a speedup can never come from divergent arithmetic.
 *
 * Timing: each case runs six rounds that time every ISA in turn (the
 * first ISA rotating per round), and each ISA reports its fastest
 * round (wall_s is that round's time for `reps` calls).
 *
 * Every row records the CMake build type it was compiled under: the
 * default RelWithDebInfo build compiles at -O2 and Release at -O3,
 * and GCC vectorizes the two differently. The checked-in
 * bench_kernels.csv holds one run of each, concatenated, so a kernel
 * that lags only at -O2 shows in the file.
 *
 * Knobs: reps=N (per-kernel timing loop), quick=1 (or --quick, the CI
 * smoke setting: minimal reps and one round, same checks),
 * simd=off|avx2|avx512 restricts the ISA sweep (also NEURO_SIMD).
 */

#include <algorithm>
#include <chrono>
#include <cstring>
#include <functional>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "neuro/common/config.h"
#include "neuro/common/csv.h"
#include "neuro/common/logging.h"
#include "neuro/common/rng.h"
#include "neuro/common/table.h"
#include "neuro/kernels/kernels.h"

#ifndef BENCH_KERNELS_BUILD_TYPE
#define BENCH_KERNELS_BUILD_TYPE "unknown"
#endif

namespace {

using namespace neuro;

double
secondsOf(const std::function<void()> &fn)
{
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(t1 - t0).count();
}

std::vector<float>
randomVec(Rng &rng, std::size_t n)
{
    std::vector<float> v(n);
    for (auto &e : v)
        e = static_cast<float>(rng.uniform(-1.0, 1.0));
    return v;
}

/** One kernel x shape entry of the sweep. */
struct Case
{
    std::string kernel; ///< CSV row label.
    std::string shape;  ///< human-readable shape tag.
    std::size_t elems;  ///< elements touched per run (throughput unit).
    /** Runs the kernel once into the case's output buffer. */
    std::function<void()> run;
    /** @return the output buffer for the bit-identity check. */
    std::function<std::vector<unsigned char>()> snapshot;
    /** Restores in-place state before each ISA's runs (optional). */
    std::function<void()> reset = {};
};

} // namespace

int
main(int argc, char **argv)
{
    Config cfg;
    cfg.parseEnv();
    cfg.parseArgs(argc, argv);
    kernels::initKernels(cfg);
    const bool quick = cfg.getBool("quick", false);
    const auto reps = static_cast<std::size_t>(
        cfg.getInt("reps", quick ? 3 : 200));

    // ISA sweep: scalar always, then each wider table the machine can
    // actually select (forcing falls back when unsupported, so probe).
    std::vector<std::pair<std::string, kernels::SimdMode>> isas;
    isas.emplace_back("scalar", kernels::SimdMode::Off);
    if (kernels::setSimdMode(kernels::SimdMode::Avx2) ==
        kernels::SimdIsa::Avx2)
        isas.emplace_back("avx2", kernels::SimdMode::Avx2);
    if (kernels::setSimdMode(kernels::SimdMode::Avx512) ==
        kernels::SimdIsa::Avx512)
        isas.emplace_back("avx512", kernels::SimdMode::Avx512);
    kernels::setSimdMode(kernels::SimdMode::Auto);
    const std::string build_type = BENCH_KERNELS_BUILD_TYPE;
    inform("kernel bench: %zu reps per case, widest ISA %s, %s build",
           reps, kernels::isaName(kernels::activeIsa()),
           build_type.c_str());

    // --- cases: the repo's hot shapes ------------------------------
    // MNIST MLP hidden layer (100 x 784+1), output layer (10 x 100+1),
    // the served 784-2048-10 model's hidden layer (single-sample
    // kernels only), the event engine's drive row and LIF step (the
    // paper SNN's 300 neurons), and popcount over random words.
    Rng rng(42);
    constexpr std::size_t kStrip = kernels::kStripWidth;

    struct Shape
    {
        std::size_t rows, cols;
        bool singleSampleOnly; ///< gemv/gemvBias, no strip/outer/q8.
    };
    const Shape shapes[] = {
        {100, 785, false}, {10, 101, false}, {2048, 785, true}};

    std::vector<Case> cases;
    for (const Shape &s : shapes) {
        const std::string tag =
            std::to_string(s.rows) + "x" + std::to_string(s.cols);
        const auto w = std::make_shared<std::vector<float>>(
            randomVec(rng, s.rows * s.cols));
        const auto x = std::make_shared<std::vector<float>>(
            randomVec(rng, s.cols - 1));
        const auto xr = std::make_shared<std::vector<float>>(
            randomVec(rng, s.rows));
        const auto strip = std::make_shared<std::vector<float>>(
            randomVec(rng, (s.cols - 1) * kStrip));
        const auto y = std::make_shared<std::vector<float>>(s.rows);
        const auto yt = std::make_shared<std::vector<float>>(s.cols);
        const auto ys = std::make_shared<std::vector<float>>(
            s.rows * kStrip);

        auto bytesOf = [](const std::vector<float> &v) {
            std::vector<unsigned char> b(v.size() * sizeof(float));
            std::memcpy(b.data(), v.data(), b.size());
            return b;
        };

        cases.push_back({"gemvBias", tag, s.rows * s.cols,
                         [=] {
                             kernels::gemvBias(w->data(), s.rows,
                                               s.cols, x->data(),
                                               y->data());
                         },
                         [=] { return bytesOf(*y); }});
        // gemv reads all cols of x; the bias column is just one more
        // input here.
        const auto xg = std::make_shared<std::vector<float>>(*x);
        xg->push_back(1.0f);
        cases.push_back({"gemv", tag, s.rows * s.cols,
                         [=] {
                             kernels::gemv(w->data(), s.rows, s.cols,
                                           xg->data(), y->data());
                         },
                         [=] { return bytesOf(*y); }});
        if (s.singleSampleOnly)
            continue;
        cases.push_back({"gemvT", tag, s.rows * s.cols,
                         [=] {
                             kernels::gemvT(w->data(), s.rows, s.cols,
                                            xr->data(), yt->data());
                         },
                         [=] { return bytesOf(*yt); }});
        cases.push_back({"gemvBiasStrip", tag,
                         s.rows * s.cols * kStrip,
                         [=] {
                             kernels::gemvBiasStrip(
                                 w->data(), s.rows, s.cols,
                                 strip->data(), ys->data());
                         },
                         [=] { return bytesOf(*ys); }});

        // Outer-product update, one sample per call as training runs
        // it. The weights restart from the same state before every
        // ISA's timed loop, so each ISA's output is the same sequence
        // of updates.
        const auto wmut = std::make_shared<std::vector<float>>(*w);
        const auto d = std::make_shared<std::vector<float>>(
            randomVec(rng, s.rows));
        cases.push_back({"addOuterBias", tag, s.rows * s.cols,
                         [=] {
                             kernels::addOuterBias(
                                 wmut->data(), s.rows, s.cols, 0.05f,
                                 d->data(), x->data());
                         },
                         [=] { return bytesOf(*wmut); },
                         [=] { *wmut = *w; }});

        // q8: same shape as the float layer, int8 weights.
        const auto wq = std::make_shared<std::vector<int8_t>>(
            s.rows * s.cols);
        const auto xq = std::make_shared<std::vector<uint8_t>>(
            s.cols - 1);
        for (auto &v : *wq)
            v = static_cast<int8_t>(rng.uniform(-128.0, 128.0));
        for (auto &v : *xq)
            v = static_cast<uint8_t>(rng.uniform(0.0, 256.0));
        const auto yq = std::make_shared<std::vector<int32_t>>(s.rows);
        cases.push_back(
            {"gemvBiasQ8", tag, s.rows * s.cols,
             [=] {
                 kernels::gemvBiasQ8(wq->data(), s.rows, s.cols,
                                     xq->data(), yq->data());
             },
             [=] {
                 std::vector<unsigned char> b(yq->size() *
                                              sizeof(int32_t));
                 std::memcpy(b.data(), yq->data(), b.size());
                 return b;
             }});
    }

    // Event-engine drive row and LIF step, and popcount (no src/
    // caller; kept for the repository benchmark's metric).
    {
        const std::size_t neurons = 300;
        const auto row = std::make_shared<std::vector<float>>(
            randomVec(rng, neurons));
        const auto acc = std::make_shared<std::vector<double>>(neurons);
        cases.push_back(
            {"addRowF64", "300", neurons,
             [=] {
                 std::fill(acc->begin(), acc->end(), 0.0);
                 for (int s = 0; s < 64; ++s)
                     kernels::addRowF64(acc->data(), row->data(),
                                        neurons);
             },
             [=] {
                 std::vector<unsigned char> b(acc->size() *
                                              sizeof(double));
                 std::memcpy(b.data(), acc->data(), b.size());
                 return b;
             }});

        // Uniform-tick LIF step over the same layer, 64 ticks per run
        // as in a stretch of open ticks. The potentials restart before
        // each ISA's loop; the crossing flags are part of the output.
        const auto drive = std::make_shared<std::vector<double>>(neurons);
        const auto thr = std::make_shared<std::vector<double>>(neurons);
        for (std::size_t i = 0; i < neurons; ++i) {
            (*drive)[i] = 40.0 * (1.0 + (*row)[i]);
            (*thr)[i] = rng.uniform(1000.0, 8000.0);
        }
        const auto pot = std::make_shared<std::vector<double>>(neurons);
        const auto crossings = std::make_shared<std::size_t>(0);
        cases.push_back(
            {"lifStep", "300", neurons,
             [=] {
                 for (int s = 0; s < 64; ++s) {
                     *crossings += kernels::lifStep(
                         pot->data(), drive->data(), thr->data(),
                         0.998, neurons);
                 }
             },
             [=] {
                 std::vector<unsigned char> b(
                     pot->size() * sizeof(double) + sizeof(std::size_t));
                 std::memcpy(b.data(), pot->data(),
                             pot->size() * sizeof(double));
                 std::memcpy(b.data() + pot->size() * sizeof(double),
                             crossings.get(), sizeof(std::size_t));
                 return b;
             },
             [=] {
                 std::fill(pot->begin(), pot->end(), 0.0);
                 *crossings = 0;
             }});

        const std::size_t words = 1024;
        const auto bits = std::make_shared<std::vector<uint64_t>>(words);
        for (auto &v : *bits) {
            v = (rng.uniformInt(uint64_t{1} << 32) << 32) |
                rng.uniformInt(uint64_t{1} << 32);
        }
        const auto count = std::make_shared<std::size_t>(0);
        cases.push_back(
            {"popcountWords", "1024w", words,
             [=] {
                 *count = kernels::popcountWords(bits->data(), words);
             },
             [=] {
                 std::vector<unsigned char> b(sizeof(std::size_t));
                 std::memcpy(b.data(), count.get(), b.size());
                 return b;
             }});
    }

    // --- measurement ----------------------------------------------
    TextTable table("SIMD kernel throughput (scalar baseline per case)");
    table.setHeader({"Kernel", "Shape", "ISA", "Wall (s)", "Melem/s",
                     "Speedup"});
    CsvWriter csv("bench_kernels.csv",
                  {"kernel", "shape", "isa", "build_type", "reps",
                   "wall_s", "melems_per_s", "speedup"});

    // Each case runs `trials` rounds; a round times every ISA once and
    // each ISA keeps its fastest round. Interleaving the ISAs, rotating
    // which one goes first, and taking the minimum keeps a burst of
    // load from another process from landing on one ISA's only sample.
    const std::size_t trials = quick ? 1 : 6;
    for (const Case &c : cases) {
        std::vector<double> best(isas.size(),
                                 std::numeric_limits<double>::max());
        std::vector<std::vector<unsigned char>> outs(isas.size());
        for (std::size_t t = 0; t < trials; ++t) {
            for (std::size_t k = 0; k < isas.size(); ++k) {
                const std::size_t i = (t + k) % isas.size();
                kernels::setSimdMode(isas[i].second);
                if (c.reset)
                    c.reset();
                c.run(); // warm-up (page faults, table select).
                best[i] = std::min(best[i], secondsOf([&] {
                    for (std::size_t r = 0; r < reps; ++r)
                        c.run();
                }));
                outs[i] = c.snapshot();
            }
        }
        for (std::size_t i = 1; i < isas.size(); ++i) {
            if (outs[i] != outs[0]) {
                fatal("%s %s: %s output differs from scalar",
                      c.kernel.c_str(), c.shape.c_str(),
                      isas[i].first.c_str());
            }
        }
        const double total = static_cast<double>(c.elems * reps);
        for (std::size_t i = 0; i < isas.size(); ++i) {
            const double s = best[i];
            const double speedup = best[0] / s;
            table.addRow({c.kernel, c.shape, isas[i].first,
                          TextTable::fmt(s, 4),
                          TextTable::fmt(total / s / 1e6, 1),
                          TextTable::fmt(speedup, 2)});
            csv.writeRow(std::vector<std::string>{
                c.kernel, c.shape, isas[i].first, build_type,
                std::to_string(reps),
                TextTable::fmt(s, 7),
                TextTable::fmt(total / s / 1e6, 1),
                TextTable::fmt(speedup, 2)});
        }
    }
    kernels::setSimdMode(kernels::SimdMode::Auto);
    table.addNote("per-ISA speedups are per-machine; every vector "
                  "output was compared word-for-word against scalar");
    table.print(std::cout);
    std::cout << "RESULT: all ISA levels matched the scalar table "
                 "bit-for-bit\n";
    return 0;
}
