// Tests for the work-chunking thread pool: exact-once coverage under
// adversarial grain sizes, exception propagation, nesting, and the
// bit-identical-at-any-thread-count contract of the parallel
// evaluation/labeling paths built on it.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "neuro/common/parallel.h"
#include "neuro/common/rng.h"
#include "neuro/core/experiment.h"
#include "neuro/core/explorer.h"
#include "neuro/datasets/synth_digits.h"
#include "neuro/mlp/backprop.h"
#include "neuro/mlp/mlp.h"
#include "neuro/snn/trainer.h"

namespace neuro {
namespace {

/** Restores the ambient thread count when a test body returns. */
class ThreadCountGuard
{
  public:
    explicit ThreadCountGuard(std::size_t n)
        : saved_(parallelThreadCount())
    {
        setParallelThreadCount(n);
    }
    ~ThreadCountGuard() { setParallelThreadCount(saved_); }

  private:
    std::size_t saved_;
};

TEST(ThreadPool, ResolvesAtLeastOneThread)
{
    EXPECT_GE(parallelThreadCount(), 1u);
}

TEST(ThreadPool, SetThreadCountRestartsWorkers)
{
    ThreadCountGuard guard(3);
    EXPECT_EQ(parallelThreadCount(), 3u);
    setParallelThreadCount(1);
    EXPECT_EQ(parallelThreadCount(), 1u);
    setParallelThreadCount(2);
    EXPECT_EQ(parallelThreadCount(), 2u);
    // The pool must still execute work after every reconfiguration.
    std::atomic<std::size_t> sum{0};
    parallelFor(std::size_t{0}, std::size_t{100},
                [&](std::size_t i) { sum += i; });
    EXPECT_EQ(sum.load(), 4950u);
}

TEST(ThreadPool, CoversRangeExactlyOnceUnderAdversarialGrains)
{
    for (std::size_t threads : {std::size_t{1}, std::size_t{2},
                                std::size_t{5}}) {
        ThreadCountGuard guard(threads);
        const std::size_t begin = 13, end = 13 + 997;
        for (std::size_t grain : {std::size_t{1}, std::size_t{3},
                                  std::size_t{7}, std::size_t{997},
                                  std::size_t{9970}}) {
            std::vector<std::atomic<int>> hits(end);
            for (auto &h : hits)
                h.store(0);
            parallelForRange(begin, end, grain,
                             [&](std::size_t i0, std::size_t i1) {
                                 ASSERT_LE(i0, i1);
                                 ASSERT_LE(i1, end);
                                 for (std::size_t i = i0; i < i1; ++i)
                                     ++hits[i];
                             });
            for (std::size_t i = 0; i < begin; ++i)
                EXPECT_EQ(hits[i].load(), 0) << "threads=" << threads;
            for (std::size_t i = begin; i < end; ++i) {
                EXPECT_EQ(hits[i].load(), 1)
                    << "i=" << i << " grain=" << grain
                    << " threads=" << threads;
            }
        }
    }
}

TEST(ThreadPool, EmptyAndSingletonRanges)
{
    ThreadCountGuard guard(4);
    int calls = 0;
    parallelForRange(5, 5, 1, [&](std::size_t, std::size_t) { ++calls; });
    EXPECT_EQ(calls, 0);
    parallelForRange(5, 4, 1, [&](std::size_t, std::size_t) { ++calls; });
    EXPECT_EQ(calls, 0);
    // A one-element range runs inline on the caller.
    std::size_t seen_begin = 99, seen_end = 0;
    parallelForRange(7, 8, 1, [&](std::size_t i0, std::size_t i1) {
        seen_begin = i0;
        seen_end = i1;
    });
    EXPECT_EQ(seen_begin, 7u);
    EXPECT_EQ(seen_end, 8u);
}

TEST(ThreadPool, PropagatesExceptionsAndStaysUsable)
{
    ThreadCountGuard guard(4);
    EXPECT_THROW(
        parallelFor(std::size_t{0}, std::size_t{64}, std::size_t{1},
                    [](std::size_t i) {
                        if (i == 17)
                            throw std::runtime_error("boom");
                    }),
        std::runtime_error);
    // The pool survives a failed job and runs the next one normally.
    std::atomic<std::size_t> count{0};
    parallelFor(std::size_t{0}, std::size_t{64},
                [&](std::size_t) { ++count; });
    EXPECT_EQ(count.load(), 64u);
}

TEST(ThreadPool, NestedParallelismRunsInline)
{
    ThreadCountGuard guard(4);
    std::atomic<std::size_t> inner_total{0};
    parallelFor(std::size_t{0}, std::size_t{8}, std::size_t{1},
                [&](std::size_t) {
                    EXPECT_TRUE(ThreadPool::inParallelRegion());
                    // The nested call must complete serially (no
                    // deadlock) and still cover its range.
                    std::size_t local = 0;
                    parallelFor(std::size_t{0}, std::size_t{10},
                                [&](std::size_t i) { local += i; });
                    inner_total += local;
                });
    EXPECT_FALSE(ThreadPool::inParallelRegion());
    EXPECT_EQ(inner_total.load(), 8u * 45u);
}

TEST(ThreadPool, ParallelMapPreservesIndexOrder)
{
    ThreadCountGuard guard(4);
    const auto squares = parallelMap<std::size_t>(
        257, [](std::size_t i) { return i * i; });
    ASSERT_EQ(squares.size(), 257u);
    for (std::size_t i = 0; i < squares.size(); ++i)
        EXPECT_EQ(squares[i], i * i);
}

TEST(ThreadPool, ParallelInvokeRunsEveryTask)
{
    ThreadCountGuard guard(3);
    std::vector<int> done(5, 0);
    std::vector<std::function<void()>> tasks;
    for (std::size_t t = 0; t < done.size(); ++t)
        tasks.push_back([&done, t] { done[t] = 1; });
    parallelInvoke(std::move(tasks));
    for (int d : done)
        EXPECT_EQ(d, 1);
}

TEST(ThreadPool, CallerRunsTheFirstChunk)
{
    // The trainer's epoch-1 loop relies on this: task 0 runs on the
    // caller, so its allocations stay in the caller's malloc arena.
    ThreadCountGuard guard(4);
    const std::thread::id caller = std::this_thread::get_id();
    for (int round = 0; round < 200; ++round) {
        std::thread::id first;
        std::vector<std::function<void()>> tasks;
        tasks.push_back([&] { first = std::this_thread::get_id(); });
        for (int t = 0; t < 3; ++t)
            tasks.push_back([] {});
        parallelInvoke(std::move(tasks));
        ASSERT_EQ(first, caller) << "round " << round;

        std::thread::id firstChunk;
        parallelForRange(0, 64, 4, [&](std::size_t i0, std::size_t) {
            if (i0 == 0)
                firstChunk = std::this_thread::get_id();
        });
        ASSERT_EQ(firstChunk, caller) << "round " << round;
    }
}

TEST(Rng, DeriveStreamSeedSeparatesStreams)
{
    // Adjacent sample indices must yield well-separated streams, and
    // the derivation must not depend on call order.
    const uint64_t a = deriveStreamSeed(42, 0);
    const uint64_t b = deriveStreamSeed(42, 1);
    const uint64_t c = deriveStreamSeed(43, 0);
    EXPECT_NE(a, b);
    EXPECT_NE(a, c);
    EXPECT_EQ(a, deriveStreamSeed(42, 0));
    Rng ra(a), rb(b);
    int agree = 0;
    for (int i = 0; i < 64; ++i)
        agree += ra.uniform() == rb.uniform();
    EXPECT_LT(agree, 4);
}

/** One fixture-scale workload shared by the determinism tests. */
const core::Workload &
smallWorkload()
{
    static const core::Workload w = core::makeMnistWorkload(120, 60, 5);
    return w;
}

TEST(Determinism, MlpEvaluateIsThreadCountInvariant)
{
    const core::Workload &w = smallWorkload();
    mlp::MlpConfig config = core::defaultMlpConfig(w);
    config.layerSizes[1] = 12;
    Rng rng(3);
    mlp::Mlp net(config, rng);
    mlp::TrainConfig train;
    train.epochs = 1;
    mlp::train(net, w.data.train, train);

    std::vector<double> accs;
    for (std::size_t threads : {std::size_t{1}, std::size_t{2},
                                std::size_t{8}}) {
        ThreadCountGuard guard(threads);
        accs.push_back(mlp::evaluate(net, w.data.test));
    }
    EXPECT_EQ(accs[0], accs[1]);
    EXPECT_EQ(accs[0], accs[2]);
}

TEST(Determinism, SnnLabelAndEvaluateAreThreadCountInvariant)
{
    const core::Workload &w = smallWorkload();
    snn::SnnConfig config =
        core::defaultSnnConfig(w, w.data.train.size());
    config.numNeurons = 20;
    core::retuneSnnForTopology(config, w.data.train.size());
    Rng rng(5);
    snn::SnnNetwork net(config, rng);
    snn::SnnStdpTrainer trainer(config);
    snn::SnnTrainConfig train;
    train.epochs = 1;
    trainer.train(net, w.data.train, train);

    for (snn::EvalMode mode : {snn::EvalMode::Wt, snn::EvalMode::Wot}) {
        std::vector<std::vector<int>> labels;
        std::vector<double> accs;
        std::vector<std::size_t> silents;
        for (std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
            ThreadCountGuard guard(threads);
            labels.push_back(
                trainer.labelNeurons(net, w.data.train, mode, 31));
            const auto result = trainer.evaluate(
                net, labels.back(), w.data.test, mode, 32);
            accs.push_back(result.accuracy);
            silents.push_back(result.silent);
        }
        EXPECT_EQ(labels[0], labels[1]);
        EXPECT_EQ(labels[0], labels[2]);
        EXPECT_EQ(accs[0], accs[1]);
        EXPECT_EQ(accs[0], accs[2]);
        EXPECT_EQ(silents[0], silents[1]);
        EXPECT_EQ(silents[0], silents[2]);
    }
}

TEST(Determinism, SnnEvaluateMatchesHandRolledSerialReference)
{
    // Independent re-derivation of the sharded Wt path: per-sample Rng
    // from (seed, i), fresh presentation per image, first-spike
    // readout. Must agree with trainer.evaluate at any thread count.
    const core::Workload &w = smallWorkload();
    snn::SnnConfig config =
        core::defaultSnnConfig(w, w.data.train.size());
    config.numNeurons = 15;
    core::retuneSnnForTopology(config, w.data.train.size());
    Rng rng(6);
    snn::SnnNetwork net(config, rng);
    snn::SnnStdpTrainer trainer(config);
    snn::SnnTrainConfig train;
    train.epochs = 1;
    trainer.train(net, w.data.train, train);
    const auto labels =
        trainer.labelNeurons(net, w.data.train, snn::EvalMode::Wt, 31);

    const uint64_t eval_seed = 32;
    std::size_t ref_correct = 0;
    {
        snn::SnnNetwork copy(net);
        snn::PackedSpikeGrid grid;
        for (std::size_t i = 0; i < w.data.test.size(); ++i) {
            Rng sample_rng(deriveStreamSeed(eval_seed, i));
            trainer.encoder().encodePacked(w.data.test[i].pixels.data(),
                                           w.data.test[i].pixels.size(),
                                           sample_rng, grid);
            const auto r = copy.presentImage(grid, /*learn=*/false);
            const int winner = r.winner();
            if (winner >= 0 &&
                labels[static_cast<std::size_t>(winner)] ==
                    w.data.test[i].label)
                ++ref_correct;
        }
    }
    const double ref_acc = static_cast<double>(ref_correct) /
        static_cast<double>(w.data.test.size());

    for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        ThreadCountGuard guard(threads);
        const auto result = trainer.evaluate(
            net, labels, w.data.test, snn::EvalMode::Wt, eval_seed);
        EXPECT_EQ(result.accuracy, ref_acc) << "threads=" << threads;
    }
}

TEST(Determinism, SweepsAreThreadCountInvariant)
{
    const core::Workload &w = smallWorkload();
    std::vector<std::vector<core::SweepPoint>> runs;
    for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        ThreadCountGuard guard(threads);
        runs.push_back(core::sweepMlpHidden(w, {5, 10, 15}, 21));
    }
    ASSERT_EQ(runs[0].size(), runs[1].size());
    for (std::size_t i = 0; i < runs[0].size(); ++i) {
        EXPECT_EQ(runs[0][i].parameter, runs[1][i].parameter);
        EXPECT_EQ(runs[0][i].accuracy, runs[1][i].accuracy);
    }
}

} // namespace
} // namespace neuro
