/**
 * @file
 * SNN engine benchmark: wall time and throughput of the three SNN
 * pipeline phases (STDP training, self-labeling, evaluation) through
 * the event-driven presentation path, at 1 and 4 threads, on the
 * MNIST-like workload at paper parameters (Poisson coding, 500 ms
 * window, 300 neurons at full scale).
 *
 * Determinism cross-check: results must not depend on the thread
 * count, so every run's neuron labels and accuracy are compared against
 * the first run's (1 thread by default) and the bench aborts on any
 * mismatch — the rates can't come from divergent dynamics.
 *
 * The grid-cache effect is reported alongside: training runs 2 epochs
 * and prints the epoch-2 hit rate (expected ~100%: encodings are
 * frozen per sample, so epoch 2 re-presents without re-encoding);
 * labeling and evaluation are timed on a warm cache.
 *
 * Knobs: train=N test=N threads=a,b --quick (also NEURO_SCALE /
 * NEURO_THREADS). Writes bench_snn_engine.csv.
 */

#include <chrono>
#include <functional>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "neuro/common/config.h"
#include "neuro/common/csv.h"
#include "neuro/common/logging.h"
#include "neuro/common/parallel.h"
#include "neuro/common/rng.h"
#include "neuro/common/table.h"
#include "neuro/core/experiment.h"
#include "neuro/datasets/synth_digits.h"
#include "neuro/snn/trainer.h"

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

/** One run's full pipeline outcome (for the cross-check). */
struct PipelineResult
{
    std::vector<int> labels;
    double accuracy = 0.0;
    std::size_t silent = 0;
};

struct PhaseRow
{
    std::string phase;
    std::size_t threads = 0;
    std::size_t items = 0;
    double wall_s = 0.0;
    double cacheHitRate = 0.0; ///< of the timed pass.
};

} // namespace

int
main(int argc, char **argv)
{
    Config cfg;
    cfg.parseEnv();
    cfg.parseArgs(argc, argv);
    const bool quick = cfg.getBool("quick", false);
    const auto train_n = static_cast<std::size_t>(
        cfg.getInt("train", quick ? 96 : 400));
    const auto test_n = static_cast<std::size_t>(
        cfg.getInt("test", quick ? 48 : 200));

    std::vector<std::size_t> thread_counts = {1, 4};
    if (cfg.has("threads")) {
        thread_counts.clear();
        std::stringstream ss(cfg.getString("threads", ""));
        std::string tok;
        while (std::getline(ss, tok, ','))
            thread_counts.push_back(
                static_cast<std::size_t>(std::stoul(tok)));
    }

    // Build the workload directly (makeMnistWorkload floors the sizes
    // at 500/200, which would defeat --quick in the TSan CI job).
    core::Workload w;
    w.name = "mnist";
    w.data = datasets::mnistLike(train_n, test_n, 1);
    w.mlpTopo = {w.data.train.inputSize(), 100, 10};
    w.snnTopo = {w.data.train.inputSize(), 300};
    const snn::SnnConfig base =
        core::defaultSnnConfig(w, w.data.train.size());
    inform("snn engine bench: %zu train / %zu test images, %zu neurons, "
           "%d ms window, %s coding",
           w.data.train.size(), w.data.test.size(), base.numNeurons,
           base.coding.periodMs,
           snn::codingSchemeName(base.coding.scheme).c_str());

    std::vector<PhaseRow> rows;
    PipelineResult reference;
    bool have_reference = false;

    for (const std::size_t threads : thread_counts) {
        setParallelThreadCount(threads);
        Rng rng(9);
        snn::SnnNetwork net(base, rng);
        snn::SnnStdpTrainer trainer(base);
        snn::SnnTrainConfig tc;
        tc.epochs = 2;
        tc.seed = 11;

        // --- train: cold cache, 2 epochs; epoch-2 hit rate from the
        // stats delta at the epoch boundary.
        snn::GridCacheStats epoch1;
        const double train_s = secondsOf([&] {
            trainer.train(net, w.data.train, tc,
                          [&](const snn::SnnEpochReport &r) {
                              if (r.epoch == 0)
                                  epoch1 = trainer.gridCache().stats();
                          });
        });
        const snn::GridCacheStats after = trainer.gridCache().stats();
        const double e2_hits = static_cast<double>(after.hits - epoch1.hits);
        const double e2_total = e2_hits +
            static_cast<double>(after.misses - epoch1.misses);
        rows.push_back({"train_2ep", threads, 2 * w.data.train.size(),
                        train_s, e2_total > 0 ? e2_hits / e2_total : 0.0});

        // --- label: warm-up pass fills the cache for this seed, the
        // timed pass presents from it.
        trainer.labelNeurons(net, w.data.train, snn::EvalMode::Wt, 31);
        const auto before_label = trainer.gridCache().stats();
        std::vector<int> labels;
        const double label_s = secondsOf([&] {
            labels = trainer.labelNeurons(net, w.data.train,
                                          snn::EvalMode::Wt, 31);
        });
        const auto after_label = trainer.gridCache().stats();
        const double label_hits =
            static_cast<double>(after_label.hits - before_label.hits);
        const double label_total = label_hits +
            static_cast<double>(after_label.misses - before_label.misses);
        rows.push_back({"label", threads, w.data.train.size(), label_s,
                        label_total > 0 ? label_hits / label_total : 0.0});

        // --- evaluate: same warm-cache protocol.
        trainer.evaluate(net, labels, w.data.test, snn::EvalMode::Wt, 32);
        snn::SnnEvalResult eval;
        const double eval_s = secondsOf([&] {
            eval = trainer.evaluate(net, labels, w.data.test,
                                    snn::EvalMode::Wt, 32);
        });
        rows.push_back({"evaluate", threads, w.data.test.size(), eval_s,
                        1.0});

        // --- cross-check against the first run.
        if (!have_reference) {
            reference = {labels, eval.accuracy, eval.silent};
            have_reference = true;
        } else {
            if (labels != reference.labels)
                fatal("%zu threads diverged on labels", threads);
            if (eval.accuracy != reference.accuracy ||
                eval.silent != reference.silent) {
                fatal("%zu threads diverged: accuracy %f vs %f", threads,
                      eval.accuracy, reference.accuracy);
            }
        }
    }
    setParallelThreadCount(1);

    TextTable table("SNN engine (identical results across threads "
                    "enforced)");
    table.setHeader({"Phase", "Threads", "Wall (s)", "Items/s",
                     "Cache hit"});
    CsvWriter csv("bench_snn_engine.csv",
                  {"phase", "threads", "wall_s", "items_per_s",
                   "cache_hit_rate"});
    for (const PhaseRow &r : rows) {
        table.addRow({r.phase,
                      TextTable::num(static_cast<long long>(r.threads)),
                      TextTable::fmt(r.wall_s, 3),
                      TextTable::fmt(
                          static_cast<double>(r.items) / r.wall_s, 1),
                      TextTable::fmt(r.cacheHitRate, 2)});
        csv.writeRow(std::vector<std::string>{
            r.phase, std::to_string(r.threads),
            TextTable::fmt(r.wall_s, 4),
            TextTable::fmt(static_cast<double>(r.items) / r.wall_s, 1),
            TextTable::fmt(r.cacheHitRate, 2)});
    }
    table.addNote("train runs 2 epochs on a cold cache; its hit rate "
                  "is the epoch-2 rate. label/evaluate are timed warm.");
    table.print(std::cout);
    std::cout << "RESULT: labels and accuracy matched bit-for-bit "
                 "across all thread counts\n";
    return 0;
}
