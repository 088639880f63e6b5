/**
 * @file
 * Repository benchmark driver: runs one named workload with a seed for
 * a time budget and prints its metrics as one JSON line (the last line
 * of stdout). perfbench/run.py builds this binary and runs it; see
 * perfbench/README.md for the workloads, the metrics and which layer
 * metric should move which end-to-end metric.
 *
 *   perfbench_driver --workload snn_stdp|mlp_bp|wire_mlp --seed N
 *                    --seconds S --trace 0|1 [--commit ID]
 *                    [--trace-out PATH]
 *
 * Every layer is measured from outside, by timing calls into its
 * public functions. A workload repeats a short unit of work (a
 * pipeline repetition, or a wire round of three load phases) until the
 * budget is spent, and reports each metric as the median over the
 * repetitions: the host's slow spells then move few of them. Set-ups
 * are spread over the run for the same reason.
 *
 * An untraced run reports the end-to-end metrics. A traced run repeats
 * the workload with spans recorded around each call (half the budget
 * each, so the two can be compared), runs the other two workloads once
 * so every layer reports, runs the per-kernel probes, and reports the
 * per-layer metrics.
 */

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "benchlib.h"
#include "neuro/common/parallel.h"
#include "neuro/common/rng.h"
#include "neuro/core/experiment.h"
#include "neuro/datasets/synth_digits.h"
#include "neuro/kernels/kernels.h"
#include "neuro/mlp/backprop.h"
#include "neuro/mlp/mlp.h"
#include "neuro/mlp/quantized.h"
#include "neuro/net/client.h"
#include "neuro/net/frontend.h"
#include "neuro/net/server.h"
#include "neuro/serve/backend.h"
#include "neuro/serve/registry.h"
#include "neuro/serve/server.h"
#include "neuro/snn/serialize.h"
#include "neuro/snn/trainer.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace neuro;
using perfbench::Tracer;
using Clock = std::chrono::steady_clock;

const Clock::time_point kEpoch = Clock::now();

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - kEpoch)
        .count();
}

double
secondsBetween(int64_t a, int64_t b)
{
    return static_cast<double>(b - a) / 1e9;
}

double
usBetween(int64_t a, int64_t b)
{
    return static_cast<double>(b - a) / 1e3;
}

/** Set-ups per run, spread over the budget; setup_s is their median. */
constexpr int kSetupReps = 5;

/**
 * End-to-end rates report this percentile over the repetitions: the
 * fastest tenth. On a shared host other tenants' load only ever slows
 * a repetition, and which CPUs it slows changes within a run, so the
 * median lands wherever the slowed share happens to put it.
 */
constexpr int kRatePermille = 900;

/** One value per repetition; the run reports the median, or for a
 *  rate the kRatePermille percentile. */
struct Series
{
    std::vector<double> values;
    std::string unit;
    int permille = 500;
};
using SeriesMap = std::map<std::string, Series>;

struct Metric
{
    double value = 0.0;
    std::string unit;
};
using Metrics = std::map<std::string, Metric>;

Metrics
summarise(const SeriesMap &series)
{
    Metrics out;
    for (const auto &[name, s] : series) {
        std::vector<double> sorted = s.values;
        std::sort(sorted.begin(), sorted.end());
        out[name] = {s.permille == 500
                         ? perfbench::median(sorted)
                         : perfbench::percentileSorted(sorted, s.permille),
                     s.unit};
    }
    return out;
}

/** State of one workload run, traced or not. */
struct Ctx
{
    uint64_t seed = 0;
    /** Seconds of repetitions; 0 = one set-up and one repetition. */
    double budgetS = 0.0;
    Tracer *tracer = nullptr; ///< spans and per-layer metrics when set.
    /** False in the one-off passes a traced run makes over the other
     *  workloads: there, load-dependent wire outcomes (shedding below
     *  overload, generator lateness, too few samples for a p99) are
     *  reported, not failed. Wrong or lost responses still fail. */
    bool strict = true;
    SeriesMap e2e;
    SeriesMap layer;
    /** Per repetition, what tracing overhead is judged on. */
    std::vector<double> overheadBase;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> invalid; ///< why no number can be given.

    bool traced() const { return tracer != nullptr; }

    static void
    put(SeriesMap &m, const std::string &name, double value,
        const char *unit)
    {
        Series &s = m[name];
        s.values.push_back(value);
        s.unit = unit;
    }

    /** An end-to-end rate (1/s) for this repetition. */
    void
    putRate(const std::string &name, double value)
    {
        put(e2e, name, value, "1/s");
        e2e[name].permille = kRatePermille;
    }

    int
    span(const std::string &name, uint64_t id, int parent, int64_t t0,
         int64_t t1)
    {
        return tracer != nullptr ? tracer->add(name, id, parent, t0, t1)
                                 : -1;
    }

    void
    check(bool ok, uint64_t weight, const std::string &what)
    {
        attempted += weight;
        if (!ok) {
            failed += weight;
            std::fprintf(stderr, "perfbench: check failed: %s\n",
                         what.c_str());
        }
    }
};

/**
 * Pins the calling thread to one allowed CPU after another. The
 * scheduler otherwise keeps a serial phase on one CPU for a whole run,
 * and on a shared host that CPU's speed differs from run to run;
 * turning per repetition lets the median see every CPU. Threads
 * created while pinned inherit the pin, so a repetition that starts
 * threads runs unpinned.
 */
class CpuRotation
{
  public:
    CpuRotation()
    {
        if (sched_getaffinity(0, sizeof(original_), &original_) != 0)
            return;
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
            if (CPU_ISSET(cpu, &original_))
                cpus_.push_back(cpu);
    }
    ~CpuRotation() { restore(); }
    CpuRotation(const CpuRotation &) = delete;
    CpuRotation &operator=(const CpuRotation &) = delete;

    void
    pin(uint64_t i)
    {
        if (cpus_.empty())
            return;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus_[i % cpus_.size()], &one);
        sched_setaffinity(0, sizeof(one), &one);
    }

    void
    restore()
    {
        if (!cpus_.empty())
            sched_setaffinity(0, sizeof(original_), &original_);
    }

  private:
    cpu_set_t original_{};
    std::vector<int> cpus_;
};

/**
 * setup(true) once, then rep(i) until the budget is spent, and at
 * least @p minReps times when there is a budget. Further setup(false)
 * calls, due at evenly spaced points of the budget, sample set-up time
 * across the run; their results are dropped. Each set-up, and each
 * repetition when @p pinReps, runs on the next CPU.
 */
void
repeat(Ctx &c, const std::function<void(bool keep)> &setup,
       const std::function<void(uint64_t)> &rep, bool pinReps,
       uint64_t minReps = 1)
{
    if (c.budgetS <= 0.0)
        minReps = 1;
    const int64_t start = nowNs();
    const auto budgetNs = static_cast<int64_t>(c.budgetS * 1e9);
    const int setups = c.budgetS > 0.0 ? kSetupReps : 1;
    CpuRotation cpus;
    int done = 0;
    auto runSetup = [&] {
        cpus.pin(static_cast<uint64_t>(done));
        setup(done == 0);
        cpus.restore();
        ++done;
    };
    runSetup();
    uint64_t i = 0;
    do {
        if (pinReps)
            cpus.pin(i);
        rep(i++);
        cpus.restore();
        while (done < setups &&
               nowNs() - start >= budgetNs * done / setups)
            runSetup();
    } while (nowNs() - start < budgetNs || i < minReps);
    while (done < setups)
        runSetup();
}

/** p50 and p99 of latency samples (µs) into @p m. A sample too small
 *  for a p99 gives neither, and makes a strict run invalid. */
void
putLatency(Ctx &c, SeriesMap &m, const std::string &prefix,
           std::vector<double> us)
{
    std::sort(us.begin(), us.end());
    if (perfbench::tailPermille(us.size()) < 990) {
        if (c.strict)
            c.invalid.push_back(prefix + ": " + std::to_string(us.size()) +
                                " samples are too few for a p99");
        return;
    }
    Ctx::put(m, prefix + "p50_us", perfbench::percentileSorted(us, 500),
             "us");
    Ctx::put(m, prefix + "p99_us", perfbench::percentileSorted(us, 990),
             "us");
}

core::Workload
mnistWorkload(std::size_t train, std::size_t test, uint64_t seed)
{
    core::Workload w;
    w.name = "mnist";
    w.data = datasets::mnistLike(train, test, seed);
    w.mlpTopo = {w.data.train.inputSize(), 100,
                 static_cast<std::size_t>(w.data.train.numClasses())};
    w.snnTopo = {w.data.train.inputSize(), 300};
    return w;
}

/** Set-up time and its dataset share, with spans, into @p c. */
void
putSetup(Ctx &c, const char *name, int64_t t0, int64_t tGen, int64_t t1)
{
    c.span("datasets.gen", 0, c.span(name, 0, -1, t0, t1), t0, tGen);
    Ctx::put(c.e2e, "setup_s", secondsBetween(t0, t1), "s");
    Ctx::put(c.layer, "datasets.gen_s", secondsBetween(t0, tGen), "s");
}

// ---------------------------------------------------------------------
// snn_stdp: the paper's neuroscience pipeline.
// ---------------------------------------------------------------------

constexpr std::size_t kSnnTrain = 1000;
constexpr std::size_t kSnnTest = 2000;
/** Models the repetitions cycle through, each from seeds of its own.
 *  The accuracy figure is their mean, so it varies little between
 *  run seeds. */
constexpr uint64_t kSnnModels = 5;
/** Images in the eviction probe: its 3000 training grids plus 3000
 *  label grids (about 57 KB each) overflow the grid cache's default
 *  256 MB budget. */
constexpr std::size_t kSnnEvictN = 3000;
constexpr std::size_t kSnnEpochs = 2;
constexpr std::size_t kSnnCheckN = 200;    ///< 1-thread subset check.
constexpr std::size_t kSnnLatencyN = 1000; ///< classifies per repetition.
constexpr std::size_t kSnnEncodeN = 200;   ///< cold gridFor probe.

/** The seeds of one SNN model of a run. */
struct SnnSeeds
{
    uint64_t init = 0, train = 0, label = 0, eval = 0;
};

SnnSeeds
snnSeeds(uint64_t seed, uint64_t model)
{
    const uint64_t s = deriveStreamSeed(seed, 10 + model);
    return {deriveStreamSeed(s, 1), deriveStreamSeed(s, 2),
            deriveStreamSeed(s, 3), deriveStreamSeed(s, 4)};
}

void
runSnn(Ctx &c)
{
    const uint64_t seed = c.seed;
    std::optional<core::Workload> w;
    std::optional<snn::SnnConfig> cfg;
    auto setup = [&](bool keep) {
        const int64_t t0 = nowNs();
        core::Workload data = mnistWorkload(kSnnTrain, kSnnTest, seed);
        const int64_t tGen = nowNs();
        snn::SnnConfig config = core::defaultSnnConfig(data, kSnnTrain);
        Rng rng(snnSeeds(seed, 0).init);
        const snn::SnnNetwork net(config, rng);
        putSetup(c, "snn.setup", t0, tGen, nowNs());
        if (keep) {
            w.emplace(std::move(data));
            cfg.emplace(config);
        }
    };

    // Each model's first labels and accuracy; its later repetitions
    // start from the same seeds and must repeat them exactly.
    std::vector<std::vector<int>> modelLabels;
    std::vector<double> modelAccuracy;
    std::vector<int> labels;
    std::optional<snn::SnnNetwork> trained;
    SnnSeeds last; ///< seeds of the model in `trained`.
    auto rep = [&](uint64_t r) {
        const datasets::Dataset &train = w->data.train;
        const datasets::Dataset &test = w->data.test;
        const uint64_t model = r % kSnnModels;
        const SnnSeeds sd = snnSeeds(seed, model);
        Rng rng(sd.init);
        snn::SnnNetwork net(*cfg, rng);
        snn::SnnStdpTrainer trainer(*cfg);
        snn::SnnTrainConfig tc;
        tc.epochs = kSnnEpochs;
        tc.seed = sd.train;
        std::vector<int64_t> epochEnd;
        const int64_t tA = nowNs();
        trainer.train(net, train, tc, [&](const snn::SnnEpochReport &) {
            epochEnd.push_back(nowNs());
        });
        const int64_t tB = nowNs();
        const snn::GridCacheStats afterTrain = trainer.gridCache().stats();
        labels = trainer.labelNeurons(net, train, snn::EvalMode::Wt,
                                      sd.label);
        const int64_t tC = nowNs();
        const snn::GridCacheStats afterLabel = trainer.gridCache().stats();
        const snn::SnnEvalResult result = trainer.evaluate(
            net, labels, test, snn::EvalMode::Wt, sd.eval);
        const int64_t tD = nowNs();
        const snn::GridCacheStats afterEval = trainer.gridCache().stats();

        // Single-image latency through the model's serving backend.
        std::vector<double> latencyUs;
        std::size_t outOfRange = 0;
        if (c.traced()) {
            const auto backend =
                serve::makeSnnBackend(snn::TrainedSnn{net, labels});
            const auto session = backend->newSession();
            for (std::size_t i = 0; i < kSnnLatencyN; ++i) {
                const auto &px = test[i % test.size()].pixels;
                const int64_t t0 = nowNs();
                const int cls = session->classify(
                    px.data(), px.size(), deriveStreamSeed(seed, 100 + i));
                latencyUs.push_back(usBetween(t0, nowNs()));
                outOfRange += cls < -1 || cls >= test.numClasses() ? 1 : 0;
            }
            putLatency(c, c.layer, "snn.classify.", latencyUs);
            c.check(outOfRange == 0, kSnnLatencyN,
                    "snn backend returned an out-of-range class");
        }
        const int64_t tE = nowNs();

        const int root = c.span("snn.pipeline", r, -1, tA, tE);
        const int trainSpan = c.span("snn.train", r, root, tA, tB);
        int64_t epochStart = tA;
        for (std::size_t e = 0; e < epochEnd.size(); ++e) {
            const std::string name =
                "snn.train.epoch" + std::to_string(e + 1);
            c.span(name, r, trainSpan, epochStart, epochEnd[e]);
            if (c.traced())
                Ctx::put(c.layer, name + "_s",
                         secondsBetween(epochStart, epochEnd[e]), "s");
            epochStart = epochEnd[e];
        }
        c.span("snn.label", r, root, tB, tC);
        c.span("snn.eval", r, root, tC, tD);
        c.span("snn.classify", r, root, tD, tE);

        c.putRate("train_img_s",
                  static_cast<double>(kSnnEpochs * train.size()) /
                      secondsBetween(tA, tB));
        c.putRate("infer_img_s",
                  static_cast<double>(train.size() + test.size()) /
                      secondsBetween(tB, tD));
        c.overheadBase.push_back(secondsBetween(tA, tD));
        if (r == modelAccuracy.size()) {
            modelLabels.push_back(labels);
            modelAccuracy.push_back(result.accuracy);
        }
        c.check(labels == modelLabels[model] &&
                    result.accuracy == modelAccuracy[model],
                kSnnEpochs * train.size() + train.size() + test.size(),
                "snn repetition " + std::to_string(r) +
                    " differs from the first of its model");
        if (c.traced()) {
            auto ratio = [](uint64_t hits, uint64_t misses) {
                return hits + misses == 0
                           ? 0.0
                           : static_cast<double>(hits) /
                                 static_cast<double>(hits + misses);
            };
            SeriesMap &m = c.layer;
            Ctx::put(m, "snn.label_s", secondsBetween(tB, tC), "s");
            Ctx::put(m, "snn.eval_s", secondsBetween(tC, tD), "s");
            Ctx::put(m, "snn.grid_cache.hit_ratio.train",
                     ratio(afterTrain.hits, afterTrain.misses), "ratio");
            Ctx::put(m, "snn.grid_cache.hit_ratio.label",
                     ratio(afterLabel.hits - afterTrain.hits,
                           afterLabel.misses - afterTrain.misses),
                     "ratio");
            Ctx::put(m, "snn.grid_cache.hit_ratio.eval",
                     ratio(afterEval.hits - afterLabel.hits,
                           afterEval.misses - afterLabel.misses),
                     "ratio");
            Ctx::put(m, "snn.silent_ratio",
                     static_cast<double>(result.silent) /
                         static_cast<double>(test.size()),
                     "ratio");
        }
        trained.emplace(std::move(net));
        last = sd;
    };
    repeat(c, setup, rep, true, kSnnModels);
    const datasets::Dataset &train = w->data.train;
    const datasets::Dataset &test = w->data.test;
    double accuracySum = 0.0;
    for (const double a : modelAccuracy)
        accuracySum += a;
    Ctx::put(c.e2e, "accuracy",
             accuracySum / static_cast<double>(modelAccuracy.size()),
             "ratio");
    const uint64_t labelSeed = last.label;
    const uint64_t evalSeed = last.eval;

    // Output check: labels and accuracy at the pinned thread count must
    // equal a 1-thread run over a fixed subset.
    const std::size_t pinned = parallelThreadCount();
    {
        const datasets::Dataset trainSub = train.slice(0, kSnnCheckN);
        const datasets::Dataset testSub = test.slice(0, kSnnCheckN);
        snn::SnnStdpTrainer trainer(*cfg);
        const auto lp = trainer.labelNeurons(*trained, trainSub,
                                             snn::EvalMode::Wt, labelSeed);
        const auto ap = trainer.evaluate(*trained, lp, testSub,
                                         snn::EvalMode::Wt, evalSeed);
        setParallelThreadCount(1);
        const auto l1 = trainer.labelNeurons(*trained, trainSub,
                                             snn::EvalMode::Wt, labelSeed);
        const auto a1 = trainer.evaluate(*trained, l1, testSub,
                                         snn::EvalMode::Wt, evalSeed);
        setParallelThreadCount(pinned);
        c.check(lp == l1 && ap.accuracy == a1.accuracy &&
                    ap.silent == a1.silent,
                2 * kSnnCheckN,
                "snn labels/accuracy differ between " +
                    std::to_string(pinned) + " threads and 1 thread");
    }
    if (!c.traced())
        return;

    SeriesMap &m = c.layer;
    // Cold encoding: a fresh trainer's cache misses on every image.
    {
        snn::SnnStdpTrainer trainer(*cfg);
        std::size_t events = 0;
        const int64_t t0 = nowNs();
        for (std::size_t i = 0; i < kSnnEncodeN; ++i)
            events += trainer.gridFor(test, i, evalSeed)->totalSpikes();
        const int64_t t1 = nowNs();
        c.span("snn.encode", 0, -1, t0, t1);
        Ctx::put(m, "snn.encode_us_per_img",
                 usBetween(t0, t1) / static_cast<double>(kSnnEncodeN), "us");
        Ctx::put(m, "snn.input_events_per_img",
                 static_cast<double>(events) /
                     static_cast<double>(kSnnEncodeN),
                 "count");
    }
    // Label at one thread, from a cold cache like the timed passes.
    {
        snn::SnnStdpTrainer trainer(*cfg);
        setParallelThreadCount(1);
        const int64_t t0 = nowNs();
        const auto l1 = trainer.labelNeurons(*trained, train,
                                             snn::EvalMode::Wt, labelSeed);
        const int64_t t1 = nowNs();
        setParallelThreadCount(pinned);
        c.span("snn.label.1thread", 0, -1, t0, t1);
        c.check(l1 == labels, train.size(),
                "snn 1-thread labels differ from the pinned run");
        Ctx::put(m, "parallel.label_speedup",
                 secondsBetween(t0, t1) /
                     perfbench::median(m["snn.label_s"].values),
                 "ratio");
    }
    // Eviction: the pipeline's grids all fit the cache, so a larger set
    // fills it with training grids and then labels under another seed.
    {
        const datasets::Dataset big =
            datasets::mnistLike(kSnnEvictN, 0, deriveStreamSeed(seed, 6))
                .train;
        snn::SnnStdpTrainer trainer(*cfg);
        const int64_t t0 = nowNs();
        for (std::size_t i = 0; i < big.size(); ++i)
            trainer.gridFor(big, i, last.train);
        const int64_t t1 = nowNs();
        trainer.labelNeurons(*trained, big, snn::EvalMode::Wt, labelSeed);
        const int64_t t2 = nowNs();
        c.span("snn.evict.fill", 0, -1, t0, t1);
        c.span("snn.evict.label", 0, -1, t1, t2);
        Ctx::put(m, "snn.grid_cache.evictions",
                 static_cast<double>(trainer.gridCache().stats().evictions),
                 "count");
    }
}

// ---------------------------------------------------------------------
// mlp_bp: the paper's machine-learning pipeline.
// ---------------------------------------------------------------------

constexpr std::size_t kMlpTrain = 4000;
constexpr std::size_t kMlpTest = 2000;
constexpr std::size_t kMlpEpochs = 2;
constexpr std::size_t kMlpCheckN = 256;

void
runMlp(Ctx &c)
{
    const uint64_t seed = c.seed;
    std::optional<core::Workload> w;
    std::optional<mlp::Mlp> init;
    std::vector<float> testInputs; ///< normalized test set, row-major.
    auto setup = [&](bool keep) {
        const int64_t t0 = nowNs();
        core::Workload data = mnistWorkload(kMlpTrain, kMlpTest, seed);
        const int64_t tGen = nowNs();
        Rng rng(deriveStreamSeed(seed, 1));
        mlp::Mlp net(core::defaultMlpConfig(data), rng);
        putSetup(c, "mlp.setup", t0, tGen, nowNs());
        if (keep) {
            w.emplace(std::move(data));
            init.emplace(std::move(net));
            const datasets::Dataset &test = w->data.test;
            testInputs.resize(test.size() * test.inputSize());
            for (std::size_t i = 0; i < test.size(); ++i)
                test.normalized(i, testInputs.data() + i * test.inputSize());
        }
    };
    mlp::TrainConfig tc = core::defaultMlpTrainConfig();
    tc.epochs = kMlpEpochs;
    tc.seed = deriveStreamSeed(seed, 2);

    double accuracy0 = -1.0, q8Accuracy0 = -1.0;
    std::optional<mlp::Mlp> trained;
    auto rep = [&](uint64_t r) {
        const datasets::Dataset &train = w->data.train;
        const datasets::Dataset &test = w->data.test;
        mlp::Mlp net = *init;
        std::vector<int64_t> epochEnd;
        const int64_t tA = nowNs();
        mlp::train(net, train, tc, [&](const mlp::EpochReport &) {
            epochEnd.push_back(nowNs());
        });
        const int64_t tB = nowNs();
        const double accuracy = mlp::evaluate(net, test);
        const int64_t tC = nowNs();
        const double q8Accuracy = mlp::QuantizedMlp(net, 8).evaluate(test);
        const int64_t tD = nowNs();
        // Single-image latency: one predict() per call, inputs ready.
        std::vector<double> latencyUs;
        std::size_t hits = 0;
        for (std::size_t i = 0; i < test.size(); ++i) {
            const int64_t t0 = nowNs();
            const int cls =
                net.predict(testInputs.data() + i * test.inputSize());
            latencyUs.push_back(usBetween(t0, nowNs()));
            hits += cls == test[i].label ? 1 : 0;
        }
        const int64_t tE = nowNs();

        const int root = c.span("mlp.pipeline", r, -1, tA, tE);
        const int trainSpan = c.span("mlp.train", r, root, tA, tB);
        int64_t epochStart = tA;
        for (const int64_t end : epochEnd) {
            c.span("mlp.train.epoch", r, trainSpan, epochStart, end);
            if (c.traced())
                Ctx::put(c.layer, "mlp.epoch_s",
                         secondsBetween(epochStart, end), "s");
            epochStart = end;
        }
        c.span("mlp.eval", r, root, tB, tC);
        c.span("mlp.eval_q8", r, root, tC, tD);
        c.span("mlp.predict", r, root, tD, tE);

        c.putRate("train_img_s",
                  static_cast<double>(kMlpEpochs * train.size()) /
                      secondsBetween(tA, tB));
        c.putRate("infer_img_s", static_cast<double>(2 * test.size()) /
                                     secondsBetween(tB, tD));
        Ctx::put(c.e2e, "accuracy", accuracy, "ratio");
        c.overheadBase.push_back(secondsBetween(tA, tE));
        if (c.traced()) {
            putLatency(c, c.layer, "mlp.predict.", latencyUs);
            Ctx::put(c.layer, "mlp.eval_s", secondsBetween(tB, tC), "s");
            Ctx::put(c.layer, "mlp.eval_q8_s", secondsBetween(tC, tD), "s");
        }
        if (r == 0) {
            accuracy0 = accuracy;
            q8Accuracy0 = q8Accuracy;
        }
        c.check(accuracy == accuracy0 && q8Accuracy == q8Accuracy0,
                kMlpEpochs * train.size() + 2 * test.size(),
                "mlp repetition " + std::to_string(r) +
                    " differs from the first");
        c.check(static_cast<double>(hits) /
                        static_cast<double>(test.size()) ==
                    accuracy,
                test.size(),
                "single-image predictions disagree with evaluate()");
        trained.emplace(std::move(net));
    };
    repeat(c, setup, rep, true);

    // Output check on a fixed subset: the strip path's predictions
    // equal per-sample predict(), and both evaluate() calls agree with
    // counting per-sample predictions.
    const mlp::Mlp &net = *trained;
    const datasets::Dataset sub = w->data.test.slice(0, kMlpCheckN);
    constexpr std::size_t kStrip = kernels::kStripWidth;
    const std::size_t inputs = net.inputSize();
    std::vector<float> input(inputs), stripIn(inputs * kStrip);
    std::vector<float> cur, next;
    int classes[kStrip];
    std::size_t mismatched = 0, hits = 0, q8Hits = 0;
    const mlp::QuantizedMlp q8(net, 8);
    for (std::size_t i = 0; i + kStrip <= sub.size(); i += kStrip) {
        for (std::size_t b = 0; b < kStrip; ++b) {
            sub.normalized(i + b, input.data());
            for (std::size_t k = 0; k < inputs; ++k)
                stripIn[k * kStrip + b] = input[k];
        }
        net.forwardStrip(stripIn.data(), cur, next);
        mlp::argmaxStrip(cur.data(), net.outputSize(), classes);
        for (std::size_t b = 0; b < kStrip; ++b) {
            sub.normalized(i + b, input.data());
            const int scalar = net.predict(input.data());
            mismatched += scalar != classes[b] ? 1 : 0;
            hits += scalar == sub[i + b].label ? 1 : 0;
            q8Hits +=
                q8.predict(sub[i + b].pixels.data()) == sub[i + b].label ? 1
                                                                         : 0;
        }
    }
    const double n = static_cast<double>(sub.size());
    c.check(mismatched == 0, kMlpCheckN,
            std::to_string(mismatched) +
                " strip predictions differ from predict()");
    c.check(mlp::evaluate(net, sub) == static_cast<double>(hits) / n &&
                q8.evaluate(sub) == static_cast<double>(q8Hits) / n,
            2, "mlp evaluate() disagrees with per-sample predictions");
}

// ---------------------------------------------------------------------
// wire_mlp: open-loop Poisson traffic over loopback TCP.
// ---------------------------------------------------------------------

constexpr std::size_t kWireTrain = 2000;
constexpr std::size_t kWirePool = 400; ///< request samples (test set).
constexpr std::size_t kWireHidden = 2048;
constexpr uint32_t kDeadlineMicros = 50000;
/** Sender lateness p99, over every round of a phase, above which the
 *  phase's load was not offered: a fifth of the request deadline. */
constexpr double kMaxLateUs = 10000.0;

struct PhaseSpec
{
    const char *name;
    double rateReqS;
    double seconds;   ///< per round.
    bool shedAllowed; ///< admission shedding is by design here.
};

/** One round: fixed absolute offered rates. Light runs long enough for
 *  a p99 in every round. */
constexpr PhaseSpec kPhases[] = {
    {"light", 500.0, 2.6, false},
    {"knee", 1000.0, 1.2, false},
    {"overload", 5000.0, 0.8, true},
};

serve::ServeConfig
wireServeConfig()
{
    serve::ServeConfig sc;
    sc.queueCapacity = 64;
    sc.batch.maxBatch = 4;
    sc.batch.maxWaitMicros = 200;
    return sc;
}

/** One response as the receiver thread saw it. */
struct Arrival
{
    net::ResponseFrame frame;
    int64_t recvNs = 0;
};

void
runWirePhase(Ctx &c, const PhaseSpec &phase, uint64_t phaseId,
             const serve::ModelRegistry &registry,
             const datasets::Dataset &pool, const std::vector<int> &expected,
             std::vector<double> &lateUs)
{
    const std::vector<int64_t> schedule = perfbench::poissonScheduleNs(
        phase.rateReqS, phase.seconds, deriveStreamSeed(c.seed, phaseId));
    const std::size_t n = schedule.size();
    const std::string name = phase.name;

    net::ServeFrontend frontend(registry, wireServeConfig());
    net::NetServer server(frontend);
    net::NetClient client;
    std::string error;
    if (!server.start(&error) ||
        !client.connect("127.0.0.1", server.port(), &error)) {
        c.invalid.push_back(name + ": " + error);
        return;
    }

    std::vector<int64_t> sendStart(n, 0), sendEnd(n, 0);
    std::vector<Arrival> arrivals;
    arrivals.reserve(n);
    std::size_t sent = 0;
    const int64_t start = nowNs() + 2'000'000;
    std::thread sender([&] {
        for (std::size_t i = 0; i < n; ++i) {
            std::this_thread::sleep_until(
                kEpoch + std::chrono::nanoseconds(start + schedule[i]));
            net::RequestFrame frame;
            frame.id = i;
            frame.streamSeed = deriveStreamSeed(c.seed, i);
            frame.model = "m0";
            frame.deadlineMicros = kDeadlineMicros;
            const auto &px = pool[i % pool.size()].pixels;
            frame.pixels.assign(px.begin(), px.end());
            sendStart[i] = nowNs();
            const bool ok = client.sendRequest(frame, nullptr);
            sendEnd[i] = nowNs();
            if (!ok)
                break;
            ++sent;
        }
        client.shutdownWrite();
    });
    net::ResponseFrame frame;
    while (client.readResponse(&frame, nullptr))
        arrivals.push_back({frame, nowNs()});
    sender.join();
    const int64_t end = nowNs();
    server.stop();

    if (sent < n)
        c.invalid.push_back(name + ": sent " + std::to_string(sent) +
                            " of " + std::to_string(n) + " scheduled");

    perfbench::WireCheck check(sent, phase.shedAllowed || !c.strict);
    std::vector<double> latencyUs, queueUs, batchUs, computeUs, wireUs;
    double batchSizeSum = 0.0;
    uint64_t stagesOverLatency = 0;
    for (const Arrival &a : arrivals) {
        const net::ResponseFrame &r = a.frame;
        const bool known = r.id < sent;
        perfbench::WireStatus status = perfbench::WireStatus::Error;
        if (r.status == net::FrameStatus::Ok)
            status = perfbench::WireStatus::Ok;
        else if (r.status == net::FrameStatus::Rejected ||
                 r.status == net::FrameStatus::Expired)
            status = perfbench::WireStatus::Shed;
        check.record(r.id, status, r.classIndex,
                     known ? expected[r.id % pool.size()] : -1);
        if (!known || status != perfbench::WireStatus::Ok)
            continue;
        const int64_t sched = start + schedule[r.id];
        latencyUs.push_back(usBetween(sched, a.recvNs));
        queueUs.push_back(r.queueMicros);
        batchUs.push_back(r.batchMicros);
        computeUs.push_back(r.computeMicros);
        batchSizeSum += r.batchSize;
        // The server's stages happen between the scheduled send and the
        // client's receipt, so they cannot add up to more than that.
        const int64_t q = std::llround(r.queueMicros * 1e3);
        const int64_t b = std::llround(r.batchMicros * 1e3);
        const int64_t k = std::llround(r.computeMicros * 1e3);
        stagesOverLatency += q + b + k > a.recvNs - sched ? 1 : 0;
        if (!c.traced())
            continue;
        // Server stages come from the response frame; they are placed
        // back to back, ending at client receipt. What they leave of
        // the request span is the wire: send, transport both ways,
        // decode and outbox.
        const uint64_t id = phaseId * 1'000'000 + r.id;
        const std::vector<perfbench::Span> spans = {
            {"wire.request", id, -1, sched, a.recvNs},
            {"serve.compute", id, 0, a.recvNs - k, a.recvNs},
            {"serve.batch", id, 0, a.recvNs - k - b, a.recvNs - k},
            {"serve.queue", id, 0, a.recvNs - k - b - q, a.recvNs - k - b},
        };
        const int root = c.span(spans[0].name, id, -1, sched, a.recvNs);
        for (std::size_t s = 1; s < spans.size(); ++s)
            c.span(spans[s].name, id, root, spans[s].startNs,
                   spans[s].endNs);
        wireUs.push_back(
            static_cast<double>(perfbench::selfTimesNs(spans)[0]) / 1e3);
    }
    c.attempted += sent;
    c.failed += check.failed() + stagesOverLatency;
    if (stagesOverLatency > 0)
        std::fprintf(stderr,
                     "perfbench: %s: %llu responses report server stages "
                     "longer than their client latency\n",
                     name.c_str(),
                     static_cast<unsigned long long>(stagesOverLatency));
    if (check.failed() > 0)
        std::fprintf(stderr,
                     "perfbench: %s: %llu failed (%llu lost, %llu shed)\n",
                     name.c_str(),
                     static_cast<unsigned long long>(check.failed()),
                     static_cast<unsigned long long>(check.lost()),
                     static_cast<unsigned long long>(check.shed()));
    if (check.lost() > 0)
        c.invalid.push_back(name + ": " + std::to_string(check.lost()) +
                            " responses lost");

    std::vector<double> sendUs;
    for (std::size_t i = 0; i < sent; ++i) {
        lateUs.push_back(usBetween(start + schedule[i], sendStart[i]));
        sendUs.push_back(usBetween(sendStart[i], sendEnd[i]));
        c.span("net.send", phaseId * 1'000'000 + i, -1, sendStart[i],
               sendEnd[i]);
    }
    if (sent == 0)
        return;
    const double goodput =
        static_cast<double>(check.ok()) / secondsBetween(start, end);
    if (name == "light")
        c.overheadBase.push_back(perfbench::median(latencyUs));
    if (name == "overload")
        c.putRate("infer_img_s", goodput);
    if (!c.traced())
        return;

    SeriesMap &m = c.layer;
    const std::string wp = "wire." + name + ".";
    putLatency(c, m, wp, latencyUs);
    Ctx::put(m, wp + "goodput_req_s", goodput, "1/s");
    Ctx::put(m, wp + "samples", static_cast<double>(latencyUs.size()),
             "count");
    Ctx::put(m, wp + "shed_ratio",
             static_cast<double>(check.shed()) / static_cast<double>(sent),
             "ratio");
    const std::string sp = "serve." + name + ".";
    putLatency(c, m, sp + "queue.", queueUs);
    putLatency(c, m, sp + "compute.", computeUs);
    Ctx::put(m, sp + "batch.p50_us", perfbench::median(batchUs), "us");
    Ctx::put(m, sp + "batch_size.mean",
             batchSizeSum / static_cast<double>(std::max<std::size_t>(
                                latencyUs.size(), 1)),
             "count");
    const std::string np = "net." + name + ".";
    putLatency(c, m, np + "wire.", wireUs);
    std::sort(sendUs.begin(), sendUs.end());
    Ctx::put(m, np + "send.p99_us", perfbench::percentileSorted(sendUs, 990),
             "us");
    Ctx::put(m, "gen." + name + ".sent_over_scheduled",
             static_cast<double>(sent) / static_cast<double>(n), "ratio");
}

/** classifyBatch cost by batch size, and the light schedule replayed
 *  in process (no socket). */
void
probeServe(Ctx &c, const std::shared_ptr<serve::InferenceBackend> &backend,
           const datasets::Dataset &pool, const std::vector<int> &expected)
{
    SeriesMap &m = c.layer;
    const auto session = backend->newSession();
    for (const std::size_t b : {1, 2, 4, 16}) {
        std::vector<const uint8_t *> px(b);
        std::vector<uint64_t> seeds(b, 0);
        std::vector<int> classes(b);
        for (std::size_t i = 0; i < b; ++i)
            px[i] = pool[i].pixels.data();
        std::vector<double> us;
        for (int r = 0; r < 200; ++r) {
            const int64_t t0 = nowNs();
            session->classifyBatch(px.data(), seeds.data(), b,
                                   backend->inputSize(), classes.data());
            us.push_back(usBetween(t0, nowNs()));
        }
        std::size_t wrong = 0;
        for (std::size_t i = 0; i < b; ++i)
            wrong += classes[i] != expected[i] ? 1 : 0;
        c.check(wrong == 0, b, "classifyBatch disagrees with classify");
        Ctx::put(m, "serve.classify_batch_us.b" + std::to_string(b),
                 perfbench::median(us), "us");
    }

    const PhaseSpec &light = kPhases[0];
    const std::vector<int64_t> schedule = perfbench::poissonScheduleNs(
        light.rateReqS, light.seconds, deriveStreamSeed(c.seed, 9));
    const std::size_t n = schedule.size();
    std::vector<int64_t> doneNs(n, 0);
    std::vector<int> classes(n, -1);
    std::vector<uint8_t> okFlags(n, 0);
    int64_t start = 0;
    {
        serve::InferenceServer server(backend, wireServeConfig());
        start = nowNs() + 2'000'000;
        for (std::size_t i = 0; i < n; ++i) {
            std::this_thread::sleep_until(
                kEpoch + std::chrono::nanoseconds(start + schedule[i]));
            serve::InferenceRequest request;
            request.id = i;
            request.streamSeed = deriveStreamSeed(c.seed, i);
            const auto &px = pool[i % pool.size()].pixels;
            request.pixels.assign(px.begin(), px.end());
            request.deadline = serve::ServeClock::now() +
                               std::chrono::microseconds(kDeadlineMicros);
            server.submit(std::move(request),
                          [&, i](serve::InferenceResult &&r) {
                              doneNs[i] = nowNs();
                              classes[i] = r.classIndex;
                              okFlags[i] =
                                  r.status == serve::RequestStatus::Ok;
                          });
        }
        server.stop();
    }
    std::vector<double> us;
    std::size_t wrong = 0, shed = 0;
    for (std::size_t i = 0; i < n; ++i) {
        shed += okFlags[i] == 0 ? 1 : 0;
        wrong += okFlags[i] != 0 && classes[i] != expected[i % pool.size()]
                     ? 1
                     : 0;
        us.push_back(usBetween(start + schedule[i], doneNs[i]));
    }
    c.check(wrong == 0 && (shed == 0 || !c.strict), n,
            std::to_string(wrong) + " wrong and " + std::to_string(shed) +
                " shed in-process light requests");
    Ctx::put(m, "serve.inproc.light.p50_us", perfbench::median(us), "us");
}

/**
 * The served model: a 784-@p hidden-10 float MLP computing the same
 * function as the trained 784-100-10 @p net, with each hidden unit
 * replicated and its output weights split across the copies. One
 * epoch of BP at the paper's learning rate cannot train a 2048-wide
 * sigmoid layer (the model collapses to one class, which no output
 * check would catch); the replicas keep the served shape and cost.
 */
mlp::Mlp
widen(const mlp::Mlp &net, std::size_t hidden)
{
    mlp::MlpConfig config = net.config();
    config.layerSizes[1] = hidden;
    Rng unused(0);
    mlp::Mlp wide(config, unused);
    const Matrix &w1 = net.weights(0), &w2 = net.weights(1);
    const std::size_t h = w1.rows();
    for (std::size_t j = 0; j < hidden; ++j)
        std::copy(w1.row(j % h), w1.row(j % h) + w1.cols(),
                  wide.weights(0).row(j));
    for (std::size_t k = 0; k < w2.rows(); ++k) {
        for (std::size_t j = 0; j < hidden; ++j) {
            const std::size_t copies = hidden / h + (j % h < hidden % h);
            wide.weights(1)(k, j) =
                w2(k, j % h) / static_cast<float>(copies);
        }
        wide.weights(1)(k, hidden) = w2(k, h);
    }
    return wide;
}

void
runWire(Ctx &c)
{
    const uint64_t seed = c.seed;
    std::optional<core::Workload> w;
    std::shared_ptr<serve::InferenceBackend> backend;
    std::vector<int> expected;
    serve::ModelRegistry registry;
    auto setup = [&](bool keep) {
        const int64_t t0 = nowNs();
        core::Workload data = mnistWorkload(kWireTrain, kWirePool, seed);
        const int64_t tGen = nowNs();
        Rng rng(deriveStreamSeed(seed, 1));
        mlp::Mlp net(core::defaultMlpConfig(data), rng);
        mlp::TrainConfig tc = core::defaultMlpTrainConfig();
        tc.epochs = 1;
        tc.seed = deriveStreamSeed(seed, 2);
        const int64_t tA = nowNs();
        mlp::train(net, data.data.train, tc);
        const int64_t tB = nowNs();
        auto served = serve::makeMlpBackend(widen(net, kWireHidden));
        // The in-process answer every wire response is checked against.
        const auto session = served->newSession();
        const datasets::Dataset &pool = data.data.test;
        std::vector<int> answers(pool.size(), -1);
        std::size_t hits = 0;
        for (std::size_t i = 0; i < pool.size(); ++i) {
            answers[i] = session->classify(pool[i].pixels.data(),
                                           pool.inputSize(), 0);
            hits += answers[i] == pool[i].label ? 1 : 0;
        }
        serve::ModelRegistry probe;
        probe.add("m0", served);
        net::ServeFrontend frontend(probe, wireServeConfig());
        net::NetServer server(frontend);
        std::string error;
        if (!server.start(&error))
            c.invalid.push_back("server start: " + error);
        server.stop();
        putSetup(c, "wire.setup", t0, tGen, nowNs());
        c.span("mlp.train", 0, -1, tA, tB);
        c.putRate("train_img_s",
                  static_cast<double>(data.data.train.size()) /
                      secondsBetween(tA, tB));
        Ctx::put(c.e2e, "accuracy",
                 static_cast<double>(hits) /
                     static_cast<double>(pool.size()),
                 "ratio");
        if (keep) {
            w.emplace(std::move(data));
            backend = std::move(served);
            expected = std::move(answers);
            registry.add("m0", backend);
        }
    };
    std::vector<double> lateUs[std::size(kPhases)];
    auto round = [&](uint64_t r) {
        for (std::size_t p = 0; p < std::size(kPhases); ++p)
            runWirePhase(c, kPhases[p], 10 + 3 * r + p, registry,
                         w->data.test, expected, lateUs[p]);
    };
    repeat(c, setup, round, false);
    for (std::size_t p = 0; p < std::size(kPhases); ++p) {
        const std::string name = kPhases[p].name;
        std::sort(lateUs[p].begin(), lateUs[p].end());
        const double lateP99 =
            lateUs[p].empty() ? 0.0
                              : perfbench::percentileSorted(lateUs[p], 990);
        if (c.strict && lateP99 > kMaxLateUs)
            c.invalid.push_back(name + ": generator p99 lateness " +
                                std::to_string(lateP99) + " us");
        if (c.traced())
            Ctx::put(c.layer, "gen." + name + ".late.p99_us", lateP99, "us");
    }
    if (c.traced())
        probeServe(c, backend, w->data.test, expected);
}

// ---------------------------------------------------------------------
// Kernel probes (traced runs only).
// ---------------------------------------------------------------------

/** Median ns per call of @p fn over batches of calls. */
double
nsPerCall(const std::function<void()> &fn)
{
    int64_t t0 = nowNs();
    std::size_t calls = 0;
    while (nowNs() - t0 < 20'000'000 || calls < 8) {
        fn();
        ++calls;
    }
    const std::size_t perBatch = std::max<std::size_t>(1, calls / 4);
    std::vector<double> ns;
    for (int b = 0; b < 9; ++b) {
        t0 = nowNs();
        for (std::size_t i = 0; i < perBatch; ++i)
            fn();
        ns.push_back(static_cast<double>(nowNs() - t0) /
                     static_cast<double>(perBatch));
    }
    return perfbench::median(ns);
}

void
probeKernels(Ctx &c)
{
    Rng rng(deriveStreamSeed(c.seed, 50));
    auto vec = [&](std::size_t n) {
        std::vector<float> v(n);
        for (float &x : v)
            x = static_cast<float>(rng.uniform(-1.0, 1.0));
        return v;
    };
    auto put = [&](const std::string &name, const std::function<void()> &fn) {
        Ctx::put(c.layer, "kernels." + name + ".ns", nsPerCall(fn), "ns");
    };
    volatile float sink = 0.0F;
    for (const std::size_t rows : {100, 2048}) {
        const std::size_t cols = 785;
        const auto wt = vec(rows * cols), x = vec(cols);
        std::vector<float> y(rows);
        put("gemvBias." + std::to_string(rows) + "x785", [&] {
            kernels::gemvBias(wt.data(), rows, cols, x.data(), y.data());
            sink = sink + y[0];
        });
    }
    {
        const std::size_t rows = 10, cols = 101;
        const auto wt = vec(rows * cols), x = vec(rows);
        std::vector<float> y(cols);
        put("gemvT.10x101", [&] {
            kernels::gemvT(wt.data(), rows, cols, x.data(), y.data());
            sink = sink + y[0];
        });
    }
    {
        const std::size_t rows = 100, cols = 785;
        auto wt = vec(rows * cols);
        const auto d = vec(rows), x = vec(cols);
        put("addOuterBias.100x785", [&] {
            kernels::addOuterBias(wt.data(), rows, cols, 1e-6F, d.data(),
                                  x.data());
        });
        const auto in = vec((cols - 1) * kernels::kStripWidth);
        std::vector<float> out(rows * kernels::kStripWidth);
        put("gemvBiasStrip.100x785", [&] {
            kernels::gemvBiasStrip(wt.data(), rows, cols, in.data(),
                                   out.data());
            sink = sink + out[0];
        });
        std::vector<int8_t> wq(rows * cols);
        std::vector<uint8_t> xq(cols - 1);
        for (auto &v : wq)
            v = static_cast<int8_t>(static_cast<int>(rng.uniformInt(255)) -
                                    127);
        for (auto &v : xq)
            v = static_cast<uint8_t>(rng.uniformInt(256));
        std::vector<int32_t> yq(rows);
        put("gemvBiasQ8.100x785", [&] {
            kernels::gemvBiasQ8(wq.data(), rows, cols, xq.data(), yq.data());
            sink = sink + static_cast<float>(yq[0]);
        });
    }
    {
        // The SNN's sizes: 300 neurons per drive row; a 500 ms window
        // is 8 words of output bits per neuron.
        const std::size_t neurons = 300, words = 8;
        const auto row = vec(neurons);
        std::vector<double> acc(neurons, 0.0);
        put("addRowF64.300", [&] {
            kernels::addRowF64(acc.data(), row.data(), neurons);
        });
        std::vector<uint64_t> bits(words);
        for (auto &v : bits)
            v = (rng.uniformInt(uint64_t{1} << 32) << 32) |
                rng.uniformInt(uint64_t{1} << 32);
        put("popcountWords.8w", [&] {
            sink = sink + static_cast<float>(
                              kernels::popcountWords(bits.data(), words));
        });
    }
}

// ---------------------------------------------------------------------
// Host/build stamp and output.
// ---------------------------------------------------------------------

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (const char ch : s) {
        if (ch == '"' || ch == '\\')
            out += '\\';
        if (static_cast<unsigned char>(ch) >= 0x20)
            out += ch;
    }
    return out;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            return colon == std::string::npos ? line
                                              : line.substr(colon + 2);
        }
    }
    return "unknown";
}

std::string
stampJson(const std::string &commit)
{
    const char *simd = std::getenv("NEURO_SIMD");
    std::string compiler =
#if defined(__clang__)
        "clang ";
#elif defined(__GNUC__)
        "gcc ";
#else
        "unknown ";
#endif
    compiler += __VERSION__;
    char buf[1024];
    std::snprintf(
        buf, sizeof(buf),
        "{\"nproc\": %ld, \"cpu\": \"%s\", \"isa\": \"%s\", "
        "\"compiler\": \"%s\", \"build_type\": \"%s\", "
        "\"neuro_threads\": %zu, \"neuro_simd\": \"%s\", "
        "\"commit\": \"%s\"}",
        sysconf(_SC_NPROCESSORS_ONLN), jsonEscape(cpuModel()).c_str(),
        kernels::isaName(kernels::activeIsa()),
        jsonEscape(compiler).c_str(), PERFBENCH_BUILD_TYPE,
        parallelThreadCount(),
        simd != nullptr ? jsonEscape(simd).c_str() : "unset",
        jsonEscape(commit).c_str());
    return buf;
}

double
peakRssMb()
{
    struct rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

void
printResult(bool correct, uint64_t attempted, uint64_t failed,
            const Metrics &metrics)
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " +
           std::to_string(std::max<uint64_t>(attempted, 1));
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, metric] : metrics) {
        char value[64];
        std::snprintf(value, sizeof(value), "%.17g", metric.value);
        out += (first ? "\"" : ", \"") + name + "\": {\"value\": " + value +
               ", \"unit\": \"" + metric.unit + "\"}";
        first = false;
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
}

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench_driver: %s\nusage: perfbench_driver --workload "
                 "snn_stdp|mlp_bp|wire_mlp --seed N --seconds S "
                 "--trace 0|1 [--commit ID] [--trace-out PATH]\n",
                 why);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc % 2 == 0)
        return usage("arguments come in --key value pairs");
    std::map<std::string, std::string> args;
    for (int i = 1; i + 1 < argc; i += 2)
        args[argv[i]] = argv[i + 1];
    const std::map<std::string, void (*)(Ctx &)> workloads = {
        {"snn_stdp", runSnn}, {"mlp_bp", runMlp}, {"wire_mlp", runWire}};
    const auto wl = workloads.find(args["--workload"]);
    if (wl == workloads.end())
        return usage("unknown --workload");
    char *end = nullptr;
    const uint64_t seed = std::strtoull(args["--seed"].c_str(), &end, 10);
    if (args["--seed"].empty() || *end != '\0')
        return usage("--seed must be a whole number");
    const double seconds = std::strtod(args["--seconds"].c_str(), &end);
    if (args["--seconds"].empty() || *end != '\0' || !(seconds > 0.0))
        return usage("--seconds must be a positive number");
    const bool trace = args["--trace"] == "1";
    if (!trace && args["--trace"] != "0")
        return usage("--trace must be 0 or 1");

    std::printf("stamp %s\n", stampJson(args["--commit"]).c_str());
    Metrics metrics;
    uint64_t attempted = 0, failed = 0;
    std::vector<std::string> invalid;
    auto absorb = [&](const Ctx &c) {
        attempted += c.attempted;
        failed += c.failed;
        invalid.insert(invalid.end(), c.invalid.begin(), c.invalid.end());
    };
    if (!trace) {
        Ctx run;
        run.seed = seed;
        run.budgetS = seconds;
        wl->second(run);
        absorb(run);
        metrics = summarise(run.e2e);
        metrics["peak_rss_mb"] = {peakRssMb(), "MB"};
    } else {
        // Untraced half first, then the traced half of the same budget;
        // their ratio is the tracing overhead.
        Ctx plain;
        plain.seed = seed;
        plain.budgetS = seconds / 2.0;
        wl->second(plain);
        absorb(plain);
        Tracer tracer;
        Ctx run;
        run.seed = seed;
        run.budgetS = seconds / 2.0;
        run.tracer = &tracer;
        wl->second(run);
        probeKernels(run);
        absorb(run);
        metrics = summarise(run.layer);
        // The other workloads' layers, one repetition each. Names they
        // share with the traced workload keep its values.
        for (const auto &[name, fn] : workloads) {
            if (name == wl->first)
                continue;
            Ctx other;
            other.seed = seed;
            other.tracer = &tracer;
            other.strict = false;
            fn(other);
            absorb(other);
            for (const auto &[key, metric] : summarise(other.layer))
                metrics.emplace(key, metric);
        }
        metrics["trace.overhead_ratio"] = {
            perfbench::median(run.overheadBase) /
                perfbench::median(plain.overheadBase),
            "ratio"};
        if (args.count("--trace-out") != 0 &&
            !tracer.writeChromeJson(args["--trace-out"]))
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         args["--trace-out"].c_str());
    }
    for (const std::string &why : invalid)
        std::fprintf(stderr, "perfbench: invalid run: %s\n", why.c_str());
    if (!invalid.empty()) {
        printResult(false, attempted, failed, {});
        return 1;
    }
    printResult(failed == 0, attempted, failed, metrics);
    return failed == 0 ? 0 : 1;
}
