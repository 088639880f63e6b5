/**
 * @file
 * neurocmp — command-line front end to the reproduction library.
 *
 *   neurocmp list
 *   neurocmp accuracy   [train=6000 test=1500]     # Table 3
 *   neurocmp hw         [workload=mnist]           # Table 7 summary
 *   neurocmp sweep      what=neurons|slope|coding  # Figures 8/6/14
 *   neurocmp train-snn  save=model.ncmp [train=N]  # train + save
 *   neurocmp eval-snn   load=model.ncmp [test=N]   # load + evaluate
 *   neurocmp serve      load=model.ncmp [requests=N batch=B]  # serving
 *   neurocmp serve      load=model.ncmp --listen [--port=P]   # network
 *   neurocmp metrics    [format=text|prom|json]    # observability demo
 *
 * All subcommands accept key=value overrides and NEURO_* environment
 * variables; `neurocmp list` shows the mapping to paper experiments.
 * Every subcommand additionally understands --trace=<path> (record a
 * Chrome-trace JSON viewable in Perfetto), --stats-dump (print the
 * metric registry as text at exit) and --metrics=<path>
 * (export the metric registry at exit, Prometheus/JSON/CSV by
 * extension); NEURO_TRACE, NEURO_STATS_DUMP and NEURO_METRICS do the
 * same from the environment — there, and for every bench binary, no
 * flags are needed (see docs/observability.md).
 */

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <deque>
#include <future>
#include <iostream>
#include <thread>

#include "neuro/common/config.h"
#include "neuro/common/logging.h"
#include "neuro/common/parallel.h"
#include "neuro/common/profile.h"
#include "neuro/common/rng.h"
#include "neuro/common/serialize.h"
#include "neuro/common/table.h"
#include "neuro/core/compare.h"
#include "neuro/core/experiment.h"
#include "neuro/core/explorer.h"
#include "neuro/core/reports.h"
#include "neuro/cycle/folded_mlp_sim.h"
#include "neuro/cycle/folded_snn_sim.h"
#include "neuro/kernels/kernels.h"
#include "neuro/mlp/backprop.h"
#include "neuro/net/frontend.h"
#include "neuro/net/server.h"
#include "neuro/serve/registry.h"
#include "neuro/serve/server.h"
#include "neuro/snn/serialize.h"
#include "neuro/telemetry/export.h"
#include "neuro/telemetry/metrics.h"

namespace {

using namespace neuro;

int
cmdList()
{
    std::printf(
        "neurocmp subcommands:\n"
        "  accuracy   Table 3: SNNwt/SNNwot/SNN+BP/MLP+BP accuracies\n"
        "  hw         Table 7: folded/expanded design characteristics\n"
        "  sweep      what=neurons (Fig 8) | slope (Fig 6) | coding "
        "(Fig 14)\n"
        "  train-snn  train SNN+STDP and save to save=<path>\n"
        "  eval-snn   evaluate a saved model from load=<path>\n"
        "  serve      batched inference serving of a saved model:\n"
        "             load=<path> [backend=model|model.q8|model.wot]\n"
        "             [requests=N seed=S batch=B wait_us=U capacity=C\n"
        "             deadline_us=D slo_us=P fallback=0|1 inflight=K]\n"
        "             --listen [--host=A --port=P] serves every backend\n"
        "             over the binary network protocol until SIGINT/\n"
        "             SIGTERM (drains, then exits; docs/serving.md)\n"
        "  metrics    run a small instrumented train + serving + "
        "folded-sim\n"
        "             demo and print the metric registry\n"
        "             [format=text|prom|json, default prom]\n"
        "common options: train=N test=N workload=mnist|mpeg7|sad, and\n"
        "NEURO_SCALE / NEURO_MNIST_DIR environment variables.\n"
        "observability (all subcommands): --trace=<out.json> records a\n"
        "Chrome trace (Perfetto); --stats-dump prints the metric\n"
        "registry as text at exit; --metrics=<path> exports it\n"
        "at exit (.prom/.json/.csv by extension); NEURO_TRACE /\n"
        "NEURO_STATS_DUMP / NEURO_METRICS do the same for any binary,\n"
        "benches included (docs/observability.md).\n"
        "parallelism: --threads=N (or NEURO_THREADS) sets the worker\n"
        "pool width; 1 = fully serial, default = all hardware threads.\n"
        "results are identical at any setting (docs/parallelism.md).\n"
        "simd: --simd=auto|off|avx2|avx512 (or NEURO_SIMD) picks the\n"
        "vector kernel table; results are bit-identical at every level\n"
        "(docs/kernels.md).\n"
        "for the full per-table reproduction, run the bench/ binaries.\n");
    return 0;
}

core::Workload
loadWorkload(const Config &cfg)
{
    const std::string name = cfg.getString("workload", "mnist");
    const auto train =
        static_cast<std::size_t>(cfg.getInt("train", 4000));
    const auto test = static_cast<std::size_t>(cfg.getInt("test", 1000));
    if (name == "mpeg7")
        return core::makeMpeg7Workload(train, test, 2);
    if (name == "sad")
        return core::makeSadWorkload(train, test, 3);
    if (name != "mnist")
        fatal("unknown workload '%s' (mnist|mpeg7|sad)", name.c_str());
    return core::makeMnistWorkload(train, test, 1);
}

int
cmdAccuracy(const Config &cfg)
{
    const core::Workload w = loadWorkload(cfg);
    const auto results = core::runAccuracyComparison(w, 77);
    TextTable table("accuracy comparison (" + w.name + ")");
    table.setHeader({"Model", "Accuracy"});
    table.addRow({"SNN+STDP (SNNwt)", TextTable::pct(results.snnWt)});
    table.addRow({"SNN+STDP (SNNwot)", TextTable::pct(results.snnWot)});
    table.addRow({"SNN+BP", TextTable::pct(results.snnBp)});
    table.addRow({"MLP+BP", TextTable::pct(results.mlpBp)});
    table.print(std::cout);
    return 0;
}

int
cmdHw(const Config &cfg)
{
    const core::Workload w = loadWorkload(cfg);
    const auto rows = core::makeTable7Rows(w.mlpTopo, w.snnTopo);
    core::printDesignRows(std::cout,
                          "design characteristics (" + w.name + ")",
                          rows);
    return 0;
}

int
cmdSweep(const Config &cfg)
{
    const core::Workload w = loadWorkload(cfg);
    const std::string what = cfg.getString("what", "neurons");
    TextTable table("sweep: " + what);
    if (what == "neurons") {
        table.setHeader({"Model", "Neurons", "Accuracy"});
        for (const auto &p :
             core::sweepMlpHidden(w, {10, 25, 50, 100}, 21)) {
            table.addRow({"MLP", TextTable::fmt(p.parameter, 0),
                          TextTable::pct(p.accuracy)});
        }
        for (const auto &p :
             core::sweepSnnNeurons(w, {10, 50, 100, 300}, 22)) {
            table.addRow({"SNN", TextTable::fmt(p.parameter, 0),
                          TextTable::pct(p.accuracy)});
        }
    } else if (what == "slope") {
        table.setHeader({"Slope a", "Error rate"});
        for (const auto &p :
             core::sweepSigmoidSlope(w, {1, 2, 4, 8, 16}, 23)) {
            table.addRow({p.parameter == 0 ? "step"
                                           : TextTable::fmt(p.parameter,
                                                            0),
                          TextTable::pct(1.0 - p.accuracy)});
        }
    } else if (what == "coding") {
        table.setHeader({"Scheme", "Neurons", "Accuracy"});
        for (const auto &p : core::sweepCodingSchemes(
                 w,
                 {snn::CodingScheme::RatePoisson,
                  snn::CodingScheme::RankOrder},
                 {50, 300}, 24)) {
            table.addRow(
                {snn::codingSchemeName(p.scheme),
                 TextTable::num(static_cast<long long>(p.neurons)),
                 TextTable::pct(p.accuracy)});
        }
    } else {
        fatal("unknown sweep '%s' (neurons|slope|coding)", what.c_str());
    }
    table.print(std::cout);
    return 0;
}

int
cmdTrainSnn(const Config &cfg)
{
    const std::string path = cfg.getString("save", "");
    if (path.empty())
        fatal("train-snn needs save=<path>");
    const core::Workload w = loadWorkload(cfg);
    const snn::SnnConfig config =
        core::defaultSnnConfig(w, w.data.train.size());
    Rng rng(7);
    snn::SnnNetwork net(config, rng);
    snn::SnnStdpTrainer trainer(config);
    snn::SnnTrainConfig train;
    train.epochs = scaled(3, 1);
    trainer.train(net, w.data.train, train,
                  [](const snn::SnnEpochReport &r) {
                      inform("epoch %zu: %zu output spikes, %zu silent "
                             "images",
                             r.epoch, r.outputSpikes, r.silentImages);
                  });
    const auto labels = trainer.labelNeurons(net, w.data.train,
                                             snn::EvalMode::Wt, 9);
    Archive archive;
    snn::saveSnn(net, labels, archive);
    if (!archive.save(path))
        fatal("cannot write '%s'", path.c_str());
    const auto result =
        trainer.evaluate(net, labels, w.data.test, snn::EvalMode::Wt, 10);
    std::printf("trained %zu-neuron SNN: %.2f%% test accuracy, saved "
                "to %s\n",
                config.numNeurons, result.accuracy * 100.0,
                path.c_str());
    return 0;
}

/**
 * Tiny closed-loop serving burst: trains a small MLP on the workload
 * and pushes @p requests through an InferenceServer so the `serve.*`
 * counters, gauges and stage histograms (and the serve/batch scope)
 * all carry data. @return requests completed Ok.
 */
uint64_t
runServeDemo(const core::Workload &w, uint64_t requests)
{
    mlp::MlpConfig mlpConfig = core::defaultMlpConfig(w);
    mlpConfig.layerSizes = {w.data.train.inputSize(), 16,
                            static_cast<std::size_t>(
                                w.data.train.numClasses())};
    Rng rng(3);
    mlp::Mlp net(mlpConfig, rng);
    mlp::TrainConfig tc;
    tc.epochs = 1;
    mlp::train(net, w.data.train, tc);
    const std::shared_ptr<serve::InferenceBackend> backend =
        serve::makeMlpBackend(std::move(net));

    serve::ServeConfig sc;
    sc.batch.maxBatch = 16;
    serve::InferenceServer server(backend, sc);
    uint64_t ok = 0;
    std::deque<std::future<serve::InferenceResult>> pending;
    auto consumeOne = [&] {
        if (pending.front().get().status == serve::RequestStatus::Ok)
            ++ok;
        pending.pop_front();
    };
    for (uint64_t id = 0; id < requests; ++id) {
        serve::InferenceRequest request;
        request.id = id;
        request.pixels = w.data.test[id % w.data.test.size()].pixels;
        request.streamSeed = deriveStreamSeed(55, id);
        pending.push_back(server.submit(std::move(request)));
        while (pending.size() >= 64)
            consumeOne();
    }
    while (!pending.empty())
        consumeOne();
    server.stop();
    return ok;
}

/**
 * Observability self-demo: a short instrumented SNN+STDP train/eval, an
 * MLP epoch, a serving burst, and one folded-schedule simulation of
 * each design, then the metric registry printed to stdout through the
 * requested exporter (format=text|prom|json) — the quickest way to
 * see every signal the library records and what NEURO_STATS_DUMP /
 * NEURO_METRICS would write (docs/observability.md). With
 * --trace=<path> the same run produces a Chrome trace of all the
 * scopes it exercised.
 */
int
cmdMetrics(const Config &cfg)
{
    Config demo = cfg;
    if (!cfg.has("train"))
        demo.set("train", "300");
    if (!cfg.has("test"))
        demo.set("test", "80");
    const std::string format = demo.getString("format", "prom");
    if (format != "text" && format != "prom" && format != "json")
        fatal("unknown format '%s' (text|prom|json)", format.c_str());
    const core::Workload w = loadWorkload(demo);

    {
        NEURO_PROFILE_SCOPE("cli/metrics/snn");
        const snn::SnnConfig config =
            core::defaultSnnConfig(w, w.data.train.size());
        Rng rng(7);
        snn::SnnNetwork net(config, rng);
        snn::SnnStdpTrainer trainer(config);
        snn::SnnTrainConfig train;
        train.epochs = 1;
        trainer.train(net, w.data.train, train);
        const auto labels = trainer.labelNeurons(net, w.data.train,
                                                 snn::EvalMode::Wt, 9);
        trainer.evaluate(net, labels, w.data.test, snn::EvalMode::Wt, 10);
    }
    {
        NEURO_PROFILE_SCOPE("cli/metrics/mlp");
        mlp::MlpConfig config;
        config.layerSizes = {w.mlpTopo.inputs, w.mlpTopo.hidden,
                             w.mlpTopo.outputs};
        mlp::TrainConfig train;
        train.epochs = 1;
        mlp::trainAndEvaluate(config, train, w.data.train, w.data.test,
                              13);
    }
    {
        NEURO_PROFILE_SCOPE("cli/metrics/serve");
        const auto requests =
            static_cast<uint64_t>(demo.getInt("requests", 400));
        const uint64_t ok = runServeDemo(w, requests);
        inform("metrics demo: %llu/%llu requests served",
               (unsigned long long)ok, (unsigned long long)requests);
    }
    {
        NEURO_PROFILE_SCOPE("cli/metrics/cycle");
        cycle::simulateFoldedMlp(w.mlpTopo, 16);
        cycle::simulateFoldedSnnWot(w.snnTopo, 16);
    }

    const telemetry::MetricsSnapshot snap =
        telemetry::MetricRegistry::instance().snapshot();
    if (format == "text")
        telemetry::writeText(snap, std::cout);
    else if (format == "json")
        telemetry::writeJson(snap, std::cout);
    else
        telemetry::writePrometheus(snap, std::cout);
    return 0;
}

int
cmdEvalSnn(const Config &cfg)
{
    const std::string path = cfg.getString("load", "");
    if (path.empty())
        fatal("eval-snn needs load=<path>");
    Archive archive;
    if (!archive.load(path))
        fatal("cannot read model: %s", archive.lastError().c_str());
    auto model = snn::loadSnn(archive);
    if (!model)
        fatal("'%s' is not a saved SNN model", path.c_str());
    const core::Workload w = loadWorkload(cfg);
    NEURO_ASSERT(w.data.test.inputSize() ==
                     model->network.config().numInputs,
                 "model/workload input-size mismatch");
    snn::SnnStdpTrainer trainer(model->network.config());
    const auto result = trainer.evaluate(
        model->network, model->labels, w.data.test, snn::EvalMode::Wt,
        11);
    std::printf("%s on %s test set: %.2f%% accuracy (%zu fallback "
                "readouts)\n",
                path.c_str(), w.name.c_str(), result.accuracy * 100.0,
                result.silent);
    return 0;
}

/** The server `serve --listen` parks on, for the signal handler. */
std::atomic<net::NetServer *> gListenServer{nullptr};
volatile std::sig_atomic_t gStopSignal = 0;

/**
 * SIGINT/SIGTERM handler of `serve --listen`. Only async-signal-safe
 * work happens here: record the signal and ask the server to stop
 * (an atomic store plus an eventfd write). The main thread observes
 * stopRequested(), runs the full drain — stop accepting, drain every
 * model queue, flush outboxes — and then *returns from main*, so the
 * registered observability exit hooks (metrics export, stats dump,
 * trace finalize) run exactly as on a normal exit.
 */
extern "C" void
handleStopSignal(int sig)
{
    gStopSignal = sig;
    net::NetServer *server =
        gListenServer.load(std::memory_order_relaxed);
    if (server != nullptr)
        server->requestStop();
}

/**
 * `serve --listen`: serve every backend of the checkpoint over the
 * binary network protocol (docs/serving.md, "Network protocol") until
 * SIGINT/SIGTERM, then drain and report.
 */
int
cmdServeListen(const Config &cfg, serve::ModelRegistry &registry,
               const serve::ServeConfig &sc)
{
    net::ServeFrontend frontend(registry, sc);
    net::NetServerConfig nc;
    nc.host = cfg.getString("host", "127.0.0.1");
    nc.port = static_cast<uint16_t>(cfg.getInt("port", 7411));
    net::NetServer server(frontend, nc);
    std::string error;
    if (!server.start(&error))
        fatal("cannot listen on %s:%d: %s", nc.host.c_str(),
              static_cast<int>(nc.port), error.c_str());

    gListenServer.store(&server, std::memory_order_release);
    std::signal(SIGINT, handleStopSignal);
    std::signal(SIGTERM, handleStopSignal);

    std::string models;
    for (const std::string &name : frontend.models())
        models += (models.empty() ? "" : ", ") + name;
    inform("serving %s on %s:%u (Ctrl-C to drain and exit)",
           models.c_str(), nc.host.c_str(),
           static_cast<unsigned>(server.port()));

    while (!server.stopRequested())
        std::this_thread::sleep_for(std::chrono::milliseconds(100));

    inform("signal %d: draining...", static_cast<int>(gStopSignal));
    server.stop(); // close doors, drain queues, flush outboxes.
    std::signal(SIGINT, SIG_DFL);
    std::signal(SIGTERM, SIG_DFL);
    gListenServer.store(nullptr, std::memory_order_release);

    TextTable table("serving summary (network)");
    table.setHeader({"Model", "Completed", "Rejected", "Expired"});
    for (const std::string &name : frontend.models()) {
        const serve::ServeCounters c =
            frontend.server(name)->counters();
        table.addRow({name,
                      TextTable::num(
                          static_cast<long long>(c.completed)),
                      TextTable::num(
                          static_cast<long long>(c.rejected)),
                      TextTable::num(
                          static_cast<long long>(c.expired))});
    }
    table.print(std::cout);
    // Normal return: the observability exit hooks flush metrics,
    // stats and traces (common/profile.h).
    return 0;
}

/**
 * Closed-loop serving demo: load a checkpoint into the model registry,
 * stand up the micro-batching server over the chosen backend, replay
 * the workload's test set as a request trace with a bounded number of
 * requests in flight, and report throughput, latency percentiles and
 * the serving counters (docs/serving.md). With --listen the registry
 * is served over TCP instead (cmdServeListen).
 */
int
cmdServe(const Config &cfg)
{
    const std::string path = cfg.getString("load", "");
    if (path.empty())
        fatal("serve needs load=<path> (e.g. from train-snn save=...)");

    serve::ModelRegistry registry;
    std::string error;
    if (registry.loadFile("model", path, &error).empty())
        fatal("cannot serve model: %s", error.c_str());

    serve::ServeConfig listenConfig;
    listenConfig.queueCapacity =
        static_cast<std::size_t>(cfg.getInt("capacity", 1024));
    listenConfig.batch.maxBatch =
        static_cast<std::size_t>(cfg.getInt("batch", 8));
    listenConfig.batch.maxWaitMicros = cfg.getInt("wait_us", 200);
    listenConfig.sloP99Micros = cfg.getInt("slo_us", 0);
    listenConfig.enableFallback = cfg.getInt("fallback", 0) != 0;
    if (cfg.getInt("listen", 0) != 0)
        return cmdServeListen(cfg, registry, listenConfig);

    const std::string backendName = cfg.getString("backend", "model");
    std::shared_ptr<serve::InferenceBackend> backend =
        registry.find(backendName);
    if (backend == nullptr) {
        std::string known;
        for (const std::string &n : registry.names())
            known += (known.empty() ? "" : ", ") + n;
        fatal("unknown backend '%s' (this checkpoint provides: %s)",
              backendName.c_str(), known.c_str());
    }

    const core::Workload w = loadWorkload(cfg);
    NEURO_ASSERT(w.data.test.inputSize() == backend->inputSize(),
                 "model expects %zu pixels, %s test images have %zu",
                 backend->inputSize(), w.name.c_str(),
                 w.data.test.inputSize());

    const serve::ServeConfig sc = listenConfig;

    // The fallback is the checkpoint's cheaper sibling backend: the
    // first registered name that isn't the primary (model.wot for an
    // SNN primary, model.q8 for an MLP one, "model" otherwise).
    std::shared_ptr<serve::InferenceBackend> fallback;
    if (sc.enableFallback) {
        for (const std::string &n : registry.names()) {
            if (n != backendName) {
                fallback = registry.find(n);
                inform("serve: SLO fallback backend is '%s'", n.c_str());
                break;
            }
        }
        if (fallback == nullptr)
            fatal("fallback=1 but the checkpoint provides no second "
                  "backend");
    }

    const auto requests =
        static_cast<uint64_t>(cfg.getInt("requests", 2000));
    const auto seed = static_cast<uint64_t>(cfg.getInt("seed", 99));
    const long deadlineUs = cfg.getInt("deadline_us", 0);
    const auto inflight = static_cast<std::size_t>(cfg.getInt(
        "inflight", static_cast<long>(4 * sc.batch.maxBatch)));

    serve::InferenceServer server(backend, sc, fallback);
    uint64_t ok = 0, rejected = 0, expired = 0;
    std::deque<std::future<serve::InferenceResult>> pending;
    auto consumeOne = [&] {
        const serve::InferenceResult r = pending.front().get();
        pending.pop_front();
        switch (r.status) {
        case serve::RequestStatus::Ok: ++ok; break;
        case serve::RequestStatus::Rejected: ++rejected; break;
        case serve::RequestStatus::Expired: ++expired; break;
        }
    };

    const auto t0 = serve::ServeClock::now();
    for (uint64_t id = 0; id < requests; ++id) {
        serve::InferenceRequest request;
        request.id = id;
        request.pixels =
            w.data.test[id % w.data.test.size()].pixels;
        request.streamSeed = deriveStreamSeed(seed, id);
        if (deadlineUs > 0)
            request.deadline = serve::ServeClock::now() +
                               std::chrono::microseconds(deadlineUs);
        pending.push_back(server.submit(std::move(request)));
        while (pending.size() >= inflight)
            consumeOne();
    }
    while (!pending.empty())
        consumeOne();
    server.stop();
    const double wallS = std::chrono::duration<double>(
                             serve::ServeClock::now() - t0)
                             .count();

    const serve::ServeCounters counters = server.counters();
    const telemetry::LatencyHistogram::Summary lat =
        server.latency().summary();
    TextTable table("serving summary (" + backendName + " on " + w.name +
                    ")");
    table.setHeader({"Metric", "Value"});
    table.addRow({"requests", TextTable::num(
                                  static_cast<long long>(requests))});
    table.addRow({"completed",
                  TextTable::num(static_cast<long long>(ok))});
    table.addRow({"rejected",
                  TextTable::num(static_cast<long long>(rejected))});
    table.addRow({"expired",
                  TextTable::num(static_cast<long long>(expired))});
    table.addRow({"batches", TextTable::num(static_cast<long long>(
                                 counters.batches))});
    table.addRow(
        {"avg batch",
         TextTable::fmt(counters.batches == 0
                            ? 0.0
                            : static_cast<double>(counters.completed +
                                                  counters.expired) /
                                  static_cast<double>(counters.batches),
                        2)});
    table.addRow({"throughput (req/s)",
                  TextTable::fmt(static_cast<double>(ok) / wallS, 1)});
    table.addRow({"p50 (us)", TextTable::fmt(lat.p50Us, 0)});
    table.addRow({"p95 (us)", TextTable::fmt(lat.p95Us, 0)});
    table.addRow({"p99 (us)", TextTable::fmt(lat.p99Us, 0)});
    table.addRow({"max (us)", TextTable::fmt(lat.maxUs, 0)});
    table.addRow({"fallback served",
                  TextTable::num(static_cast<long long>(
                      counters.fallbacks))});
    table.print(std::cout);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Config cfg;
    cfg.parseEnv();
    cfg.parseArgs(argc, argv);
    initObservability(cfg);
    initParallel(cfg);
    kernels::initKernels(cfg);
    const char *cmd = argc > 1 ? argv[1] : "list";

    if (std::strcmp(cmd, "list") == 0 || std::strcmp(cmd, "help") == 0)
        return cmdList();
    if (std::strcmp(cmd, "accuracy") == 0)
        return cmdAccuracy(cfg);
    if (std::strcmp(cmd, "hw") == 0)
        return cmdHw(cfg);
    if (std::strcmp(cmd, "sweep") == 0)
        return cmdSweep(cfg);
    if (std::strcmp(cmd, "train-snn") == 0)
        return cmdTrainSnn(cfg);
    if (std::strcmp(cmd, "eval-snn") == 0)
        return cmdEvalSnn(cfg);
    if (std::strcmp(cmd, "serve") == 0)
        return cmdServe(cfg);
    if (std::strcmp(cmd, "metrics") == 0)
        return cmdMetrics(cfg);
    warn("unknown subcommand '%s'", cmd);
    return cmdList();
}
