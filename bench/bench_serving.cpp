/**
 * @file
 * Closed-loop load generator for the serving runtime (docs/serving.md):
 * trains a small MLP, then replays a fixed request trace against an
 * InferenceServer in two modes —
 *
 *  - single: one request in flight, maxBatch=1 (a classic
 *    request-per-call RPC loop); every request pays the full
 *    submit/dispatch/complete round trip alone;
 *  - batched: a deep closed loop (inflight >> maxBatch) so the
 *    micro-batcher always has a backlog and every dispatcher wakeup
 *    amortizes across a full batch fanned out over the worker pool.
 *
 * Both modes run at 1 and 4 worker threads and report throughput plus
 * p50/p95/p99 latency as a table and bench_serving.csv. End-to-end
 * latency is also decomposed into the pipeline stages tracked by the
 * telemetry layer — queue (admission -> dequeue), batch (dequeue ->
 * compute start) and compute (backend -> completion) — with per-stage
 * percentiles in a second table and in the CSV. The trace is fixed
 * (seeded stream seeds per request id), and the bench aborts if any
 * mode/worker combination disagrees with the first run's predictions
 * — the serving determinism contract, checked end to end.
 *
 * Knobs: requests=N train=N test=N hidden=H batch=B inflight=K
 * threads=a,b quick=1 (also NEURO_SCALE / NEURO_THREADS; set
 * NEURO_METRICS=<path> to export the metric registry at exit,
 * docs/observability.md).
 */

#include <chrono>
#include <cstdint>
#include <deque>
#include <future>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "neuro/common/config.h"
#include "neuro/common/csv.h"
#include "neuro/common/logging.h"
#include "neuro/common/parallel.h"
#include "neuro/common/rng.h"
#include "neuro/common/table.h"
#include "neuro/core/experiment.h"
#include "neuro/mlp/backprop.h"
#include "neuro/mlp/mlp.h"
#include "neuro/serve/backend.h"
#include "neuro/serve/server.h"
#include "neuro/telemetry/histogram.h"

namespace {

using namespace neuro;

struct RunResult
{
    double wallS = 0.0;
    uint64_t completed = 0;
    uint64_t batches = 0;
    telemetry::LatencyHistogram::Summary lat;
    telemetry::LatencyHistogram::Summary stageQueue;
    telemetry::LatencyHistogram::Summary stageBatch;
    telemetry::LatencyHistogram::Summary stageCompute;
    std::vector<int> classes; ///< per-request predictions (trace order).

    double throughput() const
    {
        return wallS > 0.0 ? static_cast<double>(completed) / wallS : 0.0;
    }
};

/**
 * Replay @p requests test-set samples with @p inflight outstanding,
 * on a server labeled @p model. Every run has its own label, so the
 * server's registry series (counters, latency and stage histograms)
 * hold that run's numbers alone, and a NEURO_METRICS export keeps
 * each run as its own `serve.*{model="<mode>.t<workers>"}` series.
 */
RunResult
runTrace(const std::shared_ptr<serve::InferenceBackend> &backend,
         const std::string &model, const datasets::Dataset &test,
         uint64_t requests, std::size_t maxBatch, std::size_t inflight,
         uint64_t seed, bool traceRequests = false)
{
    serve::ServeConfig sc;
    sc.queueCapacity = inflight + maxBatch; // closed loop never rejects.
    sc.batch.maxBatch = maxBatch;
    sc.batch.maxWaitMicros = 200;
    sc.traceRequests = traceRequests;
    serve::InferenceServer server(backend, sc, nullptr, model);

    RunResult out;
    out.classes.assign(requests, -1);
    std::deque<std::future<serve::InferenceResult>> pending;
    auto consumeOne = [&] {
        const serve::InferenceResult r = pending.front().get();
        pending.pop_front();
        NEURO_ASSERT(r.status == serve::RequestStatus::Ok,
                     "closed-loop request %llu was %s",
                     (unsigned long long)r.id,
                     serve::requestStatusName(r.status));
        out.classes[r.id] = r.classIndex;
    };

    // On a full window, block once on a future deep in the queue and
    // then drain the chunk: waiting on the oldest future instead would
    // wake the client at the dispatcher's first set_value and ping-pong
    // the two threads once per request (results complete in submission
    // order, so the deeper future is always the later one).
    const std::size_t drainChunk = inflight > 1 ? inflight / 2 : 1;
    const auto t0 = serve::ServeClock::now();
    for (uint64_t id = 0; id < requests; ++id) {
        serve::InferenceRequest request;
        request.id = id;
        request.pixels = test[id % test.size()].pixels;
        request.streamSeed = deriveStreamSeed(seed, id);
        pending.push_back(server.submit(std::move(request)));
        if (pending.size() >= inflight) {
            pending[drainChunk - 1].wait();
            for (std::size_t k = 0; k < drainChunk; ++k)
                consumeOne();
        }
    }
    while (!pending.empty())
        consumeOne();
    out.wallS = std::chrono::duration<double>(serve::ServeClock::now() -
                                              t0)
                    .count();
    server.stop();
    out.completed = server.counters().completed;
    out.batches = server.counters().batches;
    out.lat = server.latency().summary();
    out.stageQueue = server.stageLatency(serve::Stage::Queue).summary();
    out.stageBatch = server.stageLatency(serve::Stage::Batch).summary();
    out.stageCompute =
        server.stageLatency(serve::Stage::Compute).summary();
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    Config cfg;
    cfg.parseEnv();
    cfg.parseArgs(argc, argv);
    const bool quick = cfg.getInt("quick", 0) != 0;
    const auto requests = static_cast<uint64_t>(
        cfg.getInt("requests", quick ? 1500 : 24000));
    const auto train =
        static_cast<std::size_t>(cfg.getInt("train", 1000));
    const auto test = static_cast<std::size_t>(cfg.getInt("test", 400));
    const auto maxBatch =
        static_cast<std::size_t>(cfg.getInt("batch", 256));
    const auto inflight = static_cast<std::size_t>(
        cfg.getInt("inflight", static_cast<long>(4 * maxBatch)));
    // Per-request async spans in the Chrome trace (needs --trace=).
    const bool traceRequests = cfg.getInt("trace_requests", 0) != 0;

    const core::Workload w = core::makeMnistWorkload(train, test, 1);

    // A compact serving model: large enough to classify, small enough
    // that per-request serving overhead is visible next to the math —
    // that is exactly the regime micro-batching exists for.
    mlp::MlpConfig mlpConfig = core::defaultMlpConfig(w);
    mlpConfig.layerSizes = {w.data.train.inputSize(),
                            static_cast<std::size_t>(
                                cfg.getInt("hidden", 32)),
                            static_cast<std::size_t>(
                                w.data.train.numClasses())};
    Rng rng(3);
    mlp::Mlp net(mlpConfig, rng);
    {
        mlp::TrainConfig tc;
        tc.epochs = 1;
        mlp::train(net, w.data.train, tc);
    }
    const std::shared_ptr<serve::InferenceBackend> backend =
        serve::makeMlpBackend(std::move(net));

    std::vector<std::size_t> threadCounts = {1, 4};
    if (cfg.has("threads")) {
        threadCounts.clear();
        const std::string list = cfg.getString("threads", "");
        std::size_t pos = 0;
        while (pos < list.size()) {
            const std::size_t comma = list.find(',', pos);
            const std::string item =
                list.substr(pos, comma == std::string::npos
                                     ? std::string::npos
                                     : comma - pos);
            if (!item.empty())
                threadCounts.push_back(
                    static_cast<std::size_t>(std::stoul(item)));
            if (comma == std::string::npos)
                break;
            pos = comma + 1;
        }
        NEURO_ASSERT(!threadCounts.empty(), "threads= list is empty");
    }

    inform("serving bench: %llu requests over %zu test images, "
           "mlp %zu-%zu-%zu, batch=%zu inflight=%zu",
           (unsigned long long)requests, w.data.test.size(),
           mlpConfig.layerSizes[0], mlpConfig.layerSizes[1],
           mlpConfig.layerSizes[2], maxBatch, inflight);

    TextTable table("serving throughput: batched vs single-request");
    table.setHeader({"Mode", "Workers", "Req/s", "p50 (us)", "p95 (us)",
                     "p99 (us)", "Speedup"});
    TextTable stageTable(
        "per-stage latency decomposition (serve.stage.*)");
    stageTable.setHeader({"Mode", "Workers", "Stage", "p50 (us)",
                          "p95 (us)", "p99 (us)"});
    CsvWriter csv("bench_serving.csv",
                  {"mode", "workers", "max_batch", "inflight",
                   "requests", "throughput_req_s", "p50_us", "p95_us",
                   "p99_us", "speedup_vs_single", "queue_p50_us",
                   "queue_p95_us", "queue_p99_us", "batch_p50_us",
                   "batch_p95_us", "batch_p99_us", "compute_p50_us",
                   "compute_p95_us", "compute_p99_us"});

    const uint64_t seed = 99;
    std::vector<int> reference;
    double batchedOverSingleAt4 = 0.0;
    for (const std::size_t workers : threadCounts) {
        setParallelThreadCount(workers);
        // Warm-up pass (pool spin-up, page cache) then the timed runs.
        const std::string suffix = ".t" + std::to_string(workers);
        runTrace(backend, "warmup" + suffix, w.data.test,
                 std::min<uint64_t>(requests, 256), maxBatch, inflight,
                 seed);
        const RunResult single =
            runTrace(backend, "single" + suffix, w.data.test, requests, 1,
                     1, seed, traceRequests);
        const RunResult batched =
            runTrace(backend, "batched" + suffix, w.data.test, requests,
                     maxBatch, inflight, seed, traceRequests);

        if (reference.empty())
            reference = single.classes;
        for (const RunResult *r : {&single, &batched}) {
            NEURO_ASSERT(r->classes == reference,
                         "serving results diverged from the first run "
                         "at %zu workers",
                         workers);
        }

        const double speedup =
            batched.throughput() / single.throughput();
        if (workers == 4)
            batchedOverSingleAt4 = speedup;
        struct Row
        {
            const char *mode;
            const RunResult *r;
            std::size_t maxBatch;
            std::size_t inflight;
            double speedup;
        };
        const Row rows[] = {{"single", &single, 1, 1, 1.0},
                            {"batched", &batched, maxBatch, inflight,
                             speedup}};
        for (const Row &row : rows) {
            table.addRow(
                {row.mode,
                 TextTable::num(static_cast<long long>(workers)),
                 TextTable::fmt(row.r->throughput(), 1),
                 TextTable::fmt(row.r->lat.p50Us, 0),
                 TextTable::fmt(row.r->lat.p95Us, 0),
                 TextTable::fmt(row.r->lat.p99Us, 0),
                 TextTable::fmt(row.speedup, 2)});
            const std::pair<const char *,
                            const telemetry::LatencyHistogram::Summary *>
                stages[] = {{"queue", &row.r->stageQueue},
                            {"batch", &row.r->stageBatch},
                            {"compute", &row.r->stageCompute}};
            for (const auto &[stageName, stage] : stages) {
                stageTable.addRow(
                    {row.mode,
                     TextTable::num(static_cast<long long>(workers)),
                     stageName, TextTable::fmt(stage->p50Us, 0),
                     TextTable::fmt(stage->p95Us, 0),
                     TextTable::fmt(stage->p99Us, 0)});
            }
            csv.writeRow(std::vector<std::string>{
                row.mode, std::to_string(workers),
                std::to_string(row.maxBatch),
                std::to_string(row.inflight),
                std::to_string(requests),
                TextTable::fmt(row.r->throughput(), 1),
                TextTable::fmt(row.r->lat.p50Us, 0),
                TextTable::fmt(row.r->lat.p95Us, 0),
                TextTable::fmt(row.r->lat.p99Us, 0),
                TextTable::fmt(row.speedup, 2),
                TextTable::fmt(row.r->stageQueue.p50Us, 0),
                TextTable::fmt(row.r->stageQueue.p95Us, 0),
                TextTable::fmt(row.r->stageQueue.p99Us, 0),
                TextTable::fmt(row.r->stageBatch.p50Us, 0),
                TextTable::fmt(row.r->stageBatch.p95Us, 0),
                TextTable::fmt(row.r->stageBatch.p99Us, 0),
                TextTable::fmt(row.r->stageCompute.p50Us, 0),
                TextTable::fmt(row.r->stageCompute.p95Us, 0),
                TextTable::fmt(row.r->stageCompute.p99Us, 0)});
        }
    }
    setParallelThreadCount(1);

    table.addNote("single = maxBatch 1, one request in flight; batched "
                  "= deep closed loop, dispatcher amortized per batch");
    table.addNote("identical predictions across every mode and worker "
                  "count (fixed trace, per-request stream seeds)");
    table.print(std::cout);
    stageTable.addNote("queue + batch + compute ~= end-to-end latency "
                       "(per-request, docs/observability.md)");
    stageTable.print(std::cout);
    std::cout << "RESULT: batched/single speedup at 4 workers = "
              << TextTable::fmt(batchedOverSingleAt4, 2) << "x\n";
    return 0;
}
