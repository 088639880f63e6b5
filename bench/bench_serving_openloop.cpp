/**
 * @file
 * Open-loop load generator for the network serving front end
 * (docs/serving.md, "Network protocol"): trains a small MLP, serves it
 * over a loopback NetServer, and offers Poisson traffic at a fixed
 * rate from a dedicated sender thread whose sends never wait on
 * responses. Where the closed-loop bench (bench_serving.cpp) can only
 * observe the server at the throughput the *client* sustains, the
 * open-loop harness keeps offering load past saturation — the regime
 * where real serving systems live — and measures what a closed loop
 * structurally cannot: the latency-throughput curve through the knee,
 * tail divergence beyond it, and admission-control behavior under
 * overload.
 *
 * Latency is measured from each request's *scheduled* send time (the
 * Poisson arrival), not the actual write, so sender-side backpressure
 * cannot hide queueing delay — the standard coordinated-omission
 * guard. Scenarios, all over one loopback socket per stream:
 *
 *  - sweep:    one model, offered rate stepped across a ladder scaled
 *              from a measured burst-capacity estimate; beyond the
 *              knee goodput plateaus (admission control rejects the
 *              excess) while the Ok-request p99 diverges from p50;
 *  - fairness: two models, one offered ~3x its fair share, one
 *              lightly loaded; per-model InferenceServers mean the
 *              overloaded model degrades to *its own* rejections and
 *              the light model's goodput tracks its offered rate; a
 *              second table sets each model's server-side counts and
 *              queue p99 (its `serve.*{model=...}` series) next to
 *              the client's;
 *  - slo:      the base model with its quantized sibling as SLO
 *              fallback; overload drives p99 across the SLO and m0's
 *              serve.slo.degrade_enter/exit{model="m0"} counters
 *              record the degrade/restore flapping.
 *
 * Before any load runs, the harness replays a fixed trace both over
 * the wire and against an in-process InferenceServer and asserts the
 * predictions are bit-identical — the net layer must not change
 * answers, only transport them.
 *
 * Every stream attaches a per-request deadline (deadline_us, default
 * 50ms), so overload sheds both ways the serve layer can: queue-full
 * rejections at admission and deadline expiry at dequeue. The Ok
 * latency distribution is therefore the *served* experience — p50
 * near the service time, p99 riding toward the deadline.
 *
 * Results: table + bench_serving_openloop.csv. Knobs: quick=1
 * duration_s=S rate=R (extra sweep point, req/s) deadline_us=D
 * train=N test=N hidden=H batch=B capacity=C (also NEURO_THREADS /
 * NEURO_METRICS, docs/observability.md).
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <future>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "neuro/common/config.h"
#include "neuro/common/csv.h"
#include "neuro/common/logging.h"
#include "neuro/common/rng.h"
#include "neuro/common/table.h"
#include "neuro/core/experiment.h"
#include "neuro/mlp/backprop.h"
#include "neuro/mlp/mlp.h"
#include "neuro/net/client.h"
#include "neuro/net/frontend.h"
#include "neuro/net/protocol.h"
#include "neuro/net/server.h"
#include "neuro/serve/backend.h"
#include "neuro/serve/registry.h"
#include "neuro/serve/server.h"
#include "neuro/telemetry/metrics.h"

namespace {

using namespace neuro;
using Clock = std::chrono::steady_clock;

/** One offered-load stream: Poisson arrivals of one model's traffic
 *  on its own connection. */
struct StreamSpec
{
    std::string model;
    double rateReqS = 0.0;       ///< offered rate (req/s).
    uint32_t deadlineMicros = 0; ///< per-request deadline; 0 = none.
};

/** What one stream measured. */
struct StreamResult
{
    std::string model;
    double offeredReqS = 0.0;
    double wallS = 0.0;
    uint64_t sent = 0;
    uint64_t ok = 0;
    uint64_t rejected = 0;
    uint64_t expired = 0;
    uint64_t other = 0;           ///< bad frame / unknown model.
    std::vector<double> latencyUs; ///< Ok requests, scheduled->done.

    double
    goodputReqS() const
    {
        return wallS > 0.0 ? static_cast<double>(ok) / wallS : 0.0;
    }
};

/** @return the p-th percentile of @p sorted (ascending), 0 if empty. */
double
percentile(const std::vector<double> &sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    const double rank =
        p * static_cast<double>(sorted.size() - 1) / 100.0;
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

/**
 * Run one open-loop stream against the server on @p port: a sender
 * thread paces Poisson arrivals and never reads; a receiver thread
 * reads every response and stamps latency from the request's
 * *scheduled* arrival. The scheduled times cross threads through
 * release/acquire atomics indexed by request id.
 */
StreamResult
runStream(uint16_t port, const StreamSpec &spec, double durationS,
          uint64_t seed, const datasets::Dataset &samples)
{
    StreamResult out;
    out.model = spec.model;
    out.offeredReqS = spec.rateReqS;

    net::NetClient client;
    std::string error;
    if (!client.connect("127.0.0.1", port, &error))
        fatal("open-loop client: %s", error.c_str());

    // Generous bound on how many arrivals the schedule can hold; the
    // sender stops early (and says so) if a run ever outgrows it.
    const auto maxRequests = static_cast<std::size_t>(
        spec.rateReqS * durationS * 2.0 + 1024.0);
    std::vector<std::atomic<int64_t>> scheduledNs(maxRequests);

    const Clock::time_point start = Clock::now();
    const auto durationNs = static_cast<int64_t>(durationS * 1e9);

    std::thread sender([&] {
        Rng rng(seed);
        const double meanGapUs = 1e6 / spec.rateReqS;
        double clockUs = 0.0;
        uint64_t id = 0;
        while (id < maxRequests) {
            clockUs += rng.exponential(meanGapUs);
            const auto atNs = static_cast<int64_t>(clockUs * 1e3);
            if (atNs >= durationNs)
                break;
            const Clock::time_point at =
                start + std::chrono::nanoseconds(atNs);
            std::this_thread::sleep_until(at);
            // Latency anchors to the *scheduled* arrival, so a tardy
            // sender (or a blocking send) cannot mask server queueing.
            scheduledNs[id].store(atNs, std::memory_order_release);
            net::RequestFrame frame;
            frame.id = id;
            frame.streamSeed = deriveStreamSeed(seed, id);
            frame.model = spec.model;
            frame.deadlineMicros = spec.deadlineMicros;
            const datasets::Sample &sample =
                samples[id % samples.size()];
            frame.pixels.assign(sample.pixels.begin(),
                                sample.pixels.end());
            if (!client.sendRequest(frame, nullptr))
                break; // server gone; receiver sees the close.
            ++id;
        }
        if (id == maxRequests)
            warn("open-loop sender hit its %zu-request schedule "
                 "bound before %0.1fs",
                 maxRequests, durationS);
        out.sent = id;
        // Half-close: the server drains and answers everything sent,
        // then closes, which ends the receiver's read loop.
        client.shutdownWrite();
    });

    std::thread receiver([&] {
        net::ResponseFrame response;
        while (client.readResponse(&response, nullptr)) {
            switch (response.status) {
            case net::FrameStatus::Ok: {
                const int64_t schedNs =
                    scheduledNs[response.id].load(
                        std::memory_order_acquire);
                const int64_t nowNs =
                    std::chrono::duration_cast<
                        std::chrono::nanoseconds>(Clock::now() -
                                                  start)
                        .count();
                out.latencyUs.push_back(
                    static_cast<double>(nowNs - schedNs) / 1e3);
                ++out.ok;
                break;
            }
            case net::FrameStatus::Rejected: ++out.rejected; break;
            case net::FrameStatus::Expired: ++out.expired; break;
            default: ++out.other; break;
            }
        }
    });

    sender.join();
    receiver.join();
    out.wallS = std::chrono::duration<double>(Clock::now() - start)
                    .count();
    NEURO_ASSERT(out.ok + out.rejected + out.expired + out.other ==
                     out.sent,
                 "open-loop stream lost responses: sent %llu, got "
                 "%llu",
                 (unsigned long long)out.sent,
                 (unsigned long long)(out.ok + out.rejected +
                                      out.expired + out.other));
    std::sort(out.latencyUs.begin(), out.latencyUs.end());
    return out;
}

/** Burst-capacity estimate: one closed-loop blast of @p n requests
 *  through the wire; goodput of the burst approximates the serving
 *  capacity the sweep ladder is scaled from. */
double
estimateCapacity(uint16_t port, const std::string &model, uint64_t n,
                 uint64_t seed, const datasets::Dataset &samples)
{
    net::NetClient client;
    std::string error;
    if (!client.connect("127.0.0.1", port, &error))
        fatal("capacity probe: %s", error.c_str());
    const Clock::time_point t0 = Clock::now();
    std::thread sender([&] {
        for (uint64_t id = 0; id < n; ++id) {
            net::RequestFrame frame;
            frame.id = id;
            frame.streamSeed = deriveStreamSeed(seed, id);
            frame.model = model;
            const datasets::Sample &sample =
                samples[id % samples.size()];
            frame.pixels.assign(sample.pixels.begin(),
                                sample.pixels.end());
            if (!client.sendRequest(frame, nullptr))
                break;
        }
        client.shutdownWrite();
    });
    uint64_t ok = 0;
    net::ResponseFrame response;
    while (client.readResponse(&response, nullptr)) {
        if (response.status == net::FrameStatus::Ok)
            ++ok;
    }
    sender.join();
    const double wallS =
        std::chrono::duration<double>(Clock::now() - t0).count();
    NEURO_ASSERT(ok > 0, "capacity probe completed no requests");
    return static_cast<double>(ok) / wallS;
}

/**
 * Acceptance gate: the same fixed trace through the wire and through
 * an in-process InferenceServer must predict identical classes — the
 * network layer transports answers, it must never change them.
 */
void
checkWireIdentity(uint16_t port, const std::string &model,
                  const std::shared_ptr<serve::InferenceBackend> &backend,
                  uint64_t n, uint64_t seed,
                  const datasets::Dataset &samples)
{
    std::vector<int32_t> wire(n, -1);
    {
        net::NetClient client;
        std::string error;
        if (!client.connect("127.0.0.1", port, &error))
            fatal("identity probe: %s", error.c_str());
        for (uint64_t id = 0; id < n; ++id) {
            net::RequestFrame frame;
            frame.id = id;
            frame.streamSeed = deriveStreamSeed(seed, id);
            frame.model = model;
            const datasets::Sample &sample =
                samples[id % samples.size()];
            frame.pixels.assign(sample.pixels.begin(),
                                sample.pixels.end());
            if (!client.sendRequest(frame, &error))
                fatal("identity probe send: %s", error.c_str());
        }
        client.shutdownWrite();
        net::ResponseFrame response;
        while (client.readResponse(&response, nullptr)) {
            NEURO_ASSERT(response.status == net::FrameStatus::Ok,
                         "identity probe request %llu was %s",
                         (unsigned long long)response.id,
                         net::frameStatusName(response.status));
            wire[response.id] = response.classIndex;
        }
    }

    serve::InferenceServer local(backend);
    for (uint64_t id = 0; id < n; ++id) {
        serve::InferenceRequest request;
        request.id = id;
        request.streamSeed = deriveStreamSeed(seed, id);
        request.pixels = samples[id % samples.size()].pixels;
        const serve::InferenceResult r =
            local.submit(std::move(request)).get();
        NEURO_ASSERT(r.status == serve::RequestStatus::Ok,
                     "identity probe local request failed");
        NEURO_ASSERT(wire[id] == static_cast<int32_t>(r.classIndex),
                     "wire prediction diverged from in-process "
                     "serving at id %llu: %d vs %d",
                     (unsigned long long)id, (int)wire[id],
                     r.classIndex);
    }
    inform("wire identity: %llu predictions bit-identical to "
           "in-process serving",
           (unsigned long long)n);
}

} // namespace

int
main(int argc, char **argv)
{
    Config cfg;
    cfg.parseArgs(argc, argv);
    const bool quick = cfg.getInt("quick", 0) != 0;
    const double durationS =
        cfg.getDouble("duration_s", quick ? 1.0 : 4.0);
    const auto train =
        static_cast<std::size_t>(cfg.getInt("train", 1000));
    const auto test = static_cast<std::size_t>(cfg.getInt("test", 400));
    // Small batches: a batch is a convoy, and at ~175us/request
    // (hidden=2048) a deep one would put whole-batch compute into
    // every request's p50 and flatten the latency curve the sweep
    // exists to show. Four keeps the floor near the service time.
    const auto maxBatch =
        static_cast<std::size_t>(cfg.getInt("batch", 4));
    // Queue depth sized near the deadline-implied depth (deadline x
    // service rate): shallower and every overload sheds as Rejected
    // at admission before anything can expire; much deeper and the
    // deadline bounds the wait first and the queue never fills. Near
    // parity both mechanisms engage — transient excursions expire,
    // sustained overload also rejects.
    const auto capacity = static_cast<std::size_t>(
        cfg.getInt("capacity", 64));
    // Every stream attaches a per-request deadline, like a real SLO'd
    // client would: beyond the knee the queue sheds its deepest
    // excursions as Expired instead of serving minute-old requests, so
    // the Ok latency distribution is the *served* experience — p50
    // near the service time, p99 riding just under the deadline — and
    // goodput plateaus at what the server can finish in time.
    const auto deadlineMicros = static_cast<uint32_t>(
        cfg.getInt("deadline_us", 50000));
    const uint64_t seed = 2026;

    const core::Workload w = core::makeMnistWorkload(train, test, 1);

    // Unlike bench_serving's tiny model, the open-loop model is
    // deliberately beefy (hidden=256): the *server* must be the
    // bottleneck, not the load generator. With a cheap model on a
    // small box the Poisson sender saturates first and the measured
    // "knee" is the client's — offered load never actually exceeds
    // service capacity and admission control never engages.
    mlp::MlpConfig mlpConfig = core::defaultMlpConfig(w);
    mlpConfig.layerSizes = {w.data.train.inputSize(),
                            static_cast<std::size_t>(
                                cfg.getInt("hidden", 2048)),
                            static_cast<std::size_t>(
                                w.data.train.numClasses())};
    Rng rng(3);
    mlp::Mlp net(mlpConfig, rng);
    {
        mlp::TrainConfig tc;
        tc.epochs = 1;
        mlp::train(net, w.data.train, tc);
    }

    serve::ModelRegistry registry;
    registry.add("m0.q8", serve::makeQuantizedMlpBackend(net));
    registry.add("m1", serve::makeQuantizedMlpBackend(net));
    const std::shared_ptr<serve::InferenceBackend> base =
        serve::makeMlpBackend(std::move(net));
    registry.add("m0", base);

    serve::ServeConfig sc;
    sc.queueCapacity = capacity;
    sc.batch.maxBatch = maxBatch;
    sc.batch.maxWaitMicros = 200;

    CsvWriter csv("bench_serving_openloop.csv",
                  {"scenario", "model", "offered_req_s", "duration_s",
                   "sent", "ok", "rejected", "expired",
                   "goodput_req_s", "p50_us", "p95_us", "p99_us",
                   "max_us", "slo_flaps"});
    TextTable table("open-loop serving: offered load vs goodput and "
                    "tail latency");
    table.setHeader({"Scenario", "Model", "Offered", "Goodput",
                     "Shed%", "p50 (us)", "p99 (us)", "p99/p50"});

    auto report = [&](const char *scenario, const StreamResult &r,
                      uint64_t sloFlaps) {
        const double p50 = percentile(r.latencyUs, 50.0);
        const double p95 = percentile(r.latencyUs, 95.0);
        const double p99 = percentile(r.latencyUs, 99.0);
        const double maxUs =
            r.latencyUs.empty() ? 0.0 : r.latencyUs.back();
        const double shedPct =
            r.sent == 0
                ? 0.0
                : 100.0 *
                      static_cast<double>(r.rejected + r.expired) /
                      static_cast<double>(r.sent);
        table.addRow({scenario, r.model,
                      TextTable::fmt(r.offeredReqS, 0),
                      TextTable::fmt(r.goodputReqS(), 0),
                      TextTable::fmt(shedPct, 1),
                      TextTable::fmt(p50, 0), TextTable::fmt(p99, 0),
                      TextTable::fmt(p50 > 0.0 ? p99 / p50 : 0.0,
                                     1)});
        csv.writeRow(std::vector<std::string>{
            scenario, r.model, TextTable::fmt(r.offeredReqS, 1),
            TextTable::fmt(r.wallS, 2), std::to_string(r.sent),
            std::to_string(r.ok), std::to_string(r.rejected),
            std::to_string(r.expired),
            TextTable::fmt(r.goodputReqS(), 1),
            TextTable::fmt(p50, 1), TextTable::fmt(p95, 1),
            TextTable::fmt(p99, 1), TextTable::fmt(maxUs, 1),
            std::to_string(sloFlaps)});
    };

    // --- capacity probe + wire-identity gate --------------------------
    // The probes are closed-loop blasts; they get a queue deep enough
    // to hold the whole blast so admission control cannot distort
    // either the capacity estimate or the identity check.
    double capacityReqS = 0.0;
    {
        serve::ServeConfig probeConfig = sc;
        probeConfig.queueCapacity = 8192;
        net::ServeFrontend frontend(registry, probeConfig);
        net::NetServer server(frontend);
        std::string error;
        if (!server.start(&error))
            fatal("open-loop server: %s", error.c_str());
        checkWireIdentity(server.port(), "m0", base,
                          quick ? 128 : 256, seed, w.data.test);
        const uint64_t probe = quick ? 1000 : 4000;
        capacityReqS = estimateCapacity(server.port(), "m0", probe,
                                        seed, w.data.test);
        server.stop();
    }
    inform("burst capacity estimate: %.0f req/s", capacityReqS);

    // --- sweep: rate ladder through and past the knee -----------------
    // The burst estimate only bounds capacity from below (on a small
    // box the burst client's own CPU steals from the server), so the
    // ladder is adaptive: after the scripted steps it keeps raising
    // the offered rate until goodput has measurably fallen away from
    // offered for two rows — the sweep is guaranteed to cross the
    // knee, wherever the estimate put it.
    std::vector<double> ladder =
        quick ? std::vector<double>{0.5, 1.0, 1.5}
              : std::vector<double>{0.3, 0.5, 0.7, 0.85, 1.0,
                                    1.15, 1.3, 1.6};
    if (cfg.has("rate"))
        ladder.push_back(cfg.getDouble("rate", 0.0) / capacityReqS);
    std::vector<StreamResult> sweep;
    auto sweepOne = [&](double rateReqS) {
        net::ServeFrontend frontend(registry, sc);
        net::NetServer server(frontend);
        std::string error;
        if (!server.start(&error))
            fatal("open-loop server: %s", error.c_str());
        StreamSpec spec;
        spec.model = "m0";
        spec.rateReqS = rateReqS;
        spec.deadlineMicros = deadlineMicros;
        const StreamResult r = runStream(
            server.port(), spec, durationS, seed + 17, w.data.test);
        server.stop();
        report("sweep", r, 0);
        sweep.push_back(r);
    };
    const std::size_t maxRows = ladder.size() + (quick ? 4 : 8);
    std::size_t saturatedRows = 0;
    for (std::size_t step = 0; step < maxRows; ++step) {
        const double scale = step < ladder.size()
                                 ? ladder[step]
                                 : ladder.back() * 1.45 *
                                       std::pow(1.45, static_cast<double>(
                                                          step -
                                                          ladder.size()));
        sweepOne(capacityReqS * scale);
        const StreamResult &r = sweep.back();
        if (r.goodputReqS() < 0.8 * r.offeredReqS &&
            ++saturatedRows >= 2 && step + 1 >= ladder.size())
            break;
    }

    // Second pass, dense around the measured knee: the coarse pass's
    // best goodput is the empirical capacity (the burst estimate
    // undershoots when the probe client competes for the same cores),
    // and the hockey stick — p50 still near service time, p99 blown
    // up by queue excursions — lives in the band just below and at
    // that capacity. The coarse geometric ladder jumps clean over it.
    double capacityHat = 0.0;
    for (const StreamResult &r : sweep)
        capacityHat = std::max(capacityHat, r.goodputReqS());
    for (const double scale :
         quick ? std::vector<double>{0.95}
               : std::vector<double>{0.85, 0.95, 1.02, 1.1})
        sweepOne(capacityHat * scale);

    // Knee analysis over every sweep row, ordered by offered rate.
    // The knee is where latency turns up: the first rate whose p99
    // exceeds 5x the lightest row's. Beyond it the tail of the
    // requests that still complete Ok diverges from their median,
    // while goodput pins at capacity (the plateau across the rows
    // offered more than the measured capacity).
    std::vector<const StreamResult *> byRate;
    byRate.reserve(sweep.size());
    for (const StreamResult &r : sweep)
        byRate.push_back(&r);
    std::sort(byRate.begin(), byRate.end(),
              [](const StreamResult *a, const StreamResult *b) {
                  return a->offeredReqS < b->offeredReqS;
              });
    const double baseP99 =
        byRate.empty() ? 0.0 : percentile(byRate.front()->latencyUs,
                                          99.0);
    std::size_t knee = byRate.size();
    for (std::size_t i = 0; i < byRate.size(); ++i) {
        if (percentile(byRate[i]->latencyUs, 99.0) > 5.0 * baseP99) {
            knee = i;
            break;
        }
    }
    double beyondKneeRatio = 0.0, plateauLow = 0.0, plateauHigh = 0.0;
    for (std::size_t i = knee; i < byRate.size(); ++i) {
        const double p50 = percentile(byRate[i]->latencyUs, 50.0);
        const double p99 = percentile(byRate[i]->latencyUs, 99.0);
        if (p50 > 0.0)
            beyondKneeRatio =
                std::max(beyondKneeRatio, p99 / p50);
    }
    for (const StreamResult *r : byRate) {
        if (r->offeredReqS < capacityHat)
            continue;
        const double g = r->goodputReqS();
        plateauLow = plateauLow == 0.0 ? g : std::min(plateauLow, g);
        plateauHigh = std::max(plateauHigh, g);
    }

    // --- fairness: overloaded m0 next to lightly loaded m1 ------------
    // Every frontend labels its servers' series with the model name,
    // so the sweep's m0 traffic is still on the books: zero the
    // registry, and the server-side accounting printed next to the
    // client's is this scenario's alone.
    StreamResult fairHeavy, fairLight;
    TextTable fairTable("fairness: client vs server accounting "
                        "(serve.*{model=...})");
    fairTable.setHeader({"Model", "Ok", "Completed", "Rejected",
                         "Srv rejected", "Expired", "Srv expired",
                         "Queue p99 (us)"});
    {
        telemetry::MetricRegistry::instance().resetValues();
        net::ServeFrontend frontend(registry, sc);
        net::NetServer server(frontend);
        std::string error;
        if (!server.start(&error))
            fatal("open-loop server: %s", error.c_str());
        // Rates scale from the sweep's measured capacity, not the
        // burst estimate — the estimate undershoots enough that 1.5x
        // of it can still be *under* the real knee, which would make
        // the "overloaded" stream a healthy one.
        StreamSpec heavy{"m0", capacityHat * 1.5, deadlineMicros};
        StreamSpec light{"m1", capacityHat * 0.15, deadlineMicros};
        std::thread heavyThread([&] {
            fairHeavy = runStream(server.port(), heavy, durationS,
                                  seed + 31, w.data.test);
        });
        fairLight = runStream(server.port(), light, durationS,
                              seed + 32, w.data.test);
        heavyThread.join();
        server.stop();
        report("fairness", fairHeavy, 0);
        report("fairness", fairLight, 0);
        for (const StreamResult *r : {&fairHeavy, &fairLight}) {
            const serve::InferenceServer &model =
                *frontend.server(r->model);
            const serve::ServeCounters c = model.counters();
            auto count = [](uint64_t v) {
                return TextTable::num(static_cast<long long>(v));
            };
            fairTable.addRow(
                {r->model, count(r->ok), count(c.completed),
                 count(r->rejected), count(c.rejected),
                 count(r->expired), count(c.expired),
                 TextTable::fmt(model.stageLatency(serve::Stage::Queue)
                                    .percentile(0.99),
                                0)});
        }
    }

    // --- slo: overload with the q8 sibling as fallback ----------------
    uint64_t sloFlaps = 0;
    {
        // The frontend labels m0's server with its name.
        auto &reg = telemetry::MetricRegistry::instance();
        const auto degradeEnter =
            reg.counter("serve.slo.degrade_enter", "m0");
        const auto degradeExit =
            reg.counter("serve.slo.degrade_exit", "m0");
        const uint64_t enter0 = degradeEnter->value();
        const uint64_t exit0 = degradeExit->value();

        serve::ServeConfig sloConfig = sc;
        sloConfig.sloP99Micros = 2000;
        sloConfig.sloWindow = 64;
        net::ServeFrontend frontend(registry, sloConfig,
                                    {"m0", "m0.q8"});
        net::NetServer server(frontend);
        std::string error;
        if (!server.start(&error))
            fatal("open-loop server: %s", error.c_str());
        StreamSpec spec{"m0", capacityReqS * 1.1, deadlineMicros};
        const StreamResult r = runStream(
            server.port(), spec, durationS, seed + 47, w.data.test);
        server.stop();
        sloFlaps = (degradeEnter->value() - enter0) +
                   (degradeExit->value() - exit0);
        report("slo", r, sloFlaps);
    }

    table.addNote("offered load is Poisson, open loop: sends are "
                  "paced by the schedule, never by responses");
    table.addNote("latency anchors to scheduled arrival times "
                  "(coordinated-omission guard)");
    table.print(std::cout);
    fairTable.addNote("client columns count responses over the wire; "
                      "Srv columns read the model's registry series");
    fairTable.print(std::cout);

    std::cout << "RESULT: burst estimate "
              << TextTable::fmt(capacityReqS, 0)
              << " req/s; goodput plateau "
              << TextTable::fmt(plateauLow, 0) << ".."
              << TextTable::fmt(plateauHigh, 0)
              << " req/s where offered load exceeds measured capacity; ";
    if (knee < byRate.size()) {
        std::cout << "knee at ~"
                  << TextTable::fmt(byRate[knee]->offeredReqS, 0)
                  << " req/s offered, beyond-knee p99/p50 up to "
                  << TextTable::fmt(beyondKneeRatio, 1) << "x";
    } else {
        std::cout << "no knee found within the measured rates (p99 "
                     "stayed within 5x the lightest row's up to "
                  << TextTable::fmt(byRate.empty()
                                        ? 0.0
                                        : byRate.back()->offeredReqS,
                                    0)
                  << " req/s offered)";
    }
    std::cout << "; slo flaps = " << sloFlaps << "\n";
    return 0;
}
