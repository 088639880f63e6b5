// Tests for the serving runtime: micro-batcher timing/coalescing,
// admission control, deadline expiry, shutdown draining, SLO-driven
// fallback, registry round trips, and the determinism contract — a
// fixed request trace yields bit-identical predictions at any worker
// count, including strip-kernel vs scalar-path agreement for the MLP
// batch kernel.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <future>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "neuro/common/parallel.h"
#include "neuro/common/rng.h"
#include "neuro/common/serialize.h"
#include "neuro/datasets/synth_digits.h"
#include "neuro/kernels/kernels.h"
#include "neuro/mlp/mlp.h"
#include "neuro/serve/backend.h"
#include "neuro/serve/queue.h"
#include "neuro/serve/registry.h"
#include "neuro/serve/server.h"
#include "neuro/snn/coding.h"
#include "neuro/snn/network.h"
#include "neuro/snn/serialize.h"
#include "neuro/snn/spike_bits.h"
#include "neuro/telemetry/metrics.h"

namespace neuro {
namespace {

using namespace std::chrono_literals;

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

/**
 * @return a model label unique to the running test. A server's
 * counters are its label's registry series, shared by every server
 * with that label in the process; a per-test label keeps exact-count
 * assertions independent of earlier tests in the same run.
 */
std::string
testLabel()
{
    const ::testing::TestInfo *info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    return std::string(info->test_suite_name()) + "." + info->name();
}

/** Open/close latch shared by every session of a GatedBackend. */
struct Gate
{
    std::mutex mutex;
    std::condition_variable cv;
    bool open = false;

    void
    release()
    {
        {
            std::lock_guard<std::mutex> lock(mutex);
            open = true;
        }
        cv.notify_all();
    }

    void
    await()
    {
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [this] { return open; });
    }
};

/**
 * Deterministic test backend: classify() = (pixels[0] + streamSeed)
 * mod 16. Optionally blocks each classification on a Gate
 * (to hold the dispatcher mid-batch) or sleeps (to inflate latency
 * for SLO tests).
 */
class StubBackend final : public serve::InferenceBackend
{
  public:
    StubBackend(Gate *gate = nullptr,
                std::chrono::microseconds delay = 0us, int bias = 0)
        : gate_(gate), delay_(delay), bias_(bias)
    {
    }

    serve::BackendKind
    kind() const override
    {
        return serve::BackendKind::Mlp;
    }
    std::size_t inputSize() const override { return 4; }
    std::unique_ptr<serve::BackendSession>
    newSession() const override
    {
        return std::make_unique<Session>(*this);
    }

    std::atomic<uint64_t> classified{0};

  private:
    class Session final : public serve::BackendSession
    {
      public:
        explicit Session(const StubBackend &owner) : owner_(owner) {}

        int
        classify(const uint8_t *pixels, std::size_t /*numPixels*/,
                 uint64_t streamSeed) override
        {
            if (owner_.gate_ != nullptr)
                const_cast<StubBackend &>(owner_).gate_->await();
            if (owner_.delay_ > 0us)
                std::this_thread::sleep_for(owner_.delay_);
            const_cast<StubBackend &>(owner_).classified.fetch_add(1);
            return static_cast<int>(
                       (pixels[0] + streamSeed +
                        static_cast<uint64_t>(owner_.bias_)) %
                       uint64_t{16});
        }

      private:
        const StubBackend &owner_;
    };

    Gate *gate_;
    std::chrono::microseconds delay_;
    int bias_;
};

serve::InferenceRequest
stubRequest(uint64_t id)
{
    serve::InferenceRequest r;
    r.id = id;
    r.pixels = {static_cast<uint8_t>(id & 0xff), 0, 0, 0};
    r.streamSeed = id * 7;
    return r;
}

// -------------------------------------------------------- microbatcher

TEST(MicroBatcher, CoalescesBacklogUpToMaxBatch)
{
    serve::RequestQueue queue(16);
    serve::MicroBatcher batcher(queue, {3, 200});
    for (uint64_t id = 0; id < 5; ++id) {
        serve::PendingRequest pending;
        pending.request = stubRequest(id);
        ASSERT_TRUE(queue.push(std::move(pending)));
    }
    std::vector<serve::PendingRequest> first = batcher.nextBatch();
    std::vector<serve::PendingRequest> second = batcher.nextBatch();
    ASSERT_EQ(first.size(), 3u);
    ASSERT_EQ(second.size(), 2u);
    // FIFO order is what makes closed-loop traces reproducible.
    EXPECT_EQ(first[0].request.id, 0u);
    EXPECT_EQ(second[0].request.id, 3u);
}

TEST(MicroBatcher, EarliestDeadlineCapsTheFillWait)
{
    serve::RequestQueue queue(8);
    // A very long fill wait: only the request deadline can cut it
    // short.
    serve::MicroBatcher batcher(queue, {8, 5'000'000});
    serve::PendingRequest pending;
    pending.request = stubRequest(1);
    pending.request.deadline = serve::ServeClock::now() + 5ms;
    ASSERT_TRUE(queue.push(std::move(pending)));
    const auto t0 = serve::ServeClock::now();
    const std::vector<serve::PendingRequest> batch =
        batcher.nextBatch();
    const auto elapsed = serve::ServeClock::now() - t0;
    ASSERT_EQ(batch.size(), 1u);
    EXPECT_LT(elapsed, 2s); // returned at the deadline, not maxWait.
}

TEST(RequestQueue, RejectsWhenFullOrClosed)
{
    serve::RequestQueue queue(2);
    serve::PendingRequest a, b, c;
    EXPECT_TRUE(queue.push(std::move(a)));
    EXPECT_TRUE(queue.push(std::move(b)));
    EXPECT_FALSE(queue.push(std::move(c))); // full.
    queue.close();
    serve::PendingRequest d;
    EXPECT_FALSE(queue.push(std::move(d))); // closed.
    EXPECT_TRUE(queue.closed());
    EXPECT_EQ(queue.size(), 2u); // still drainable after close().
}

// ------------------------------------------------------------- server

TEST(InferenceServer, RejectsWhenQueueFull)
{
    ThreadCountGuard guard(1);
    Gate gate;
    auto backend = std::make_shared<StubBackend>(&gate);
    serve::ServeConfig sc;
    sc.queueCapacity = 2;
    sc.batch.maxBatch = 1;
    sc.batch.maxWaitMicros = 0;
    serve::InferenceServer server(backend, sc, nullptr, testLabel());

    // First request is dequeued by the dispatcher and parks on the
    // gate; the next two fill the queue; the fourth must bounce.
    std::vector<std::future<serve::InferenceResult>> futures;
    futures.push_back(server.submit(stubRequest(0)));
    while (server.queueDepth() > 0)
        std::this_thread::sleep_for(100us);
    futures.push_back(server.submit(stubRequest(1)));
    futures.push_back(server.submit(stubRequest(2)));
    std::future<serve::InferenceResult> rejected =
        server.submit(stubRequest(3));
    ASSERT_EQ(rejected.wait_for(0s), std::future_status::ready);
    EXPECT_EQ(rejected.get().status, serve::RequestStatus::Rejected);

    gate.release();
    server.stop();
    for (std::future<serve::InferenceResult> &f : futures)
        EXPECT_EQ(f.get().status, serve::RequestStatus::Ok);
    const serve::ServeCounters c = server.counters();
    EXPECT_EQ(c.rejected, 1u);
    EXPECT_EQ(c.completed, 3u);
}

TEST(InferenceServer, ExpiredAtDequeueIsNotClassified)
{
    ThreadCountGuard guard(1);
    Gate gate;
    auto backend = std::make_shared<StubBackend>(&gate);
    serve::ServeConfig sc;
    sc.batch.maxBatch = 1;
    sc.batch.maxWaitMicros = 0;
    serve::InferenceServer server(backend, sc, nullptr, testLabel());

    std::future<serve::InferenceResult> first =
        server.submit(stubRequest(0));
    while (server.queueDepth() > 0)
        std::this_thread::sleep_for(100us);
    // Queued behind the gated batch with an already-past deadline:
    // by the time the dispatcher dequeues it, it must expire without
    // touching the backend.
    serve::InferenceRequest late = stubRequest(1);
    late.deadline = serve::ServeClock::now() - 1ms;
    std::future<serve::InferenceResult> expired =
        server.submit(std::move(late));

    gate.release();
    server.stop();
    EXPECT_EQ(first.get().status, serve::RequestStatus::Ok);
    const serve::InferenceResult r = expired.get();
    EXPECT_EQ(r.status, serve::RequestStatus::Expired);
    EXPECT_EQ(r.classIndex, -1);
    EXPECT_EQ(server.counters().expired, 1u);
    EXPECT_EQ(backend->classified.load(), 1u);
}

TEST(InferenceServer, StopDrainsEverythingInFlight)
{
    ThreadCountGuard guard(1);
    Gate gate;
    auto backend = std::make_shared<StubBackend>(&gate);
    serve::ServeConfig sc;
    sc.batch.maxBatch = 2;
    sc.batch.maxWaitMicros = 50;
    serve::InferenceServer server(backend, sc, nullptr, testLabel());

    std::vector<std::future<serve::InferenceResult>> futures;
    for (uint64_t id = 0; id < 7; ++id)
        futures.push_back(server.submit(stubRequest(id)));

    // Open the gate while stop() is closing the queue: every admitted
    // request must still be classified and fulfilled.
    std::thread releaser([&] {
        std::this_thread::sleep_for(20ms);
        gate.release();
    });
    server.stop();
    releaser.join();
    for (uint64_t id = 0; id < futures.size(); ++id) {
        const serve::InferenceResult r = futures[id].get();
        EXPECT_EQ(r.status, serve::RequestStatus::Ok);
        EXPECT_EQ(r.classIndex,
                  static_cast<int>((stubRequest(id).pixels[0] +
                                    stubRequest(id).streamSeed) %
                                   16));
    }
    EXPECT_EQ(server.counters().completed, 7u);
    // stop() is idempotent, and a stopped server rejects immediately.
    server.stop();
    std::future<serve::InferenceResult> afterStop =
        server.submit(stubRequest(99));
    EXPECT_EQ(afterStop.get().status, serve::RequestStatus::Rejected);
}

TEST(InferenceServer, StageLatenciesDecomposeTotal)
{
    ThreadCountGuard guard(1);
    auto backend =
        std::make_shared<StubBackend>(nullptr, /*delay=*/200us);
    serve::ServeConfig sc;
    sc.batch.maxBatch = 4;
    sc.batch.maxWaitMicros = 100;
    serve::InferenceServer server(backend, sc, nullptr, testLabel());

    constexpr uint64_t kRequests = 32;
    std::vector<std::future<serve::InferenceResult>> futures;
    for (uint64_t id = 0; id < kRequests; ++id)
        futures.push_back(server.submit(stubRequest(id)));

    double stageSum = 0.0;
    double totalSum = 0.0;
    for (auto &f : futures) {
        const serve::InferenceResult r = f.get();
        ASSERT_EQ(r.status, serve::RequestStatus::Ok);
        // Each per-stage component is non-negative and the three
        // stages partition the request's total wall time.
        EXPECT_GE(r.queueMicros, 0.0);
        EXPECT_GE(r.batchMicros, 0.0);
        EXPECT_GE(r.computeMicros, 0.0);
        stageSum += r.queueMicros + r.batchMicros + r.computeMicros;
        totalSum += r.totalMicros;
    }
    server.stop();
    // Stage timestamps come from the same clock reads that produce
    // totalMicros, so the decomposition is tight, not approximate.
    EXPECT_NEAR(stageSum, totalSum, 1e-3 * totalSum + 1.0);

    // The labeled registry stage histograms saw every completion, and
    // are the series the registry exports for this server's label.
    auto &reg = telemetry::MetricRegistry::instance();
    for (serve::Stage stage : {serve::Stage::Queue, serve::Stage::Batch,
                               serve::Stage::Compute})
        EXPECT_EQ(server.stageLatency(stage).count(), kRequests);
    EXPECT_EQ(&server.stageLatency(serve::Stage::Queue),
              reg.histogram("serve.stage.queue", testLabel()).get());
    EXPECT_EQ(&server.latency(),
              reg.histogram("serve.latency", testLabel()).get());
    EXPECT_EQ(server.latency().count(), kRequests);
    EXPECT_EQ(server.counters().completed, kRequests);
    // Compute includes the backend's 200us delay; the p50 must too.
    EXPECT_GE(server.stageLatency(serve::Stage::Compute).percentile(0.5),
              200.0);
}

TEST(InferenceServer, SloDegradesToFallbackAndRecovers)
{
    ThreadCountGuard guard(1);
    // Primary is slow enough to blow a 200us p99 SLO; the fallback
    // answers with a distinct bias so served-by-fallback is visible in
    // the classifications themselves.
    auto primary = std::make_shared<StubBackend>(nullptr, 1000us);
    auto fallback = std::make_shared<StubBackend>(nullptr, 0us, 5);
    serve::ServeConfig sc;
    sc.batch.maxBatch = 4;
    sc.sloP99Micros = 200;
    sc.sloWindow = 8;
    serve::InferenceServer server(primary, sc, fallback, testLabel());

    uint64_t id = 0;
    auto runWave = [&](int n) {
        std::vector<std::future<serve::InferenceResult>> futures;
        for (int i = 0; i < n; ++i)
            futures.push_back(server.submit(stubRequest(id++)));
        std::vector<serve::InferenceResult> results;
        for (std::future<serve::InferenceResult> &f : futures)
            results.push_back(f.get());
        return results;
    };

    // First waves hit the slow primary until a full SLO window blows
    // the budget and flips the server into degraded mode.
    for (int wave = 0; wave < 8 && !server.degraded(); ++wave)
        runWave(8);
    ASSERT_TRUE(server.degraded());

    // Degraded traffic goes to the fallback (bias 5 shows in answers).
    // The client observes completions (set_value) a moment before the
    // dispatcher's SLO bookkeeping for that batch runs, so degraded()
    // can flip between waves: a wave of fast fallback answers restores
    // the primary, the next all-primary wave re-degrades. Drive waves
    // until one lands entirely inside a degraded stretch.
    bool fullyFallback = false;
    for (int wave = 0; wave < 32 && !fullyFallback; ++wave) {
        const std::vector<serve::InferenceResult> degradedWave =
            runWave(8);
        fullyFallback = true;
        for (const serve::InferenceResult &r : degradedWave)
            fullyFallback = fullyFallback && r.usedFallback;
    }
    EXPECT_TRUE(fullyFallback);
    EXPECT_GT(server.counters().fallbacks, 0u);

    // Fast fallback windows bring p99 back under 80% of the SLO and
    // the server restores the primary.
    for (int wave = 0; wave < 16 && server.degraded(); ++wave)
        runWave(8);
    EXPECT_FALSE(server.degraded());
    server.stop();
}

// -------------------------------------------------------- determinism

/** Random-pixel requests for a net with @p inputs pixels. */
std::vector<serve::InferenceRequest>
randomTrace(std::size_t count, std::size_t inputs, uint64_t seed)
{
    Rng rng(seed);
    std::vector<serve::InferenceRequest> trace(count);
    for (std::size_t i = 0; i < count; ++i) {
        trace[i].id = i;
        trace[i].streamSeed = deriveStreamSeed(seed, i);
        trace[i].pixels.resize(inputs);
        for (uint8_t &p : trace[i].pixels)
            p = static_cast<uint8_t>(rng.uniformInt(256));
    }
    return trace;
}

std::vector<int>
serveTrace(const std::shared_ptr<serve::InferenceBackend> &backend,
           const std::vector<serve::InferenceRequest> &trace,
           std::size_t maxBatch)
{
    serve::ServeConfig sc;
    sc.queueCapacity = trace.size();
    sc.batch.maxBatch = maxBatch;
    sc.batch.maxWaitMicros = 200;
    serve::InferenceServer server(backend, sc);
    std::vector<std::future<serve::InferenceResult>> futures;
    for (const serve::InferenceRequest &r : trace)
        futures.push_back(server.submit(r));
    std::vector<int> classes;
    for (std::future<serve::InferenceResult> &f : futures) {
        const serve::InferenceResult r = f.get();
        EXPECT_EQ(r.status, serve::RequestStatus::Ok);
        classes.push_back(r.classIndex);
    }
    server.stop();
    return classes;
}

/**
 * The core serving determinism contract: an odd-shaped MLP (column
 * and row-block tails, batch sizes that leave sub-strip remainders)
 * classifies a fixed trace identically through the scalar session
 * path, the batch kernel, and the full server at 1 and 4 workers.
 */
TEST(ServeDeterminism, BitIdenticalAcrossWorkersAndBatching)
{
    mlp::MlpConfig config;
    config.layerSizes = {37, 13, 7};
    Rng rng(11);
    mlp::Mlp net(config, rng); // untrained weights are fine here.
    const std::shared_ptr<serve::InferenceBackend> backend =
        serve::makeMlpBackend(std::move(net));

    const std::vector<serve::InferenceRequest> trace =
        randomTrace(203, backend->inputSize(), 42);

    // Scalar reference: one session, one sample at a time.
    std::vector<int> reference;
    {
        std::unique_ptr<serve::BackendSession> session =
            backend->newSession();
        for (const serve::InferenceRequest &r : trace)
            reference.push_back(session->classify(
                r.pixels.data(), r.pixels.size(), r.streamSeed));
    }

    // Batch kernel, including a sub-strip tail (203 = 12*16 + 11).
    {
        std::unique_ptr<serve::BackendSession> session =
            backend->newSession();
        std::vector<const uint8_t *> pixels;
        std::vector<uint64_t> seeds;
        for (const serve::InferenceRequest &r : trace) {
            pixels.push_back(r.pixels.data());
            seeds.push_back(r.streamSeed);
        }
        std::vector<int> batched(trace.size(), -1);
        session->classifyBatch(pixels.data(), seeds.data(),
                               trace.size(), backend->inputSize(),
                               batched.data());
        EXPECT_EQ(batched, reference);
    }

    // Full server, every worker count and an awkward batch size.
    for (const std::size_t workers : {1u, 4u}) {
        ThreadCountGuard guard(workers);
        EXPECT_EQ(serveTrace(backend, trace, 24), reference)
            << "diverged at " << workers << " workers";
        EXPECT_EQ(serveTrace(backend, trace, 1), reference)
            << "diverged unbatched at " << workers << " workers";
    }
}

/**
 * The quantized MLP backend batches kQ8Batch samples per weight sweep:
 * its classifyBatch, over every count from 1 to 9 and over the whole
 * trace, answers exactly what per-request classify() does, and so does
 * the full server at 1 and 4 workers (the wire == in-process contract
 * rests on this).
 */
TEST(ServeDeterminism, QuantizedBatchEqualsPerRequestClassify)
{
    mlp::MlpConfig config;
    config.layerSizes = {37, 13, 7};
    Rng rng(12);
    const mlp::Mlp net(config, rng);
    const std::shared_ptr<serve::InferenceBackend> backend =
        serve::makeQuantizedMlpBackend(net);
    EXPECT_EQ(backend->batchGranularity(), kernels::kQ8Batch);

    const std::vector<serve::InferenceRequest> trace =
        randomTrace(203, backend->inputSize(), 43);
    std::vector<const uint8_t *> pixels;
    std::vector<uint64_t> seeds;
    for (const serve::InferenceRequest &r : trace) {
        pixels.push_back(r.pixels.data());
        seeds.push_back(r.streamSeed);
    }

    std::vector<int> reference;
    {
        std::unique_ptr<serve::BackendSession> session =
            backend->newSession();
        for (const serve::InferenceRequest &r : trace)
            reference.push_back(session->classify(
                r.pixels.data(), r.pixels.size(), r.streamSeed));
    }
    // An untrained net still spreads the trace over several classes,
    // so a sample mix-up inside a batch would show.
    EXPECT_GT(std::set<int>(reference.begin(), reference.end()).size(),
              1u);

    // One session reused across calls of every count 1..9 (its
    // scratch carries over), then the whole trace in one call.
    {
        std::unique_ptr<serve::BackendSession> session =
            backend->newSession();
        std::vector<int> batched(trace.size(), -1);
        for (std::size_t i = 0, count = 1; i < trace.size();
             i += count, count = count % 9 + 1) {
            const std::size_t m = std::min(count, trace.size() - i);
            session->classifyBatch(pixels.data() + i, seeds.data() + i, m,
                                   backend->inputSize(), batched.data() + i);
        }
        EXPECT_EQ(batched, reference);
        std::vector<int> whole(trace.size(), -1);
        session->classifyBatch(pixels.data(), seeds.data(), trace.size(),
                               backend->inputSize(), whole.data());
        EXPECT_EQ(whole, reference);
    }

    for (const std::size_t workers : {1u, 4u}) {
        ThreadCountGuard guard(workers);
        EXPECT_EQ(serveTrace(backend, trace, 24), reference)
            << "diverged at " << workers << " workers";
        EXPECT_EQ(serveTrace(backend, trace, 1), reference)
            << "diverged unbatched at " << workers << " workers";
    }
}

/**
 * The SNNwt backend answers with the label of the reference walk's
 * first-spike winner, on grids this test encodes itself from each
 * request's seed: over random images that fire and an all-zero image
 * that cannot (the max-potential fallback), and alike in two sessions
 * that see the requests in opposite orders.
 */
TEST(SnnBackend, ClassifyIsTheReferenceFirstSpikeLabel)
{
    snn::SnnConfig config;
    config.numInputs = 64;
    config.numNeurons = 8;
    config.coding.periodMs = 200;
    config.coding.minIntervalMs = 20;
    config.tLeakMs = 200.0;
    config.initialThreshold = 0.5 * 32.0 * 8.0 * 127.0;
    Rng rng(3);
    const snn::SnnNetwork net(config, rng);
    const std::vector<int> labels = {0, 1, 2, -1, 1, 0, 2, 1};

    // Served the production way: through a checkpoint and the
    // registry, which pairs the model with its SNNwot sibling as the
    // SLO fallback.
    const std::string path = testing::TempDir() + "serve_snn_backend.neuro";
    {
        Archive archive;
        snn::saveSnn(net, labels, archive);
        ASSERT_TRUE(archive.save(path));
    }
    serve::ModelRegistry registry;
    std::string error;
    ASSERT_EQ(registry.loadFile("spikes", path, &error).size(), 2u)
        << error;
    std::remove(path.c_str());
    const std::shared_ptr<serve::InferenceBackend> backend =
        registry.find("spikes");
    ASSERT_NE(backend, nullptr);
    EXPECT_EQ(backend->kind(), serve::BackendKind::Snn);
    const std::shared_ptr<serve::InferenceBackend> wot =
        registry.find("spikes.wot");
    ASSERT_NE(wot, nullptr);
    EXPECT_EQ(wot->kind(), serve::BackendKind::SnnWot);
    EXPECT_EQ(registry.fallbackFor("spikes"), wot);
    EXPECT_EQ(registry.fallbackFor("spikes.wot"), nullptr);

    std::vector<serve::InferenceRequest> trace =
        randomTrace(24, config.numInputs, 29);
    trace.push_back(trace.back());
    std::fill(trace.back().pixels.begin(), trace.back().pixels.end(), 0);

    const snn::SpikeEncoder encoder(config.coding);
    std::vector<int> expected;
    std::size_t fired = 0;
    for (const serve::InferenceRequest &r : trace) {
        Rng stream(r.streamSeed);
        snn::PackedSpikeGrid grid;
        encoder.encodePacked(r.pixels.data(), r.pixels.size(), stream,
                             grid);
        snn::SnnNetwork oracle(net);
        const snn::PresentationResult ref =
            oracle.presentImage(grid, /*learn=*/false);
        const int w = ref.winner();
        expected.push_back(w >= 0 && static_cast<std::size_t>(w) <
                                         labels.size()
                               ? labels[static_cast<std::size_t>(w)]
                               : -1);
        fired += ref.firstSpikeNeuron >= 0;
    }
    EXPECT_GT(fired, 0u);
    EXPECT_LT(fired, trace.size()); // the all-zero image stays silent.

    const std::unique_ptr<serve::BackendSession> first =
        backend->newSession();
    const std::unique_ptr<serve::BackendSession> second =
        backend->newSession();
    std::vector<int> forward(trace.size(), -2);
    std::vector<int> backward(trace.size(), -2);
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const serve::InferenceRequest &r = trace[i];
        forward[i] =
            first->classify(r.pixels.data(), r.pixels.size(), r.streamSeed);
        const std::size_t j = trace.size() - 1 - i;
        backward[j] = second->classify(trace[j].pixels.data(),
                                       trace[j].pixels.size(),
                                       trace[j].streamSeed);
    }
    EXPECT_EQ(forward, expected);
    EXPECT_EQ(backward, expected);
}

/**
 * An SNN session is a FirstSpikeReader over the backend's shared
 * network: fed the same requests in the same order, it gives the
 * reader's labels. The 10-neuron layer with raised thresholds fires
 * late or never, and dark requests never fire, so the horizon rises
 * and falls along the trace.
 */
TEST(SnnBackend, SessionEqualsFirstSpikeReaderOverATrace)
{
    snn::SnnConfig config;
    config.numNeurons = 10;
    config.initialThreshold *= 2.5;
    Rng rng(10);
    snn::TrainedSnn model{snn::SnnNetwork(config, rng),
                          {0, 1, 2, 3, 4, -1, 5, 6, 7, 8}};
    const datasets::Dataset data = datasets::mnistLike(48, 0, 4).train;
    std::vector<serve::InferenceRequest> trace(data.size());
    for (std::size_t i = 0; i < data.size(); ++i) {
        trace[i].pixels = data[i].pixels;
        if (i % 12 == 5)
            std::fill(trace[i].pixels.begin(), trace[i].pixels.end(), 0);
        trace[i].streamSeed = deriveStreamSeed(61, i);
    }

    const snn::SpikeEncoder encoder(config.coding);
    snn::FirstSpikeReader reader(model.network, encoder);
    std::vector<int> expected;
    for (const serve::InferenceRequest &r : trace) {
        const int w =
            reader.winner(r.pixels.data(), r.pixels.size(), r.streamSeed);
        expected.push_back(w >= 0 && static_cast<std::size_t>(w) <
                                         model.labels.size()
                               ? model.labels[static_cast<std::size_t>(w)]
                               : -1);
    }

    const std::shared_ptr<serve::InferenceBackend> backend =
        serve::makeSnnBackend(std::move(model));
    const std::unique_ptr<serve::BackendSession> session =
        backend->newSession();
    std::vector<int> served;
    for (const serve::InferenceRequest &r : trace) {
        served.push_back(
            session->classify(r.pixels.data(), r.pixels.size(), r.streamSeed));
    }
    EXPECT_EQ(served, expected);
}

// ----------------------------------------------------------- registry

TEST(ModelRegistry, MlpRoundTripRegistersFloatAndQuantized)
{
    mlp::MlpConfig config;
    config.layerSizes = {16, 8, 4};
    Rng rng(5);
    mlp::Mlp net(config, rng);

    const std::string path =
        testing::TempDir() + "serve_registry_mlp.neuro";
    {
        Archive archive;
        net.serialize(archive);
        ASSERT_TRUE(archive.save(path));
    }

    serve::ModelRegistry registry;
    std::string error;
    const std::vector<std::string> names =
        registry.loadFile("digits", path, &error);
    ASSERT_EQ(names.size(), 2u) << error;
    EXPECT_EQ(registry.names(),
              (std::vector<std::string>{"digits", "digits.q8"}));

    const std::shared_ptr<serve::InferenceBackend> f =
        registry.find("digits");
    const std::shared_ptr<serve::InferenceBackend> q =
        registry.find("digits.q8");
    ASSERT_NE(f, nullptr);
    ASSERT_NE(q, nullptr);
    EXPECT_EQ(f->kind(), serve::BackendKind::Mlp);
    EXPECT_EQ(q->kind(), serve::BackendKind::QuantizedMlp);
    EXPECT_EQ(f->inputSize(), 16u);
    EXPECT_EQ(q->inputSize(), 16u);

    // The float model falls back to its 8-bit sibling; the sibling,
    // and a model with no sibling, have no fallback.
    EXPECT_EQ(registry.fallbackFor("digits"), q);
    EXPECT_EQ(registry.fallbackFor("digits.q8"), nullptr);
    registry.add("loner", f);
    EXPECT_EQ(registry.fallbackFor("loner"), nullptr);

    // The loaded backend actually serves.
    std::vector<uint8_t> pixels(16, 100);
    std::unique_ptr<serve::BackendSession> session = f->newSession();
    const int cls = session->classify(pixels.data(), pixels.size(), 0);
    EXPECT_GE(cls, 0);
    EXPECT_LT(cls, 4);

    std::remove(path.c_str());
}

TEST(ModelRegistry, LoadErrorsAreDescriptiveNotFatal)
{
    serve::ModelRegistry registry;
    std::string error;

    EXPECT_TRUE(
        registry.loadFile("nope", "/does/not/exist.neuro", &error)
            .empty());
    EXPECT_FALSE(error.empty());

    // A file that is not an archive at all: the serializer's magic
    // check must surface as an error string.
    const std::string garbagePath =
        testing::TempDir() + "serve_registry_garbage.neuro";
    {
        std::ofstream out(garbagePath, std::ios::binary);
        out << "this is not a checkpoint";
    }
    error.clear();
    EXPECT_TRUE(
        registry.loadFile("garbage", garbagePath, &error).empty());
    EXPECT_FALSE(error.empty());
    EXPECT_TRUE(registry.names().empty());
    std::remove(garbagePath.c_str());

    // An archive with no model records: recognized format, no model.
    const std::string emptyPath =
        testing::TempDir() + "serve_registry_empty.neuro";
    {
        Archive archive;
        std::vector<float> stray{1.0f, 2.0f};
        archive.putFloats("unrelated.values", stray);
        ASSERT_TRUE(archive.save(emptyPath));
    }
    error.clear();
    EXPECT_TRUE(
        registry.loadFile("empty", emptyPath, &error).empty());
    EXPECT_NE(error.find("no recognized model"), std::string::npos);
    std::remove(emptyPath.c_str());
}

} // namespace
} // namespace neuro
