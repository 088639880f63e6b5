#include "neuro/serve/server.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "neuro/common/logging.h"
#include "neuro/common/parallel.h"
#include "neuro/common/profile.h"

namespace neuro {
namespace serve {

namespace {

double
microsBetween(ServeClock::time_point from, ServeClock::time_point to)
{
    return std::chrono::duration<double, std::micro>(to - from).count();
}

} // namespace

std::unique_ptr<BackendSession>
InferenceServer::SessionPool::acquire()
{
    {
        MutexGuard lock(mutex_);
        if (!idle_.empty()) {
            std::unique_ptr<BackendSession> session =
                std::move(idle_.back());
            idle_.pop_back();
            return session;
        }
    }
    return backend_.newSession();
}

void
InferenceServer::SessionPool::release(
    std::unique_ptr<BackendSession> session)
{
    MutexGuard lock(mutex_);
    idle_.push_back(std::move(session));
}

InferenceServer::InferenceServer(
    std::shared_ptr<InferenceBackend> primary, ServeConfig config,
    std::shared_ptr<InferenceBackend> fallback, const std::string &model)
    : primary_(std::move(primary)), fallback_(std::move(fallback)),
      config_(config), queue_(config.queueCapacity),
      batcher_(queue_, config.batch), primarySessions_(*primary_)
{
    NEURO_ASSERT(primary_ != nullptr, "serve: primary backend required");
    // Resolve every registry handle once; the hot path then pays one
    // relaxed atomic per update with no name lookups.
    auto &reg = telemetry::MetricRegistry::instance();
    tm_.model = model;
    tm_.stageQueue = reg.histogram("serve.stage.queue", model);
    tm_.stageBatch = reg.histogram("serve.stage.batch", model);
    tm_.stageCompute = reg.histogram("serve.stage.compute", model);
    tm_.latency = reg.histogram("serve.latency", model);
    tm_.batchSize = reg.histogram("serve.batch_size", model);
    tm_.enqueued = reg.counter("serve.enqueued", model);
    tm_.completed = reg.counter("serve.completed", model);
    tm_.rejected = reg.counter("serve.rejected", model);
    tm_.expired = reg.counter("serve.expired", model);
    tm_.batches = reg.counter("serve.batches", model);
    tm_.fallbacks = reg.counter("serve.fallbacks", model);
    tm_.degradeEnter = reg.counter("serve.slo.degrade_enter", model);
    tm_.degradeExit = reg.counter("serve.slo.degrade_exit", model);
    tm_.queueDepth = reg.gauge("serve.queue_depth", model);
    tm_.inflight = reg.gauge("serve.inflight", model);
    tm_.batchOccupancy = reg.gauge("serve.batch_occupancy", model);
    tm_.degradedGauge = reg.gauge("serve.degraded", model);
    if (fallback_ != nullptr) {
        NEURO_ASSERT(fallback_->inputSize() == primary_->inputSize(),
                     "serve: fallback input size %zu != primary %zu",
                     fallback_->inputSize(), primary_->inputSize());
        fallbackSessions_ = std::make_unique<SessionPool>(*fallback_);
    }
    if (config_.enableFallback) {
        NEURO_ASSERT(fallback_ != nullptr,
                     "serve: enableFallback requires a fallback backend");
        NEURO_ASSERT(config_.sloP99Micros > 0,
                     "serve: enableFallback requires sloP99Micros > 0");
    }
    dispatcher_ = std::thread([this] { dispatchLoop(); });
}

InferenceServer::~InferenceServer() { stop(); }

std::future<InferenceResult>
InferenceServer::submit(InferenceRequest request)
{
    PendingRequest pending;
    pending.request = std::move(request);
    std::future<InferenceResult> future = pending.promise.get_future();
    submitPending(std::move(pending));
    return future;
}

void
InferenceServer::submit(InferenceRequest request, CompletionFn onComplete)
{
    PendingRequest pending;
    pending.request = std::move(request);
    pending.onComplete = std::move(onComplete);
    submitPending(std::move(pending));
}

void
InferenceServer::submitPending(PendingRequest &&pending)
{
    NEURO_ASSERT(pending.request.pixels.size() == primary_->inputSize(),
                 "serve: request %llu has %zu pixels, backend wants %zu",
                 (unsigned long long)pending.request.id,
                 pending.request.pixels.size(), primary_->inputSize());
    pending.enqueueTime = ServeClock::now();

    if (queue_.push(std::move(pending))) {
        count(*tm_.enqueued, "serve.enqueued");
        inflight_.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    // push() leaves the request untouched on rejection, so the
    // completion path is still ours to satisfy.
    count(*tm_.rejected, "serve.rejected");
    InferenceResult result;
    result.id = pending.request.id;
    result.status = RequestStatus::Rejected;
    pending.fulfill(std::move(result));
}

void
InferenceServer::stop()
{
    MutexGuard lock(stopMutex_);
    // Relaxed is enough: stopMutex_ orders concurrent stop() calls,
    // and the flag is only a revisit guard, not a publication point.
    if (stopped_.exchange(true, std::memory_order_relaxed))
        return;
    queue_.close();
    if (dispatcher_.joinable())
        dispatcher_.join();
}

void
InferenceServer::count(telemetry::Counter &counter, const char *name,
                       uint64_t n) const
{
    const uint64_t total = counter.inc(n);
    if (Tracer::enabled())
        Tracer::instance().counter(
            name, static_cast<double>(total),
            tm_.model.empty() ? "value" : tm_.model);
}

ServeCounters
InferenceServer::counters() const
{
    ServeCounters c;
    c.enqueued = tm_.enqueued->value();
    c.completed = tm_.completed->value();
    c.rejected = tm_.rejected->value();
    c.expired = tm_.expired->value();
    c.batches = tm_.batches->value();
    c.fallbacks = tm_.fallbacks->value();
    return c;
}

const telemetry::LatencyHistogram &
InferenceServer::stageLatency(Stage stage) const
{
    switch (stage) {
    case Stage::Queue: return *tm_.stageQueue;
    case Stage::Batch: return *tm_.stageBatch;
    case Stage::Compute: return *tm_.stageCompute;
    }
    return *tm_.stageQueue; // unreachable.
}

void
InferenceServer::dispatchLoop()
{
    for (;;) {
        std::vector<PendingRequest> batch = batcher_.nextBatch();
        if (batch.empty())
            return; // closed and drained.
        runBatch(batch);
        updateSlo();
    }
}

void
InferenceServer::runBatch(std::vector<PendingRequest> &batch)
{
    NEURO_PROFILE_SCOPE("serve/batch");
    count(*tm_.batches, "serve.batches");
    tm_.batchSize->record(static_cast<double>(batch.size()));

    const auto batchStart = ServeClock::now();
    const auto batchSize = static_cast<uint32_t>(batch.size());

    // Deadline check at dequeue: anything already past its deadline is
    // fulfilled as Expired without spending backend cycles on it.
    std::vector<PendingRequest *> live;
    live.reserve(batch.size());
    for (PendingRequest &pending : batch) {
        if (pending.request.deadline < batchStart) {
            count(*tm_.expired, "serve.expired");
            InferenceResult result;
            result.id = pending.request.id;
            result.status = RequestStatus::Expired;
            result.batchSize = batchSize;
            result.queueMicros =
                microsBetween(pending.enqueueTime, pending.dequeueTime);
            result.batchMicros =
                microsBetween(pending.dequeueTime, batchStart);
            result.totalMicros =
                microsBetween(pending.enqueueTime, batchStart);
            pending.fulfill(std::move(result));
            inflight_.fetch_sub(1, std::memory_order_relaxed);
        } else {
            live.push_back(&pending);
        }
    }
    if (live.empty())
        return;

    const bool useFallback =
        degraded_.load(std::memory_order_relaxed) && fallback_ != nullptr;
    SessionPool &pool =
        useFallback ? *fallbackSessions_ : primarySessions_;

    // One contiguous chunk per worker: each chunk goes through a
    // session's batched entry point, so dense backends get their
    // weight-reuse/SIMD win and results land in per-index slots
    // (thread-count independent). Chunks are rounded up to the
    // backend's strip granularity — splitting a batch into sub-strip
    // chunks would silently demote every request to the scalar path.
    const InferenceBackend &backend =
        useFallback ? *fallback_ : *primary_;
    const std::size_t n = live.size();
    const std::size_t workers = parallelThreadCount();
    const std::size_t stripSize = std::max<std::size_t>(
        std::size_t{1}, backend.batchGranularity());
    std::size_t grain = (n + workers - 1) / workers;
    grain = (grain + stripSize - 1) / stripSize * stripSize;
    std::vector<int> classes(n, -1);
    // End of the batch-assembly stage, start of the compute stage, for
    // every request riding in this batch.
    const auto computeStart = ServeClock::now();
    parallelForRange(
        std::size_t{0}, n, grain, [&](std::size_t i0, std::size_t i1) {
            std::unique_ptr<BackendSession> session = pool.acquire();
            const std::size_t m = i1 - i0;
            std::vector<const uint8_t *> pixelPtrs(m);
            std::vector<uint64_t> seeds(m);
            for (std::size_t j = 0; j < m; ++j) {
                const InferenceRequest &request = live[i0 + j]->request;
                pixelPtrs[j] = request.pixels.data();
                seeds[j] = request.streamSeed;
            }
            session->classifyBatch(pixelPtrs.data(), seeds.data(), m,
                                   live[i0]->request.pixels.size(),
                                   classes.data() + i0);
            pool.release(std::move(session));
        });

    const auto batchEnd = ServeClock::now();
    if (useFallback)
        count(*tm_.fallbacks, "serve.fallbacks", live.size());
    const bool sloArmed = config_.sloP99Micros > 0;
    const bool traceSpans = config_.traceRequests && Tracer::enabled();
    for (std::size_t i = 0; i < live.size(); ++i) {
        PendingRequest &pending = *live[i];
        InferenceResult result;
        result.id = pending.request.id;
        result.status = RequestStatus::Ok;
        result.classIndex = classes[i];
        result.usedFallback = useFallback;
        result.batchSize = batchSize;
        result.queueMicros =
            microsBetween(pending.enqueueTime, pending.dequeueTime);
        result.batchMicros =
            microsBetween(pending.dequeueTime, computeStart);
        result.computeMicros = microsBetween(computeStart, batchEnd);
        result.totalMicros = microsBetween(pending.enqueueTime, batchEnd);
        tm_.latency->record(result.totalMicros);
        tm_.stageQueue->record(result.queueMicros);
        tm_.stageBatch->record(result.batchMicros);
        tm_.stageCompute->record(result.computeMicros);
        if (sloArmed)
            windowLatency_.record(result.totalMicros);
        if (traceSpans) {
            // One async lane per stage, correlated by request id; the
            // timestamps are backdated to where the boundary actually
            // happened, so Perfetto shows the true pipeline shape.
            Tracer &tracer = Tracer::instance();
            const uint64_t id = pending.request.id;
            tracer.asyncSpan("serve.queue", "serve", 'b', id,
                             pending.enqueueTime);
            tracer.asyncSpan("serve.queue", "serve", 'e', id,
                             pending.dequeueTime);
            tracer.asyncSpan("serve.batch", "serve", 'b', id,
                             pending.dequeueTime);
            tracer.asyncSpan("serve.batch", "serve", 'e', id,
                             computeStart);
            tracer.asyncSpan("serve.compute", "serve", 'b', id,
                             computeStart);
            tracer.asyncSpan("serve.compute", "serve", 'e', id,
                             batchEnd);
        }
        pending.fulfill(std::move(result));
    }
    windowCompleted_ += live.size();
    count(*tm_.completed, "serve.completed", live.size());
    inflight_.fetch_sub(static_cast<int64_t>(live.size()),
                        std::memory_order_relaxed);

    // Live gauges, refreshed once per batch (a sampled view, not an
    // exact accounting — the Sampler reads whatever is current).
    tm_.queueDepth->set(static_cast<double>(queue_.size()));
    tm_.inflight->set(static_cast<double>(
        inflight_.load(std::memory_order_relaxed)));
    tm_.batchOccupancy->set(
        static_cast<double>(batch.size()) /
        static_cast<double>(config_.batch.maxBatch));
}

void
InferenceServer::updateSlo()
{
    if (config_.sloP99Micros <= 0 ||
        windowCompleted_ < config_.sloWindow)
        return;
    const double p99 = windowLatency_.percentile(0.99);
    const auto slo = static_cast<double>(config_.sloP99Micros);
    if (config_.enableFallback && fallback_ != nullptr) {
        const bool degraded = degraded_.load(std::memory_order_relaxed);
        if (!degraded && p99 > slo) {
            degraded_.store(true, std::memory_order_relaxed);
            tm_.degradeEnter->inc();
            tm_.degradedGauge->set(1.0);
            warn("serve: window p99 %.0fus exceeds SLO %.0fus — "
                 "degrading to %s fallback",
                 p99, slo, backendKindName(fallback_->kind()));
        } else if (degraded && p99 < 0.8 * slo) {
            degraded_.store(false, std::memory_order_relaxed);
            tm_.degradeExit->inc();
            tm_.degradedGauge->set(0.0);
            inform("serve: window p99 %.0fus back under SLO %.0fus — "
                   "restoring primary backend",
                   p99, slo);
        }
    }
    windowLatency_.reset();
    windowCompleted_ = 0;
}

} // namespace serve
} // namespace neuro
