/**
 * @file
 * The inference server of the serving runtime (docs/serving.md): a
 * single dispatcher thread forms micro-batches from the admission
 * queue and fans each batch out across the process thread pool
 * (common/parallel.h, NEURO_THREADS workers), fulfilling per-request
 * futures with the classification and its latency breakdown.
 *
 * SLO & graceful degradation: when sloP99Micros is set and fallback is
 * enabled, the server watches a sliding-window p99; while it exceeds
 * the SLO, batches are routed to the (cheaper) fallback backend — e.g.
 * the count-based SNNwot datapath standing in for the timed SNNwt
 * presentation — and routed back once p99 recovers below 80% of the
 * SLO. Fallback is off by default because switching backends changes
 * answers; the determinism contract (bit-identical results for a fixed
 * trace at any worker count) holds whenever the backend choice is
 * load-independent, i.e. fallback disabled.
 *
 * Telemetry: the server's only accounting is one set of metric
 * registry series (telemetry/metrics.h) labeled with its model name
 * (`serve.completed{model="m0"}`; unlabeled when constructed without
 * one): per-stage latency histograms (`serve.stage.queue|batch|
 * compute`, plus `serve.latency` end to end and `serve.batch_size`),
 * live gauges (`serve.queue_depth`, `serve.inflight`,
 * `serve.batch_occupancy`, `serve.degraded`) and the monotonic
 * counters counters() reads. Servers constructed with the same label
 * share its series. Export them with NEURO_METRICS (see
 * docs/observability.md). With traceRequests set, every request also
 * emits async queue/batch/compute spans into the Chrome trace sink.
 */

#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "neuro/common/mutex.h"
#include "neuro/serve/backend.h"
#include "neuro/serve/queue.h"
#include "neuro/telemetry/histogram.h"
#include "neuro/telemetry/metrics.h"

namespace neuro {
namespace serve {

/** Tuning knobs of an InferenceServer. */
struct ServeConfig
{
    std::size_t queueCapacity = 1024; ///< admission-control bound.
    BatchPolicy batch;                ///< micro-batching policy.
    /** p99 latency SLO in microseconds; 0 disables SLO tracking. */
    int64_t sloP99Micros = 0;
    /** Completions per SLO evaluation window. */
    uint64_t sloWindow = 256;
    /** Route to the fallback backend while p99 exceeds the SLO.
     *  Requires a fallback backend; breaks trace-determinism (the
     *  backend choice becomes load-dependent), hence off by default. */
    bool enableFallback = false;
    /** Emit per-request async trace spans (queue/batch/compute lanes)
     *  into the Chrome trace sink when tracing is active. Off by
     *  default: a span costs six trace events per request. */
    bool traceRequests = false;
};

/** Pipeline stages a request travels (see InferenceResult timings). */
enum class Stage
{
    Queue,   ///< admission -> dequeued by the micro-batcher.
    Batch,   ///< dequeue -> the formed batch starts computing.
    Compute, ///< backend compute -> completion.
};

/** Point-in-time serving counters of one model label (monotonic). */
struct ServeCounters
{
    uint64_t enqueued = 0;  ///< admitted into the queue.
    uint64_t completed = 0; ///< classified and fulfilled Ok.
    uint64_t rejected = 0;  ///< refused at admission (queue full/closed).
    uint64_t expired = 0;   ///< deadline passed before execution.
    uint64_t batches = 0;   ///< batches executed.
    uint64_t fallbacks = 0; ///< requests served by the fallback.
};

/** Micro-batching inference server over one (or two) backends. */
class InferenceServer
{
  public:
    /**
     * @param primary  backend serving normal traffic.
     * @param config   tuning knobs; see ServeConfig.
     * @param fallback optional cheaper backend for SLO degradation
     *                 (must agree with primary on inputSize).
     * @param model    `model` label of this server's `serve.*` series;
     *                 empty = the unlabeled series.
     */
    explicit InferenceServer(std::shared_ptr<InferenceBackend> primary,
                             ServeConfig config = {},
                             std::shared_ptr<InferenceBackend> fallback =
                                 nullptr,
                             const std::string &model = {});

    /** Stops and drains (see stop()). */
    ~InferenceServer();

    InferenceServer(const InferenceServer &) = delete;
    InferenceServer &operator=(const InferenceServer &) = delete;

    /**
     * Submit one request. Always returns a valid future: if admission
     * fails (queue full or server stopped) it is already satisfied
     * with RequestStatus::Rejected.
     */
    std::future<InferenceResult> submit(InferenceRequest request);

    /** Completion callback type of the asynchronous submit path. */
    using CompletionFn = std::function<void(InferenceResult &&)>;

    /**
     * Submit one request with callback completion — the form the
     * network front end (net/frontend.h) uses, where a future-per-
     * request would force a waiter thread per connection. @p
     * onComplete always fires exactly once: on the dispatcher thread
     * for executed or expired requests, or synchronously on this
     * thread when admission rejects. It must be cheap and must not
     * call back into this server (the dispatcher is not reentrant).
     */
    void submit(InferenceRequest request, CompletionFn onComplete);

    /**
     * Close admission, drain every queued request (expired ones are
     * still fulfilled, with RequestStatus::Expired), and join the
     * dispatcher. Idempotent.
     */
    void stop();

    /** @return this server's label's serving counters. */
    ServeCounters counters() const;

    /** @return the end-to-end latency histogram (`serve.latency`). */
    const telemetry::LatencyHistogram &latency() const
    {
        return *tm_.latency;
    }

    /** @return the per-stage latency histogram
     *  (`serve.stage.queue|batch|compute`). */
    const telemetry::LatencyHistogram &stageLatency(Stage stage) const;

    /** @return true while SLO degradation has engaged the fallback. */
    bool degraded() const
    {
        return degraded_.load(std::memory_order_relaxed);
    }

    /** @return current queue depth (for load generators / tests). */
    std::size_t queueDepth() const { return queue_.size(); }

    const ServeConfig &config() const { return config_; }

  private:
    /** Mutex-protected stack of per-worker sessions for one backend. */
    class SessionPool
    {
      public:
        explicit SessionPool(const InferenceBackend &backend)
            : backend_(backend)
        {
        }

        std::unique_ptr<BackendSession> acquire();
        void release(std::unique_ptr<BackendSession> session);

      private:
        const InferenceBackend &backend_;
        Mutex mutex_;
        std::vector<std::unique_ptr<BackendSession>>
            idle_ NEURO_GUARDED_BY(mutex_);
    };

    void dispatchLoop();
    void runBatch(std::vector<PendingRequest> &batch);
    void updateSlo();
    void submitPending(PendingRequest &&pending);
    /** Add @p n to @p counter (series @p name); while tracing, plot
     *  its new total on the trace's @p name track. */
    void count(telemetry::Counter &counter, const char *name,
               uint64_t n = 1) const;

    std::shared_ptr<InferenceBackend> primary_;
    std::shared_ptr<InferenceBackend> fallback_;
    ServeConfig config_;
    RequestQueue queue_;
    MicroBatcher batcher_;
    SessionPool primarySessions_;
    std::unique_ptr<SessionPool> fallbackSessions_;

    /** The SLO controller's private window (reset each window). */
    telemetry::LatencyHistogram windowLatency_;
    std::atomic<bool> degraded_{false};
    uint64_t windowCompleted_ = 0;   ///< dispatcher-only.

    /** Registry series labeled with this server's model, resolved
     *  once at construction. */
    struct Telemetry
    {
        std::string model; ///< label value; also the trace series.
        std::shared_ptr<telemetry::LatencyHistogram> stageQueue;
        std::shared_ptr<telemetry::LatencyHistogram> stageBatch;
        std::shared_ptr<telemetry::LatencyHistogram> stageCompute;
        std::shared_ptr<telemetry::LatencyHistogram> latency;
        std::shared_ptr<telemetry::LatencyHistogram> batchSize;
        std::shared_ptr<telemetry::Counter> enqueued;
        std::shared_ptr<telemetry::Counter> completed;
        std::shared_ptr<telemetry::Counter> rejected;
        std::shared_ptr<telemetry::Counter> expired;
        std::shared_ptr<telemetry::Counter> batches;
        std::shared_ptr<telemetry::Counter> fallbacks;
        std::shared_ptr<telemetry::Counter> degradeEnter;
        std::shared_ptr<telemetry::Counter> degradeExit;
        std::shared_ptr<telemetry::Gauge> queueDepth;
        std::shared_ptr<telemetry::Gauge> inflight;
        std::shared_ptr<telemetry::Gauge> batchOccupancy;
        std::shared_ptr<telemetry::Gauge> degradedGauge;
    };
    Telemetry tm_;
    std::atomic<int64_t> inflight_{0}; ///< admitted, not yet fulfilled.

    std::atomic<bool> stopped_{false};
    /** Serializes stop() against itself; stop() closes the queue while
     *  holding it, giving the documented order: server stop lock
     *  before the queue lock (docs/static_analysis.md). */
    Mutex stopMutex_ NEURO_ACQUIRED_BEFORE(queue_.mutex_);
    /** Written once in the constructor, joined under stopMutex_. */
    std::thread dispatcher_;
};

} // namespace serve
} // namespace neuro
