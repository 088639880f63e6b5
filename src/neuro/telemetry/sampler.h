/**
 * @file
 * Periodic metrics sampler: a background thread that snapshots a
 * MetricRegistry on a fixed period into a fixed-capacity ring buffer
 * of timestamped rows — the time-series half of the telemetry layer
 * (docs/observability.md). The ring gives the CSV timeline exporter
 * (export.h) a bounded-memory history of how every counter, gauge and
 * histogram evolved over a run; when the ring is full the oldest row
 * is dropped (and counted), so a long run keeps its most recent
 * window instead of growing without bound.
 *
 * The sampler never blocks writers: a snapshot reads each metric with
 * relaxed atomics under the registry's registration lock only.
 * sampleOnce() is public so tests and the exit routine can capture a
 * row deterministically without the thread.
 */

#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <thread>
#include <vector>

#include "neuro/common/mutex.h"
#include "neuro/telemetry/metrics.h"

namespace neuro {
namespace telemetry {

/** Sampler tuning knobs. */
struct SamplerConfig
{
    int64_t periodMillis = 100; ///< snapshot period, >= 1.
    std::size_t capacity = 2048; ///< ring rows kept, >= 1.
};

/** Background snapshotter feeding a bounded timeline ring buffer. */
class Sampler
{
  public:
    explicit Sampler(MetricRegistry &registry,
                     SamplerConfig config = {});

    /** Stops the thread if running. */
    ~Sampler();

    Sampler(const Sampler &) = delete;
    Sampler &operator=(const Sampler &) = delete;

    /** Start the background thread (idempotent). */
    void start();

    /** Stop and join the background thread (idempotent). */
    void stop();

    /** Take one snapshot row now (also usable without start()). */
    void sampleOnce();

    /** One timestamped registry snapshot. */
    struct Row
    {
        double timeS = 0.0; ///< seconds since the sampler was built.
        MetricsSnapshot snapshot;
    };

    /** @return a copy of the ring, oldest row first. */
    std::vector<Row> rows() const;

    /** @return rows evicted because the ring was full. */
    uint64_t dropped() const;

    const SamplerConfig &config() const { return config_; }

  private:
    void loop();

    MetricRegistry &registry_;
    SamplerConfig config_;
    std::chrono::steady_clock::time_point epoch_;

    mutable Mutex ringMutex_;
    std::deque<Row> ring_ NEURO_GUARDED_BY(ringMutex_);
    uint64_t dropped_ NEURO_GUARDED_BY(ringMutex_) = 0;

    /** Lock order: lifecycleMutex_ before wakeMutex_. start()/stop()
     *  take both; the background loop takes only wakeMutex_, so
     *  holding the lifecycle lock across join() cannot deadlock. */
    Mutex lifecycleMutex_ NEURO_ACQUIRED_BEFORE(wakeMutex_);
    Mutex wakeMutex_;
    CondVar wake_;
    bool stopping_ NEURO_GUARDED_BY(wakeMutex_) = false;
    bool running_ NEURO_GUARDED_BY(lifecycleMutex_) = false;
    std::thread thread_ NEURO_GUARDED_BY(lifecycleMutex_);
};

} // namespace telemetry
} // namespace neuro
