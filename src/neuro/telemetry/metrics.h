/**
 * @file
 * Typed metrics registry — the one aggregation point of the repo's
 * counted signals (docs/observability.md). Every counter, gauge and
 * distribution the library records lands here, always on:
 *
 * - Counter    — monotonic uint64 (requests completed, spikes seen);
 * - Gauge      — last-write-wins double (queue depth, epoch error);
 * - Histogram  — the log-bucketed LatencyHistogram (stage latencies,
 *   `scope/<name>` timings in µs, per-image sample distributions).
 *
 * A series is a name plus one optional label, `model`: each
 * InferenceServer writes `serve.*{model="<name>"}` so per-model load
 * stays visible, and everything else is unlabeled. A name has one
 * kind across all its labels.
 *
 * Metrics are created on first use and live for the process lifetime;
 * handles returned by counter()/gauge()/histogram() are shared_ptrs
 * that stay valid forever, so hot paths pay one relaxed atomic per
 * update and never re-lookup by name (the profile.h call-site macros
 * resolve their handle once, on first execution). Names are dotted
 * (`serve.stage.queue`) or slash-scoped (`scope/snn/train`).
 *
 * The process-wide registry (instance()) is what the Sampler snapshots
 * and the text/Prometheus/JSON/CSV exporters serialize (export.h);
 * separate MetricRegistry objects can be constructed for tests.
 * Components writing the same series (two servers with one model
 * label) share it: counters accumulate and gauges reflect the most
 * recent writer — reset via resetValues() between measurement runs
 * when per-run numbers are wanted, or give each run its own label.
 */

#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "neuro/common/mutex.h"
#include "neuro/telemetry/histogram.h"

namespace neuro {
namespace telemetry {

/** Monotonic event counter (thread-safe, relaxed). */
class Counter
{
  public:
    /** Add @p delta to the counter. @return the new total. */
    uint64_t
    inc(uint64_t delta = 1)
    {
        return value_.fetch_add(delta, std::memory_order_relaxed) +
               delta;
    }

    /** @return the current value. */
    uint64_t
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    /** Zero the counter (measurement-run bookkeeping, not rollover). */
    void reset() { value_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<uint64_t> value_{0};
};

/** Last-write-wins instantaneous value (thread-safe, relaxed). */
class Gauge
{
  public:
    /** Set the gauge to @p v. */
    void
    set(double v)
    {
        value_.store(v, std::memory_order_relaxed);
    }

    /** @return the most recently set value. */
    double
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    /** Reset to zero. */
    void reset() { value_.store(0.0, std::memory_order_relaxed); }

  private:
    std::atomic<double> value_{0.0};
};

/**
 * A point-in-time copy of every registered metric, sorted by name and
 * then label within each kind (the unlabeled series first) — the
 * deterministic input of every exporter.
 */
struct MetricsSnapshot
{
    struct CounterValue
    {
        std::string name;
        std::string model; ///< label value; empty = unlabeled.
        uint64_t value = 0;
    };
    struct GaugeValue
    {
        std::string name;
        std::string model;
        double value = 0.0;
    };
    struct HistogramValue
    {
        std::string name;
        std::string model;
        LatencyHistogram::Summary summary;
    };

    std::vector<CounterValue> counters;
    std::vector<GaugeValue> gauges;
    std::vector<HistogramValue> histograms;
};

/** Named counters, gauges and histograms behind one lookup. */
class MetricRegistry
{
  public:
    MetricRegistry() = default;
    MetricRegistry(const MetricRegistry &) = delete;
    MetricRegistry &operator=(const MetricRegistry &) = delete;

    /**
     * @return the process-wide registry. Deliberately never destroyed
     * (leaked on exit) so exit hooks and late-running worker threads
     * can always read it, whatever the static-destruction order.
     */
    static MetricRegistry &instance();

    /** @return the counter series @p name{model=@p model}, created on
     *  first use (empty @p model = the unlabeled series). */
    std::shared_ptr<Counter> counter(const std::string &name,
                                     const std::string &model = {});

    /** @return the gauge series, created on first use. */
    std::shared_ptr<Gauge> gauge(const std::string &name,
                                 const std::string &model = {});

    /** @return the histogram series, created on first use. */
    std::shared_ptr<LatencyHistogram>
    histogram(const std::string &name, const std::string &model = {});

    /** @return a consistent, name-sorted copy of every series. */
    MetricsSnapshot snapshot() const;

    /** Zero every metric's value; registrations and handles remain
     *  valid (between measurement runs, and in tests). */
    void resetValues();

    /** @return number of registered series (all kinds and labels). */
    std::size_t size() const;

    /** (name, model label): the key of one series. */
    using SeriesKey = std::pair<std::string, std::string>;

  private:
    /** Panics if @p name is registered under a different kind, under
     *  any label. */
    void assertKindFree(const std::string &name, const char *kind) const
        NEURO_REQUIRES(mutex_);

    mutable Mutex mutex_;
    std::map<SeriesKey, std::shared_ptr<Counter>>
        counters_ NEURO_GUARDED_BY(mutex_);
    std::map<SeriesKey, std::shared_ptr<Gauge>>
        gauges_ NEURO_GUARDED_BY(mutex_);
    std::map<SeriesKey, std::shared_ptr<LatencyHistogram>>
        histograms_ NEURO_GUARDED_BY(mutex_);
};

} // namespace telemetry
} // namespace neuro
