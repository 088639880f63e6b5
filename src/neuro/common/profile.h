/**
 * @file
 * Instrumentation call sites and observability entry points. Every
 * signal lands in the one metric registry (telemetry/metrics.h),
 * always on:
 *
 * - NEURO_PROFILE_SCOPE("snn/train") times the enclosing scope into
 *   the `scope/snn/train` histogram (µs per invocation);
 * - obsCount<"snn.input_spikes">(n) bumps a counter;
 * - obsSample<"serve.batch_size">(v) records into a histogram, whose
 *   buckets are integer-valued (counts, cycles, µs);
 * - obsGauge<"mlp.epoch_error">(v) sets a gauge (fractional values).
 *
 * Each site resolves its registry handle once, on first execution;
 * later calls take no lock, allocate nothing and look nothing up, so
 * a scope costs two clock reads and two relaxed atomic increments,
 * and a count one relaxed atomic increment. Names must be string
 * literals (they are template arguments).
 *
 * The Tracer (trace.h) is the one gated sink: while tracing, a scope
 * also brackets its region with begin/end events, and counts, samples
 * and gauges plot their value as a Chrome counter series (a counter
 * plots its new cumulative total).
 *
 * The NEURO_TRACE, NEURO_STATS_DUMP and NEURO_METRICS environment
 * variables choose the exit-time outputs of any binary linking
 * neuro_common, with no code changes: the trace file, the text stats
 * dump on stderr, and the Prometheus/JSON/CSV export. One atexit
 * routine, registered by profile.cc's environment initializer, runs
 * them in a fixed order: metrics flush, stats dump, trace finalizer.
 */

#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>

#include "neuro/common/trace.h"
#include "neuro/telemetry/metrics.h"

namespace neuro {

/** A string literal as a template argument: the name of one
 *  instrumentation site (`obsCount<"snn.input_spikes">`). */
template <std::size_t N>
struct SiteName
{
    // Implicit on purpose: the literal converts at the call site.
    // NOLINTNEXTLINE(google-explicit-constructor)
    constexpr SiteName(const char (&s)[N]) { std::copy_n(s, N, value); }

    char value[N];
};

/**
 * @return the process registry's series behind one site, registering
 * it on first use. Call sites cache the reference (a function-local
 * static per site), so these run once per site. Out of line on
 * purpose: every instrumented object file then links profile.cc,
 * whose static initializer applies NEURO_TRACE / NEURO_STATS_DUMP /
 * NEURO_METRICS in any binary.
 */
telemetry::Counter &siteCounter(const char *name);
telemetry::Gauge &siteGauge(const char *name);
telemetry::LatencyHistogram &siteHistogram(const std::string &name);

/** @return the `scope/<Name>` histogram, resolved on first use. */
template <SiteName Name>
telemetry::LatencyHistogram &
scopeHistogram()
{
    static telemetry::LatencyHistogram &histogram =
        siteHistogram(std::string("scope/") + Name.value);
    return histogram;
}

/**
 * RAII scope timer: records the scope's wall time (µs) into its
 * histogram and, while tracing, brackets the region with begin/end
 * trace events. Built by NEURO_PROFILE_SCOPE.
 */
class ProfileScope
{
  public:
    ProfileScope(telemetry::LatencyHistogram &histogram, const char *name)
        : histogram_(histogram), name_(name), traced_(Tracer::enabled())
    {
        if (traced_)
            Tracer::instance().begin(name_);
        start_ = std::chrono::steady_clock::now();
    }

    ~ProfileScope()
    {
        const auto dt = std::chrono::steady_clock::now() - start_;
        histogram_.record(
            std::chrono::duration<double, std::micro>(dt).count());
        if (traced_)
            Tracer::instance().end(name_);
    }

    ProfileScope(const ProfileScope &) = delete;
    ProfileScope &operator=(const ProfileScope &) = delete;

  private:
    telemetry::LatencyHistogram &histogram_;
    const char *name_;
    bool traced_;
    std::chrono::steady_clock::time_point start_;
};

#define NEURO_PROFILE_CONCAT2(a, b) a##b
#define NEURO_PROFILE_CONCAT(a, b) NEURO_PROFILE_CONCAT2(a, b)

/** Time the enclosing scope under the given hierarchical name (a
 *  string literal). */
#define NEURO_PROFILE_SCOPE(name)                                       \
    ::neuro::ProfileScope NEURO_PROFILE_CONCAT(neuroProfileScope_,      \
                                               __LINE__)(               \
        ::neuro::scopeHistogram<name>(), name)

/** Add @p delta to the counter @p Name; while tracing, plot its new
 *  total as a Chrome counter series. */
template <SiteName Name>
void
obsCount(uint64_t delta = 1)
{
    static telemetry::Counter &counter = siteCounter(Name.value);
    const uint64_t total = counter.inc(delta);
    if (Tracer::enabled())
        Tracer::instance().counter(Name.value, static_cast<double>(total));
}

/** Record @p v into the histogram @p Name (rounded to an integer);
 *  while tracing, also plot the sample as a counter series. */
template <SiteName Name>
void
obsSample(double v)
{
    static telemetry::LatencyHistogram &histogram =
        siteHistogram(Name.value);
    histogram.record(v);
    if (Tracer::enabled())
        Tracer::instance().counter(Name.value, v);
}

/** Set the gauge @p Name to @p v; while tracing, also plot it. */
template <SiteName Name>
void
obsGauge(double v)
{
    static telemetry::Gauge &gauge = siteGauge(Name.value);
    gauge.set(v);
    if (Tracer::enabled())
        Tracer::instance().counter(Name.value, v);
}

} // namespace neuro
