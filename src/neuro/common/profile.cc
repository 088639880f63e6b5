#include "neuro/common/profile.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <iostream>
#include <utility>
#include <vector>

#include "neuro/common/config.h"
#include "neuro/common/logging.h"
#include "neuro/common/mutex.h"
#include "neuro/telemetry/export.h"
#include "neuro/telemetry/telemetry.h"

namespace neuro {

namespace {

/** One registered shutdown step (see addObservabilityExitHook). */
struct ExitHook
{
    int priority = 0;
    std::size_t seq = 0; ///< registration order, for stable ties.
    std::function<void()> fn;
};

/** Registered hooks behind one lock, like telemetry's GlobalTelemetry. */
struct ExitHookState
{
    Mutex mutex;
    std::vector<ExitHook> hooks NEURO_GUARDED_BY(mutex);
};

ExitHookState &
exitHookState()
{
    // Leaked so late registrations during exit never touch a
    // destroyed vector.
    static ExitHookState *state = new ExitHookState();
    return *state;
}

/** Run every registered hook in priority order (registered once). */
void
observabilityAtExit()
{
    ExitHookState &state = exitHookState();
    std::vector<ExitHook> hooks;
    {
        MutexGuard lock(state.mutex);
        hooks = state.hooks;
    }
    std::stable_sort(hooks.begin(), hooks.end(),
                     [](const ExitHook &a, const ExitHook &b) {
                         return a.priority < b.priority;
                     });
    for (const ExitHook &hook : hooks)
        hook.fn();
}

void
registerAtExitOnce()
{
    static bool registered = false;
    if (registered)
        return;
    registered = true;
    // Built-in shutdown step. The telemetry flush (priority 10) and
    // the stats dump (20) register themselves when requested, so the
    // full sequence is: metrics flush, stats dump, trace finalizer.
    addObservabilityExitHook(30, [] { Tracer::instance().stop(); });
    std::atexit(observabilityAtExit);
}

/** Print the metric registry as text to stderr at exit (once, however
 *  many times NEURO_STATS_DUMP / --stats-dump asks for it). */
void
requestStatsDump()
{
    static std::atomic<bool> requested{false};
    if (requested.exchange(true, std::memory_order_relaxed))
        return;
    addObservabilityExitHook(20, [] {
        const telemetry::MetricsSnapshot snap =
            telemetry::MetricRegistry::instance().snapshot();
        // The process is exiting: logging may already be torn down,
        // and stderr is the documented sink for NEURO_STATS_DUMP.
        // neurolint: allow(R3)
        telemetry::writeText(snap, std::cerr);
    });
}

/**
 * Environment-only bootstrap: NEURO_TRACE / NEURO_STATS_DUMP /
 * NEURO_METRICS choose the outputs of any binary linking this
 * library, so every bench and example can report without code
 * changes. Config-driven setup (initObservability) still applies on
 * top for the CLI.
 */
struct EnvObservabilityInit
{
    EnvObservabilityInit()
    {
        // Static-init, single-threaded; nothing here races setenv.
        // NOLINTNEXTLINE(concurrency-mt-unsafe)
        const char *trace = std::getenv("NEURO_TRACE");
        // NOLINTNEXTLINE(concurrency-mt-unsafe)
        const char *dump = std::getenv("NEURO_STATS_DUMP");
        if (trace && *trace && Tracer::instance().start(trace))
            registerAtExitOnce();
        if (dump && *dump && std::string(dump) != "0")
            requestStatsDump();
        // NOLINTNEXTLINE(concurrency-mt-unsafe)
        const char *metrics = std::getenv("NEURO_METRICS");
        if (metrics && *metrics) {
            telemetry::TelemetryConfig tcfg;
            tcfg.path = metrics;
            // NOLINTNEXTLINE(concurrency-mt-unsafe)
            const char *period =
                std::getenv("NEURO_METRICS_PERIOD_MS");
            if (period && *period) {
                const long long ms = std::strtoll(period, nullptr, 10);
                if (ms >= 1)
                    tcfg.periodMillis = ms;
            }
            telemetry::startGlobalTelemetry(tcfg);
        }
    }
};

EnvObservabilityInit g_envObservabilityInit;

} // namespace

telemetry::Counter &
siteCounter(const char *name)
{
    // The process registry never drops a series, so the reference
    // outlives the returned shared_ptr.
    return *telemetry::MetricRegistry::instance().counter(name);
}

telemetry::Gauge &
siteGauge(const char *name)
{
    return *telemetry::MetricRegistry::instance().gauge(name);
}

telemetry::LatencyHistogram &
siteHistogram(const std::string &name)
{
    return *telemetry::MetricRegistry::instance().histogram(name);
}

void
initObservability(const Config &cfg)
{
    const std::string trace = cfg.getString("trace", "");
    if (!trace.empty() && Tracer::instance().start(trace))
        registerAtExitOnce();
    if (cfg.getBool("stats_dump", false))
        requestStatsDump();
    const std::string metrics = cfg.getString("metrics", "");
    if (!metrics.empty()) {
        telemetry::TelemetryConfig tcfg;
        tcfg.path = metrics;
        const int64_t ms = cfg.getInt("metrics_period_ms", 100);
        if (ms >= 1)
            tcfg.periodMillis = ms;
        telemetry::startGlobalTelemetry(tcfg);
    }
}

void
addObservabilityExitHook(int priority, std::function<void()> hook)
{
    registerAtExitOnce();
    ExitHookState &state = exitHookState();
    MutexGuard lock(state.mutex);
    state.hooks.push_back(
        {priority, state.hooks.size(), std::move(hook)});
}

} // namespace neuro
