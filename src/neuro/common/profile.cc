#include "neuro/common/profile.h"

#include <cstdlib>
#include <iostream>
#include <string>

#include "neuro/telemetry/export.h"
#include "neuro/telemetry/telemetry.h"

namespace neuro {

namespace {

/** Set once, by the environment initializer below. */
bool g_statsDump = false;

/**
 * The one exit routine, in a fixed order: metrics flush first, so the
 * export exists even if a later step misbehaves, then the stats dump,
 * then the trace finalizer.
 */
void
observabilityAtExit()
{
    telemetry::flushGlobalTelemetry();
    if (g_statsDump) {
        const telemetry::MetricsSnapshot snap =
            telemetry::MetricRegistry::instance().snapshot();
        // The process is exiting: logging may already be torn down,
        // and stderr is the documented sink for NEURO_STATS_DUMP.
        // neurolint: allow(R3)
        telemetry::writeText(snap, std::cerr);
    }
    Tracer::instance().stop();
}

/**
 * The only place the observability settings are read: NEURO_TRACE /
 * NEURO_STATS_DUMP / NEURO_METRICS / NEURO_METRICS_PERIOD_MS choose
 * the outputs of any binary linking this library, so every bench and
 * example can report without code changes.
 */
struct EnvObservabilityInit
{
    EnvObservabilityInit()
    {
        // Constructed before the atexit registration, so the tracer
        // outlives the exit routine.
        Tracer &tracer = Tracer::instance();
        // Static-init, single-threaded; nothing here races setenv.
        // NOLINTNEXTLINE(concurrency-mt-unsafe)
        const char *trace = std::getenv("NEURO_TRACE");
        if (trace && *trace)
            tracer.start(trace);
        // NOLINTNEXTLINE(concurrency-mt-unsafe)
        const char *dump = std::getenv("NEURO_STATS_DUMP");
        g_statsDump = dump && *dump && std::string(dump) != "0";
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
        std::atexit(observabilityAtExit);
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

} // namespace neuro
