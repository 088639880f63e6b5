/**
 * @file
 * Process-wide telemetry lifecycle: one global Sampler over
 * MetricRegistry::instance(), started by `NEURO_METRICS=<path>` /
 * `--metrics=<path>` (see initObservability in profile.h) and flushed
 * to disk by an observability exit hook that runs *before* the stats
 * dump and the trace finalizer, so crashing-adjacent exits still leave
 * a readable artifact.
 *
 * The output format is selected by the path's extension:
 *
 *   .prom / .txt  Prometheus text exposition of the final snapshot
 *   .json         JSON object of the final snapshot
 *   .csv          sampler timeline (one row per sampling period)
 *   (other)       all three, at `<path>.prom/.json/.csv`
 *
 * See docs/observability.md for the full env/flag matrix.
 */

#pragma once

#include <cstdint>
#include <string>

namespace neuro {
namespace telemetry {

/** Global telemetry knobs (from env or CLI flags). */
struct TelemetryConfig
{
    std::string path;           ///< output path; extension = format.
    int64_t periodMillis = 100; ///< sampler period (ms).
    std::size_t capacity = 2048; ///< timeline rows kept.
};

/**
 * Start the global sampler and register the flush exit hook
 * (idempotent: the first call wins, later calls are ignored).
 * @return true if telemetry is active after the call.
 */
bool startGlobalTelemetry(const TelemetryConfig &config);

/**
 * Stop the sampler, take one final snapshot row, and write the
 * configured output file(s). Idempotent; called automatically at
 * process exit when telemetry is active.
 */
void flushGlobalTelemetry();

} // namespace telemetry
} // namespace neuro
