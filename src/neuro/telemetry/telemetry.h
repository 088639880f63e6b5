/**
 * @file
 * Process-wide telemetry lifecycle: one global Sampler over
 * MetricRegistry::instance(), started by `NEURO_METRICS=<path>` (see
 * profile.h) and flushed to disk by the observability exit routine
 * *before* the stats dump and the trace finalizer, so
 * crashing-adjacent exits still leave a readable artifact.
 *
 * The output format is selected by the path's extension:
 *
 *   .prom / .txt  Prometheus text exposition of the final snapshot
 *   .json         JSON object of the final snapshot
 *   .csv          sampler timeline (one row per sampling period)
 *   (other)       all three, at `<path>.prom/.json/.csv`
 *
 * See docs/observability.md for the full environment matrix.
 */

#pragma once

#include <cstdint>
#include <string>

namespace neuro {
namespace telemetry {

/** Global telemetry knobs (from the NEURO_METRICS* environment). */
struct TelemetryConfig
{
    std::string path;           ///< output path; extension = format.
    int64_t periodMillis = 100; ///< sampler period (ms).
};

/** Start the global sampler. Called once, by the environment
 *  initializer in profile.cc. */
void startGlobalTelemetry(const TelemetryConfig &config);

/**
 * Stop the sampler, take one final snapshot row, and write the
 * configured output file(s). Called by the exit routine; a no-op when
 * telemetry was never started or was already flushed.
 */
void flushGlobalTelemetry();

} // namespace telemetry
} // namespace neuro
