/**
 * @file
 * Exporters serializing a MetricsSnapshot (and the Sampler's timeline
 * ring) into the formats the telemetry layer speaks
 * (docs/observability.md):
 *
 * - Text: the human-readable stats dump (NEURO_STATS_DUMP): one line
 *   per series, counters and gauges with their value, histograms as
 *   `count= p50= p99= max= sum=`.
 * - Prometheus text exposition: counters and gauges as plain series,
 *   histograms as summaries (`{quantile="0.5|0.95|0.99"}` plus `_sum`
 *   and `_count`); dotted metric names are sanitized to underscores,
 *   and the `model` label joins every sample of a labeled series.
 * - JSON: one object with "counters" / "gauges" / "histograms" maps —
 *   a snapshot a load harness can consume without a Prometheus parser.
 * - CSV timeline: one row per sampler tick, one column per series
 *   (histograms contribute `.count/.p50_us/.p95_us/.p99_us` columns),
 *   following the repo's `bench_*.csv` conventions (header row, %.6g
 *   values).
 *
 * Outside Prometheus a labeled series is named `name{model="m0"}`
 * (seriesKey()). Every output is deterministic for a quiescent
 * registry: series are name-sorted and every float is formatted with
 * one fixed %.6g rule, so golden-file tests and CI diffs never flake
 * on formatting or on stream state left by earlier writers.
 */

#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "neuro/telemetry/metrics.h"
#include "neuro/telemetry/sampler.h"

namespace neuro {
namespace telemetry {

/** @return @p name with every non-[a-zA-Z0-9_:] byte replaced by '_'
 *  (Prometheus metric-name alphabet). */
std::string prometheusName(const std::string &name);

/** @return `name` for an unlabeled series, else `name{model="..."}`
 *  with the label value escaped (`\\`, `\"`, `\n`). */
std::string seriesKey(const std::string &name, const std::string &model);

/** Write @p snap as the sorted, fixed-width text stats dump. */
void writeText(const MetricsSnapshot &snap, std::ostream &os);

/** Write @p snap in Prometheus text exposition format. */
void writePrometheus(const MetricsSnapshot &snap, std::ostream &os);

/** Write @p snap as a JSON object. */
void writeJson(const MetricsSnapshot &snap, std::ostream &os);

/**
 * Write the sampler timeline as CSV: header `time_s,<series>,...`
 * with columns the sorted union of every series seen across @p rows
 * (a series registered mid-run is empty in earlier rows). A header
 * cell holding a label is quoted, its quotes doubled.
 */
void writeTimelineCsv(const std::vector<Sampler::Row> &rows,
                      std::ostream &os);

} // namespace telemetry
} // namespace neuro
