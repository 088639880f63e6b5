/**
 * @file
 * Lock-free log-bucketed latency histogram — the distribution
 * primitive of the telemetry layer (docs/observability.md). Grown in
 * the serving runtime (PR 5) and promoted here so every subsystem can
 * record latency distributions through one registry; serve is now a
 * client, not the owner.
 *
 * The record path costs two relaxed atomic increments, so readers
 * (SLO checks, exporters, the sampler) can take a consistent-enough
 * snapshot at any time without stalling writers.
 *
 * Bucketing: 8 sub-buckets per power of two ("log-linear"), covering
 * [0, ~2^36) microseconds. Quantile error is bounded by the bucket
 * width, i.e. <= 12.5% of the value — plenty for p50/p95/p99 SLO
 * tracking.
 */

#pragma once

#include <array>
#include <atomic>
#include <cstdint>

namespace neuro {
namespace telemetry {

/** Streaming latency distribution with percentile readout. */
class LatencyHistogram
{
  public:
    LatencyHistogram() = default;

    /** Record one latency sample (saturates at the top bucket). */
    void record(double micros);

    /** @return number of recorded samples. */
    uint64_t count() const;

    /**
     * @return an upper bound of the @p q quantile in microseconds
     * (q in [0, 1]; 0 if empty). Reads the buckets with relaxed
     * atomics — exact under a quiescent histogram, approximate while
     * recording continues, which is all SLO tracking needs.
     */
    double percentile(double q) const;

    /** @return the largest recorded sample (bucket upper bound). */
    double maxMicros() const;

    /**
     * @return an upper bound of the sum of all recorded samples
     * (microseconds): each sample counts as its bucket's upper bound,
     * so the record path stays two atomic increments. Feeds the
     * Prometheus summary `_sum` series.
     */
    double sumMicros() const;

    /** Forget all samples (not linearizable vs concurrent record()). */
    void reset();

    /** Point-in-time percentile summary. */
    struct Summary
    {
        uint64_t count = 0;
        double p50Us = 0.0;
        double p95Us = 0.0;
        double p99Us = 0.0;
        double maxUs = 0.0;
        double sumUs = 0.0; ///< bucket-upper-bound sum (see sumMicros).
    };

    /** @return count + p50/p95/p99/max/sum in one pass. */
    Summary summary() const;

  private:
    static constexpr int kSubBits = 3; ///< 8 sub-buckets per octave.
    static constexpr int kBuckets = 37 << kSubBits;

    /** Log-linear bucket index of @p micros. */
    static int bucketOf(uint64_t micros);

    /** Upper-bound value (microseconds) of bucket @p index. */
    static double bucketUpperBound(int index);

    std::array<std::atomic<uint64_t>, kBuckets> buckets_{};
    std::atomic<uint64_t> count_{0};
};

} // namespace telemetry
} // namespace neuro
