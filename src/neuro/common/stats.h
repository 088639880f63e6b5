/**
 * @file
 * A streaming distribution (count, sum, min/max, mean) for
 * analyses that need exact moments of real-valued samples
 * (examples/inspect_network.cpp). Run-time signals go
 * to the metric registry instead (telemetry/metrics.h).
 */

#pragma once

#include <cstdint>

namespace neuro {

/** A streaming distribution: count, sum, min/max, mean. */
class Distribution
{
  public:
    /** Record one sample. */
    void sample(double v);

    /** @return number of samples recorded. */
    uint64_t count() const { return count_; }
    /** @return sum of samples. */
    double sum() const { return sum_; }
    /** @return smallest sample (0 if empty). */
    double min() const { return count_ ? min_ : 0.0; }
    /** @return largest sample (0 if empty). */
    double max() const { return count_ ? max_ : 0.0; }
    /** @return arithmetic mean (0 if empty). */
    double mean() const;

  private:
    uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

} // namespace neuro

