/**
 * @file
 * Homeostatic threshold adaptation (Section 2.2). At the end of every
 * homeostasis epoch (a fixed span of simulated time, 1,500,000 ms = 3000
 * images with paper parameters) each neuron's firing threshold is nudged:
 *   threshold += sign(activity - homeostasis_threshold) * threshold * r,
 * punishing over-active neurons and promoting silent ones so that all
 * output neurons specialize. The process is local to each neuron except
 * for the single epoch counter, mirroring the low wiring overhead of the
 * hardware implementation.
 */

#pragma once

#include <cstdint>
#include <vector>

namespace neuro {
namespace snn {

/** Homeostasis parameters (paper values of Table 1). */
struct HomeostasisConfig
{
    bool enabled = true;         ///< ablation switch.
    int64_t epochMs = 1500000;   ///< epoch length in simulated ms.
    double activityTarget = 30;  ///< homeostasis_threshold (fires/epoch).
    double rate = 0.05;          ///< multiplicative constant r (up).
    /** Downward adjustments use rate * downFactor: silent neurons ease
     *  their thresholds down slowly, so the firing scale of the WTA
     *  race does not collapse. */
    double downFactor = 0.25;
    double minThreshold = 1.0;   ///< floor to keep neurons excitable.
};

/** Tracks the epoch counter and applies threshold updates. */
class Homeostasis
{
  public:
    explicit Homeostasis(const HomeostasisConfig &config);

    /** @return the configuration. */
    const HomeostasisConfig &config() const { return config_; }

    /**
     * Advance simulated time by @p dt_ms; if one or more epoch
     * boundaries are crossed, adjust every neuron's threshold from its
     * fire count and reset the counts. The arrays are SnnNetwork's
     * structure-of-arrays layout, @p count entries each.
     *
     * @return number of epoch boundaries processed.
     */
    int advance(int64_t dt_ms, double *thresholds, uint32_t *fireCounts,
                std::size_t count);

    /** @return total epochs processed so far. */
    int64_t epochsProcessed() const { return epochs_; }

  private:
    void applyEpoch(double *thresholds, uint32_t *fireCounts,
                    std::size_t count);

    HomeostasisConfig config_;
    int64_t elapsedInEpoch_ = 0;
    int64_t epochs_ = 0;
};

} // namespace snn
} // namespace neuro

