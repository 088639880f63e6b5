/**
 * @file
 * Spike coding schemes (Sections 3.1 and 5). Pixels are converted into
 * spike trains over one image-presentation window (Tperiod, 1 ms
 * resolution, "one clock cycle models one millisecond" in hardware).
 *
 * A pixel emits at most one spike per 1 ms tick: one clock cycle models
 * one millisecond, and the hardware spike generator cannot fire twice in
 * a cycle, so sub-millisecond Poisson inter-arrivals merge into one
 * spike. Trains land in an event-indexed `PackedSpikeGrid`, in emission
 * order (its finalize() would merge a repeat too).
 *
 * Rate codes (four variants, rate proportional to luminance; maximum
 * luminance 255 maps to the minimum mean inter-spike interval U = 50 ms,
 * i.e. 10 spikes in a 500 ms window):
 *  - RatePoisson:   exponential inter-arrival times (the reference code);
 *  - RateGaussian:  Gaussian inter-arrival times (the hardware-friendly
 *                   CLT generator the SNNwt accelerator uses);
 *  - RateRegular:   deterministic, evenly spaced spikes;
 *  - RateBernoulli: per-tick firing probability.
 *
 * Temporal codes (two variants):
 *  - TimeToFirstSpike: one spike per pixel at a latency decreasing with
 *    luminance;
 *  - RankOrder: one spike per pixel, ordered by luminance rank.
 */

#pragma once

#include <cstdint>
#include <string>

#include "neuro/snn/spike_bits.h"

namespace neuro {

class Rng;

namespace snn {

/** Available input coding schemes. */
enum class CodingScheme
{
    RatePoisson,
    RateGaussian,
    RateRegular,
    RateBernoulli,
    TimeToFirstSpike,
    RankOrder,
};

/** @return a printable name for @p scheme. */
std::string codingSchemeName(CodingScheme scheme);

/** Encoder configuration (paper values of Table 1). */
struct CodingConfig
{
    CodingScheme scheme = CodingScheme::RatePoisson;
    int periodMs = 500;      ///< Tperiod, image presentation window.
    int minIntervalMs = 50;  ///< U, mean interval at max luminance.
    /** RateGaussian: inter-arrival stddev as a fraction of the mean
     *  (the CLT generator's spread; 0 degenerates to regular firing). */
    double gaussianSigmaFactor = 0.5;
};

/** Converts 8-bit pixels into spike trains. */
class SpikeEncoder
{
  public:
    explicit SpikeEncoder(const CodingConfig &config);

    /** @return the configuration. */
    const CodingConfig &config() const { return config_; }

    /**
     * Encode one image of @p num_pixels luminance values into @p grid
     * (reset to that width and the period, finalized on return; its
     * buffers are reused). All six coding schemes are supported.
     */
    void encodePacked(const uint8_t *pixels, std::size_t num_pixels,
                      Rng &rng, PackedSpikeGrid &grid) const;

    /**
     * The SNNwot deterministic conversion (Section 4.2.2): the number of
     * spikes a pixel would emit, as the 4-bit value the hardware
     * generates directly (0..periodMs/minIntervalMs).
     */
    uint8_t spikeCount(uint8_t pixel) const;

    /** @return the maximum spikeCount() value (10 with paper settings). */
    uint8_t maxSpikeCount() const;

  private:
    CodingConfig config_;
};

} // namespace snn
} // namespace neuro

