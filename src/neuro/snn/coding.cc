#include "neuro/snn/coding.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "neuro/common/logging.h"
#include "neuro/common/rng.h"

namespace neuro {
namespace snn {

std::string
codingSchemeName(CodingScheme scheme)
{
    switch (scheme) {
      case CodingScheme::RatePoisson:
        return "rate-poisson";
      case CodingScheme::RateGaussian:
        return "rate-gaussian";
      case CodingScheme::RateRegular:
        return "rate-regular";
      case CodingScheme::RateBernoulli:
        return "rate-bernoulli";
      case CodingScheme::TimeToFirstSpike:
        return "time-to-first-spike";
      case CodingScheme::RankOrder:
        return "rank-order";
    }
    panic("unreachable coding scheme");
}

SpikeEncoder::SpikeEncoder(const CodingConfig &config)
    : config_(config)
{
    NEURO_ASSERT(config_.periodMs > 0, "presentation period must be > 0");
    NEURO_ASSERT(config_.minIntervalMs > 0, "min interval must be > 0");
}

namespace {

/**
 * Spike generation: records every spike in @p grid, in per-pixel time
 * order within a pixel-major (or, for rank order, rank-major) sweep.
 */
void
emitRate(const CodingConfig &config, const uint8_t *pixels, std::size_t n,
         Rng &rng, PackedSpikeGrid &grid)
{
    const double period = static_cast<double>(config.periodMs);
    const double min_interval = static_cast<double>(config.minIntervalMs);
    for (std::size_t p = 0; p < n; ++p) {
        if (pixels[p] == 0)
            continue; // zero luminance, zero rate.
        // Rate proportional to luminance: mean inter-spike interval.
        const double mean =
            min_interval * 255.0 / static_cast<double>(pixels[p]);
        switch (config.scheme) {
          case CodingScheme::RatePoisson: {
            // Sub-millisecond inter-arrivals can land two draws on the
            // same tick; they merge (one spike per pixel per cycle).
            int last_tick = -1;
            double t = rng.exponential(mean);
            while (t < period) {
                const int tick = static_cast<int>(t);
                if (tick != last_tick) {
                    grid.addSpike(tick, static_cast<uint16_t>(p));
                    last_tick = tick;
                }
                t += rng.exponential(mean);
            }
            break;
          }
          case CodingScheme::RateGaussian: {
            // Gaussian inter-arrival: the SNNwt hardware's CLT
            // generator (sigma configurable, truncated at 1 ms, so
            // ticks are always distinct).
            const double sigma = config.gaussianSigmaFactor * mean;
            double t = std::max(1.0, rng.gaussian(mean, sigma));
            while (t < period) {
                grid.addSpike(static_cast<int>(t), static_cast<uint16_t>(p));
                t += std::max(1.0, rng.gaussian(mean, sigma));
            }
            break;
          }
          case CodingScheme::RateRegular: {
            // Deterministic spacing with a random initial phase so pixel
            // trains are not all aligned.
            double t = rng.uniform(0.0, mean);
            while (t < period) {
                grid.addSpike(static_cast<int>(t), static_cast<uint16_t>(p));
                t += mean;
            }
            break;
          }
          case CodingScheme::RateBernoulli: {
            const double prob = 1.0 / mean;
            for (int t = 0; t < config.periodMs; ++t) {
                if (rng.uniform() < prob)
                    grid.addSpike(t, static_cast<uint16_t>(p));
            }
            break;
          }
          default:
            panic("emitRate called with a temporal scheme");
        }
    }
}

void
emitTemporal(const CodingConfig &config, const uint8_t *pixels,
             std::size_t n, PackedSpikeGrid &grid)
{
    const std::size_t period = static_cast<std::size_t>(config.periodMs);
    if (config.scheme == CodingScheme::TimeToFirstSpike) {
        // One spike per pixel; brighter pixels fire earlier:
        // t = Tperiod * (1 - p/255). Zero-luminance pixels never fire.
        for (std::size_t p = 0; p < n; ++p) {
            if (pixels[p] == 0)
                continue;
            const auto t = static_cast<int>(
                std::lround(static_cast<double>(period - 1) *
                            (1.0 - static_cast<double>(pixels[p]) / 255.0)));
            grid.addSpike(t, static_cast<uint16_t>(p));
        }
        return;
    }

    // Rank-order coding: pixels spike one rank at a time in decreasing
    // luminance order, equally spaced across the window (ties broken by
    // pixel index, matching a hardware priority encoder).
    std::vector<uint32_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [&](uint32_t a, uint32_t b) {
                         return pixels[a] > pixels[b];
                     });
    std::size_t active = 0;
    for (std::size_t p = 0; p < n; ++p)
        if (pixels[p] > 0)
            ++active;
    if (active == 0)
        return;
    for (std::size_t rank = 0; rank < active; ++rank) {
        const std::size_t t = rank * period / active;
        grid.addSpike(static_cast<int>(t),
                      static_cast<uint16_t>(order[rank]));
    }
}

void
emitSpikes(const CodingConfig &config, const uint8_t *pixels,
           std::size_t n, Rng &rng, PackedSpikeGrid &grid)
{
    switch (config.scheme) {
      case CodingScheme::RatePoisson:
      case CodingScheme::RateGaussian:
      case CodingScheme::RateRegular:
      case CodingScheme::RateBernoulli:
        emitRate(config, pixels, n, rng, grid);
        break;
      case CodingScheme::TimeToFirstSpike:
      case CodingScheme::RankOrder:
        emitTemporal(config, pixels, n, grid);
        break;
    }
}

} // namespace

void
SpikeEncoder::encodePacked(const uint8_t *pixels, std::size_t num_pixels,
                           Rng &rng, PackedSpikeGrid &grid) const
{
    grid.reset(num_pixels, config_.periodMs);
    emitSpikes(config_, pixels, num_pixels, rng, grid);
    grid.finalize();
}

uint8_t
SpikeEncoder::spikeCount(uint8_t pixel) const
{
    // Expected spikes in the window at the pixel's rate: the hardware
    // emits this directly as a 4-bit value instead of a unary train.
    const double max_spikes = static_cast<double>(config_.periodMs) /
        static_cast<double>(config_.minIntervalMs);
    const double n =
        max_spikes * static_cast<double>(pixel) / 255.0;
    return static_cast<uint8_t>(std::lround(n));
}

uint8_t
SpikeEncoder::maxSpikeCount() const
{
    return spikeCount(255);
}

} // namespace snn
} // namespace neuro
