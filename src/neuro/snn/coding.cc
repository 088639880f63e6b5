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

namespace {

/** Largest period / minInterval ratio whose Poisson thresholds, and the
 *  uniform products compared with them, stay normal doubles (the
 *  smallest threshold is exp(-ratio); a product can fall 2^-53 below
 *  it). */
constexpr double kMaxSkipRatio = 600.0;

/** The mean inter-spike interval of a pixel (rate codes). */
double
meanInterval(const CodingConfig &config, uint8_t pixel)
{
    return static_cast<double>(config.minIntervalMs) * 255.0 /
        static_cast<double>(pixel);
}

} // namespace

SpikeEncoder::SpikeEncoder(const CodingConfig &config)
    : config_(config)
{
    NEURO_ASSERT(config_.periodMs > 0, "presentation period must be > 0");
    NEURO_ASSERT(config_.minIntervalMs > 0, "min interval must be > 0");
    horizonSkip_ = config_.scheme == CodingScheme::RatePoisson &&
        static_cast<double>(config_.periodMs) /
                static_cast<double>(config_.minIntervalMs) <=
            kMaxSkipRatio;
    if (!horizonSkip_)
        return;
    horizonThresholds_.assign((kHorizonShifts + 1) * 256, 0.0);
    for (int k = 0; k <= kHorizonShifts; ++k) {
        const double h = static_cast<double>(config_.periodMs >> k);
        for (int px = 1; px < 256; ++px) {
            const double mean =
                meanInterval(config_, static_cast<uint8_t>(px));
            horizonThresholds_[static_cast<std::size_t>(k * 256 + px)] =
                std::exp(-h / mean);
        }
    }
}

namespace {

/** Spikes a rate code should emit below tick @p ticks, with headroom:
 *  what the raw buffers reserve (a temporal code emits fewer). */
std::size_t
expectedSpikes(const CodingConfig &config, const uint8_t *pixels,
               std::size_t n, int ticks)
{
    uint64_t luminance = 0;
    for (std::size_t p = 0; p < n; ++p)
        luminance += pixels[p];
    const double expected = static_cast<double>(luminance) *
        static_cast<double>(ticks) /
        (255.0 * static_cast<double>(config.minIntervalMs));
    return static_cast<std::size_t>(expected * 1.125) + 16;
}

/**
 * Spike generation: records every spike in @p grid, in per-pixel time
 * order within a pixel-major (or, for rank order, rank-major) sweep.
 */
void
emitRate(const CodingConfig &config, const uint8_t *pixels, std::size_t n,
         Rng &rng, PackedSpikeGrid &grid)
{
    const double period = static_cast<double>(config.periodMs);
    for (std::size_t p = 0; p < n; ++p) {
        if (pixels[p] == 0)
            continue; // zero luminance, zero rate.
        // Rate proportional to luminance: mean inter-spike interval.
        const double mean = meanInterval(config, pixels[p]);
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
            // Gaussian inter-arrival, standing in for the SNNwt
            // hardware's CLT generator with Box-Muller deviates (sigma
            // configurable, truncated at 1 ms, so ticks are always
            // distinct).
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

/** Rng::exponential's uniform: redrawn while zero. */
double
positiveUniform(Rng &rng)
{
    double u;
    do {
        u = rng.uniform();
    } while (u <= 0.0);
    return u;
}

/** Rng::exponential's deviate for its uniform @p u. */
double
exponentialOf(double u, double mean)
{
    return -mean * std::log(u);
}

/**
 * RatePoisson below tick @p horizon (< period), drawing every pixel's
 * full train from @p rng. Below the horizon a pixel runs emitRate's
 * recurrence exactly. Its time after k draws is -mean * log(P_k), P_k
 * the product of its uniforms, to about 1e-13 relative at <= 50
 * draws; so a product below exp(-horizon/mean) by more than @p band
 * (relative) lies past the horizon, and needs no logarithm. Past the
 * horizon the product alone decides when the train ends: below
 * exp(-period/mean) by more than the band it has ended, above it by
 * more than the band it draws again. Inside the band the pixel's
 * draws are replayed from its first through emitRate's exact
 * recurrence. The draws, and so the Rng state, are emitRate's.
 *
 * @param horizon_thr  exp(-horizon/mean) per luminance, or nullptr to
 *                     compute it per pixel.
 * @param period_thr   exp(-period/mean) per luminance.
 */
void
emitPoissonHorizon(const CodingConfig &config, const uint8_t *pixels,
                   std::size_t n, Rng &rng, int horizon,
                   const double *horizon_thr, const double *period_thr,
                   double band, PackedSpikeGrid &grid)
{
    const double period = static_cast<double>(config.periodMs);
    const double h = static_cast<double>(horizon);
    for (std::size_t p = 0; p < n; ++p) {
        const uint8_t px = pixels[p];
        if (px == 0)
            continue;
        const double mean = meanInterval(config, px);
        const double past_h =
            (horizon_thr ? horizon_thr[px] : std::exp(-h / mean)) *
            (1.0 - band);
        const double end_lo = period_thr[px] * (1.0 - band);
        const double end_hi = period_thr[px] * (1.0 + band);
        const Rng first_draw = rng;
        double t = 0.0;
        double prod = 1.0;
        int last_tick = -1;
        for (;;) {
            const double u = positiveUniform(rng);
            prod *= u;
            if (prod < past_h)
                break;
            t += exponentialOf(u, mean);
            if (t >= h)
                break;
            const int tick = static_cast<int>(t);
            if (tick != last_tick) {
                grid.addSpike(tick, static_cast<uint16_t>(p));
                last_tick = tick;
            }
        }
        while (prod >= end_lo) {
            if (prod <= end_hi) {
                rng = first_draw;
                t = rng.exponential(mean);
                while (t < period)
                    t += rng.exponential(mean);
                break;
            }
            prod *= positiveUniform(rng);
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
    grid.reserve(
        expectedSpikes(config_, pixels, num_pixels, config_.periodMs));
    emitSpikes(config_, pixels, num_pixels, rng, grid);
    grid.finalize();
}

void
SpikeEncoder::encodeHorizon(const uint8_t *pixels, std::size_t num_pixels,
                            Rng &rng, int horizon,
                            PackedSpikeGrid &grid) const
{
    NEURO_ASSERT(horizon > 0, "horizon must be > 0");
    const int period = config_.periodMs;
    if (!horizonSkip_ || horizon >= period) {
        encodePacked(pixels, num_pixels, rng, grid);
        return;
    }
    const double *horizon_thr = nullptr;
    for (int k = 1; k <= kHorizonShifts; ++k) {
        if ((period >> k) == horizon) {
            horizon_thr =
                &horizonThresholds_[static_cast<std::size_t>(k) * 256];
        }
    }
    grid.reset(num_pixels, period, horizon);
    grid.reserve(expectedSpikes(config_, pixels, num_pixels, horizon));
    emitPoissonHorizon(config_, pixels, num_pixels, rng, horizon,
                       horizon_thr, horizonThresholds_.data(),
                       horizonBand_, grid);
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
