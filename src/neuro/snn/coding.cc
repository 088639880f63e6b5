#include "neuro/snn/coding.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "neuro/common/logging.h"
#include "neuro/common/profile.h"
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
            // half the mean, truncated at 1 ms, so ticks are always
            // distinct).
            constexpr double kSigmaFactor = 0.5;
            const double sigma = kSigmaFactor * mean;
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

/** One lit pixel of a horizon encode, as pass A reads it: its train
 *  has ended once the product of its uniforms falls below endLo, and a
 *  product in [endLo, endHi] is too close to the end to call. */
struct LitPixel
{
    double endLo;
    double endHi;
};

/** A lit pixel pass B visits: its draws and its horizon threshold. */
struct Visit
{
    double pastH;   ///< exp(-horizon/mean) * (1 - band).
    uint32_t begin; ///< its first draw.
    uint32_t end;   ///< one past its last draw.
    uint16_t pixel; ///< its pixel index.
};

/** Per-thread scratch of emitPoissonHorizon(), grown, never shrunk. */
struct HorizonScratch
{
    /** The lit pixels, then a sentinel (pass A reads one ahead). */
    std::vector<LitPixel> lit;
    std::vector<uint16_t> litIndex;  ///< pixel index of each lit pixel.
    std::vector<uint32_t> ends;      ///< one past each one's last draw.
    std::vector<double> draws;       ///< the image's uniforms, in order.
    /** After each draw, the product of its pixel's draws so far. */
    std::vector<double> prods;
    std::vector<Visit> visits;       ///< the pixels pass B visits.
};

/** Pass A's running state, {product, end threshold}, as a GNU vector. */
using ProdAndEnd = double __attribute__((vector_size(16)));

/** Grow @p v to at least @p n elements. */
template <typename T>
T *
atLeast(std::vector<T> &v, std::size_t n)
{
    if (v.size() < n)
        v.resize(n);
    return v.data();
}

/**
 * RatePoisson below tick @p horizon (< period), drawing every pixel's
 * full train from @p rng, in two passes.
 *
 * Pass A draws the image's whole uniform stream with one branch-free
 * loop, storing each uniform and its pixel's running product P. Once P
 * falls below exp(-period/mean) the train has ended, and the next draw
 * opens the next lit pixel. A pixel's time after k draws is
 * -mean * log(P_k) to about 1e-13 relative at <= 50 draws, so P
 * decides the end exactly unless it lies within a relative @p band of
 * the threshold. The products fall with every draw, so only the last
 * one above the threshold can lie in that band.
 *
 * Pass B runs emitRate's recurrence over the stored uniforms below the
 * horizon. A product below exp(-horizon/mean) by more than the band
 * lies past the horizon, so pixels whose first uniform does are
 * skipped, and the others stop there without a logarithm.
 *
 * @param horizon_thr  exp(-horizon/mean) per luminance, or nullptr to
 *                     compute it per pixel.
 * @param period_thr   exp(-period/mean) per luminance, [0] = 0.
 * @return false, with @p rng and @p grid untouched, when a product fell
 *         inside the band, a uniform was zero (Rng::exponential would
 *         redraw it) or the draws outran their buffer: the caller then
 *         encodes the whole window exactly.
 */
bool
emitPoissonHorizon(const CodingConfig &config, const uint8_t *pixels,
                   std::size_t n, Rng &rng, int horizon,
                   const double *horizon_thr, const double *period_thr,
                   double band, PackedSpikeGrid &grid)
{
    thread_local HorizonScratch scratch;
    LitPixel *lit = atLeast(scratch.lit, n + 1);
    uint16_t *lit_index = atLeast(scratch.litIndex, n);
    // Compact the lit pixels without a branch: every pixel writes the
    // next slot, and only a lit one keeps it.
    std::size_t num_lit = 0;
    uint64_t luminance = 0;
    for (std::size_t p = 0; p < n; ++p) {
        const uint8_t px = pixels[p];
        lit[num_lit] = {period_thr[px] * (1.0 - band),
                        period_thr[px] * (1.0 + band)};
        lit_index[num_lit] = static_cast<uint16_t>(p);
        num_lit += px != 0;
        luminance += px;
    }
    if (num_lit == 0)
        return true; // a dark image draws nothing.
    lit[num_lit] = {0.0, 0.0};
    // Each lit pixel draws one more uniform than it spikes.
    const double expected_draws = static_cast<double>(num_lit) +
        static_cast<double>(luminance) *
            static_cast<double>(config.periodMs) /
            (255.0 * static_cast<double>(config.minIntervalMs));
    const auto capacity =
        static_cast<std::size_t>(expected_draws * 1.25) + 64;
    uint32_t *__restrict ends = atLeast(scratch.ends, num_lit);
    double *__restrict draws = atLeast(scratch.draws, capacity);
    double *__restrict prods = atLeast(scratch.prods, capacity);

    // Pass A. The state holds the last draw's product and its pixel's
    // end threshold. The next product is either that product times the
    // new uniform or, when the last draw ended its pixel, the uniform
    // alone under the next pixel's threshold (loaded ahead). Both are
    // formed while the comparison runs, and a vector select picks one,
    // where a scalar select would become a branch on the draws.
    Rng stream = rng;
    std::size_t cursor = 0;
    std::size_t drawn = 1;
    draws[0] = prods[0] = stream.uniform();
    ends[0] = 1;
    ProdAndEnd state = {prods[0], lit[0].endLo};
    for (; drawn < capacity; ++drawn) {
        const double prod = state[0];
        const double end_lo = state[1];
        const double next_lo = lit[cursor + 1].endLo;
        cursor += prod < end_lo;
        if (cursor == num_lit)
            break;
        const double u = stream.uniform();
        draws[drawn] = u;
        const ProdAndEnd kept = {prod * u, end_lo};
        const ProdAndEnd opened = {u, next_lo};
        state = ProdAndEnd{prod, prod} < ProdAndEnd{end_lo, end_lo} ? opened
                                                                     : kept;
        prods[drawn] = state[0];
        ends[cursor] = static_cast<uint32_t>(drawn + 1);
    }
    if (cursor < num_lit)
        return false;
    // The band check, and the list of pixels whose first uniform lies
    // above the horizon threshold, without a branch: a one-draw pixel
    // reads its own product and raises it to 1, above every threshold,
    // and every pixel writes the next visit slot, which only a visited
    // one keeps. A zero uniform zeroes its pixel's last product (no
    // product of a normal threshold's train underflows).
    const double h = static_cast<double>(horizon);
    Visit *visits = atLeast(scratch.visits, num_lit);
    std::size_t num_visits = 0;
    bool suspect = false;
    for (std::size_t j = 0, begin = 0; j < num_lit; begin = ends[j++]) {
        const std::size_t end = ends[j];
        const bool one_draw = end - begin == 1;
        const double before_last = std::max(
            prods[end - 2 + one_draw], static_cast<double>(one_draw));
        suspect |= (before_last <= lit[j].endHi) | !(prods[end - 1] > 0.0);
        const uint16_t p = lit_index[j];
        const uint8_t px = pixels[p];
        const double past_h = (horizon_thr
                                   ? horizon_thr[px]
                                   : std::exp(-h / meanInterval(config, px))) *
            (1.0 - band);
        visits[num_visits] = {past_h, static_cast<uint32_t>(begin),
                              static_cast<uint32_t>(end), p};
        num_visits += prods[begin] >= past_h;
    }
    if (suspect)
        return false;
    rng = stream;

    // Pass B: the recurrence's products are pass A's.
    for (std::size_t k = 0; k < num_visits; ++k) {
        const Visit &v = visits[k];
        const double mean = meanInterval(config, pixels[v.pixel]);
        double t = 0.0;
        int last_tick = -1;
        for (std::size_t i = v.begin; i < v.end && prods[i] >= v.pastH; ++i) {
            t += -mean * std::log(draws[i]);
            if (t >= h)
                break;
            const int tick = static_cast<int>(t);
            if (tick != last_tick) {
                grid.addSpike(tick, v.pixel);
                last_tick = tick;
            }
        }
    }
    return true;
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
    if (!emitPoissonHorizon(config_, pixels, num_pixels, rng, horizon,
                            horizon_thr, horizonThresholds_.data(),
                            horizonBand_, grid)) {
        // A complete grid holds every spike below any horizon.
        obsCount<"snn.encode.horizon_fallbacks">();
        encodePacked(pixels, num_pixels, rng, grid);
        return;
    }
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
