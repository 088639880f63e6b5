#include "neuro/snn/stdp.h"

#include <algorithm>

#include "neuro/common/logging.h"

namespace neuro {
namespace snn {

namespace {

/** Synapses per fixed-trip tile of the update loop. */
constexpr std::size_t kTile = 16;

/**
 * The update of every synapse in [0, n): both steps are computed and
 * the mark selects one, each with the same float operations, in the
 * same order, as a per-synapse branch would run. A plain
 * runtime-length loop stays scalar at -O2 (docs/kernels.md); whole
 * tiles of a compile-time length vectorize, and the tail runs scalar.
 */
template <bool kSoftBounds>
void
updateRow(float *__restrict weights, const uint32_t *__restrict causal,
          std::size_t n, const StdpConfig &config)
{
    const float inc = config.ltpIncrement;
    const float dec = config.ltdDecrement;
    const float w_min = config.wMin;
    const float w_max = config.wMax;
    const float span = w_max - w_min;
    auto update = [=](float w, uint32_t mark) {
        float up = inc;
        float down = dec;
        if (kSoftBounds) {
            up *= (w_max - w) / span;
            down *= (w - w_min) / span;
        }
        const float potentiated = std::min(w + up, w_max);
        const float depressed = std::max(w - down, w_min);
        return mark ? potentiated : depressed;
    };
    std::size_t i = 0;
    for (; i + kTile <= n; i += kTile) {
        float *w = weights + i;
        const uint32_t *m = causal + i;
        for (std::size_t k = 0; k < kTile; ++k)
            w[k] = update(w[k], m[k]);
    }
    for (; i < n; ++i)
        weights[i] = update(weights[i], causal[i]);
}

} // namespace

StdpRule::StdpRule(const StdpConfig &config)
    : config_(config)
{
    NEURO_ASSERT(config_.ltpWindowMs >= 0, "negative LTP window");
    NEURO_ASSERT(config_.wMin < config_.wMax, "degenerate weight range");
    NEURO_ASSERT(config_.ltpIncrement >= 0 && config_.ltdDecrement >= 0,
                 "negative STDP steps");
}

std::size_t
StdpRule::markCausal(const PackedSpikeGrid &grid, int64_t fire_time_ms,
                     uint32_t *causal) const
{
    // The window's events are one contiguous run of the grid's event
    // index: the active ticks in [t - TLTP, t].
    const auto &active = grid.activeTicks();
    const auto lo = static_cast<std::size_t>(
        std::lower_bound(active.begin(), active.end(),
                         fire_time_ms - config_.ltpWindowMs) -
        active.begin());
    const auto hi = static_cast<std::size_t>(
        std::upper_bound(active.begin() + static_cast<std::ptrdiff_t>(lo),
                         active.end(), fire_time_ms) -
        active.begin());
    if (lo == hi)
        return 0;
    std::size_t count = 0;
    const uint16_t *first = grid.inputsAt(lo, &count);
    const uint16_t *last = grid.inputsAt(hi - 1, &count) + count;
    std::size_t marked = 0;
    for (const uint16_t *input = first; input != last; ++input) {
        marked += causal[*input] == 0;
        causal[*input] = 1;
    }
    return marked;
}

void
StdpRule::onPostSpike(float *weights, const uint32_t *causal,
                      std::size_t num_inputs) const
{
    if (config_.softBounds)
        updateRow<true>(weights, causal, num_inputs, config_);
    else
        updateRow<false>(weights, causal, num_inputs, config_);
}

} // namespace snn
} // namespace neuro
