#include "neuro/snn/homeostasis.h"

#include <algorithm>
#include <cmath>

#include "neuro/common/logging.h"

namespace neuro {
namespace snn {

Homeostasis::Homeostasis(const HomeostasisConfig &config)
    : config_(config)
{
    NEURO_ASSERT(config_.epochMs > 0, "epoch must be positive");
    NEURO_ASSERT(config_.rate >= 0.0, "negative homeostasis rate");
}

int
Homeostasis::advance(int64_t dt_ms, double *thresholds,
                     uint32_t *fireCounts, std::size_t count)
{
    if (!config_.enabled)
        return 0;
    NEURO_ASSERT(dt_ms >= 0, "time cannot run backwards");
    int boundaries = 0;
    elapsedInEpoch_ += dt_ms;
    while (elapsedInEpoch_ >= config_.epochMs) {
        elapsedInEpoch_ -= config_.epochMs;
        applyEpoch(thresholds, fireCounts, count);
        ++boundaries;
        ++epochs_;
    }
    return boundaries;
}

void
Homeostasis::applyEpoch(double *thresholds, uint32_t *fireCounts,
                        std::size_t count)
{
    for (std::size_t i = 0; i < count; ++i) {
        const double activity = static_cast<double>(fireCounts[i]);
        const double diff = activity - config_.activityTarget;
        // sign(activity - target) * threshold * r; no change at exactly
        // the target.
        if (diff > 0)
            thresholds[i] += thresholds[i] * config_.rate;
        else if (diff < 0)
            thresholds[i] -= thresholds[i] * config_.rate *
                             config_.downFactor;
        thresholds[i] = std::max(thresholds[i], config_.minThreshold);
        fireCounts[i] = 0;
    }
}

} // namespace snn
} // namespace neuro
