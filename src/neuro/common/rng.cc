#include "neuro/common/rng.h"

#include <cmath>

#include "neuro/common/logging.h"

namespace neuro {

namespace {

/** SplitMix64 step, used only to expand seeds into generator state. */
uint64_t
splitmix64(uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace

uint64_t
deriveStreamSeed(uint64_t seed, uint64_t stream)
{
    // Feed the stream index through the same golden-ratio increment
    // SplitMix64 uses internally, then finalize twice: adjacent
    // (seed, stream) pairs land in uncorrelated parts of the sequence.
    uint64_t x = seed ^ (0x9e3779b97f4a7c15ULL * (stream + 1));
    (void)splitmix64(x);
    return splitmix64(x);
}

Rng::Rng(uint64_t seed)
{
    uint64_t s = seed;
    for (auto &word : state_)
        word = splitmix64(s);
    // xoshiro's all-zero state is absorbing; the SplitMix expansion of any
    // seed cannot produce it, but guard anyway.
    if (state_[0] == 0 && state_[1] == 0 && state_[2] == 0 && state_[3] == 0)
        state_[0] = 1;
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

uint64_t
Rng::uniformInt(uint64_t n)
{
    NEURO_ASSERT(n > 0, "uniformInt() requires a nonzero range");
    // Rejection sampling to avoid modulo bias.
    const uint64_t limit = UINT64_MAX - UINT64_MAX % n;
    uint64_t v;
    do {
        v = next();
    } while (v >= limit);
    return v % n;
}

double
Rng::gaussian()
{
    if (hasCachedGaussian_) {
        hasCachedGaussian_ = false;
        return cachedGaussian_;
    }
    double u1, u2;
    do {
        u1 = uniform();
    } while (u1 <= 0.0);
    u2 = uniform();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * M_PI * u2;
    cachedGaussian_ = r * std::sin(theta);
    hasCachedGaussian_ = true;
    return r * std::cos(theta);
}

void
Rng::discardGaussians(std::size_t n)
{
    double u1 = 0.0, u2 = 0.0;
    bool drew = false;
    for (; n > 0; --n) {
        if (hasCachedGaussian_) {
            hasCachedGaussian_ = false;
            continue;
        }
        do {
            u1 = uniform();
        } while (u1 <= 0.0);
        u2 = uniform();
        hasCachedGaussian_ = true;
        drew = true;
    }
    // Only a pair drawn here and half consumed leaves a deviate that a
    // later gaussian() returns; compute it as gaussian() does.
    if (drew && hasCachedGaussian_) {
        const double r = std::sqrt(-2.0 * std::log(u1));
        const double theta = 2.0 * M_PI * u2;
        cachedGaussian_ = r * std::sin(theta);
    }
}

double
Rng::gaussian(double mean, double stddev)
{
    return mean + stddev * gaussian();
}

double
Rng::exponential(double mean)
{
    NEURO_ASSERT(mean > 0.0, "exponential mean must be positive");
    double u;
    do {
        u = uniform();
    } while (u <= 0.0);
    return -mean * std::log(u);
}

void
Rng::shuffle(std::uint32_t *order, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        order[i] = static_cast<std::uint32_t>(i);
    for (std::size_t i = n; i > 1; --i) {
        const std::size_t j = uniformInt(i);
        const std::uint32_t tmp = order[i - 1];
        order[i - 1] = order[j];
        order[j] = tmp;
    }
}

} // namespace neuro
