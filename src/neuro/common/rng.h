/**
 * @file
 * Random-number generation: Rng, a fast, deterministic software generator
 * (xoshiro256**) with the distributions the simulators need (uniform,
 * Gaussian, exponential, shuffle), and deriveStreamSeed for per-sample
 * streams. Training, data synthesis, spike encoding and software models
 * all draw from it. The SNNwt accelerator's hardware generators (LFSRs
 * feeding a central-limit Gaussian, Section 4.2.2) are costed as
 * operators against hw::kTech (hw/tech.h), not simulated bit by bit.
 */

#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace neuro {

/**
 * Derive an independent, reproducible seed for a numbered stream (a
 * sample, a replicate, a sweep point) from a base seed: two SplitMix64
 * finalizations over a combination of @p seed and @p stream. Parallel
 * evaluation paths seed one Rng per sample through this, so results do
 * not depend on iteration order or thread count (docs/parallelism.md).
 */
uint64_t deriveStreamSeed(uint64_t seed, uint64_t stream);

/**
 * Deterministic 64-bit pseudo-random generator (xoshiro256**) with the
 * distribution helpers used across the library. Cheap to copy; every
 * experiment owns its generator so runs are reproducible per seed.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed (expanded through SplitMix64). */
    explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** @return the next raw 64-bit value. */
    uint64_t
    next()
    {
        const uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /** @return a uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** @return a uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** @return a uniform integer in [0, n). Requires n > 0. */
    uint64_t uniformInt(uint64_t n);

    /** @return a standard normal deviate (Box-Muller, cached pair). */
    double gaussian();

    /** @return a normal deviate with the given mean and stddev. */
    double gaussian(double mean, double stddev);

    /**
     * Advance the generator exactly as @p n gaussian() calls would,
     * Box-Muller cache included, without computing the deviates: it
     * draws the same uniforms (u1 <= 0 rejections too) and evaluates
     * the transform only for a pair whose second deviate is left in
     * the cache. A copy taken before the call replays the n deviates.
     */
    void discardGaussians(std::size_t n);

    /** @return an exponential deviate with the given mean. */
    double exponential(double mean);

    /** Fisher-Yates shuffle of indices [0, n) into @p order. */
    void shuffle(std::uint32_t *order, std::size_t n);

  private:
    static uint64_t
    rotl(uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::array<uint64_t, 4> state_;
    double cachedGaussian_ = 0.0;
    bool hasCachedGaussian_ = false;
};

} // namespace neuro

