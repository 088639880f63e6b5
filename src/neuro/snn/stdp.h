/**
 * @file
 * Simplified Spike-Timing-Dependent Plasticity (Sections 2.2 and 4.4),
 * the rule the paper's online-learning circuit implements: when a neuron
 * fires at time t, every input synapse with a presynaptic spike in the
 * LTP window [t - TLTP, t] is potentiated by a constant increment;
 * every other synapse (spike too old, or none) is depressed by a
 * constant decrement. Weights saturate at [wMin, wMax]. STDP applies
 * only to the excitatory input synapses, never to the lateral
 * inhibition.
 *
 * The causal set is read from the presentation's spike grid, so a walk
 * keeps no per-input spike times: an input spiked in the window iff
 * its latest spike at or before t did.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "neuro/snn/spike_bits.h"

namespace neuro {
namespace snn {

/** STDP parameters (paper values: TLTP = 45 ms, unit increments on 8-bit
 *  weights; the increments are configurable so that scaled-down training
 *  sets can learn at the same effective rate). */
struct StdpConfig
{
    int ltpWindowMs = 45;   ///< TLTP.
    float ltpIncrement = 1; ///< weight increase on potentiation.
    float ltdDecrement = 1; ///< weight decrease on depression.
    float wMin = 0.0f;      ///< weight floor.
    float wMax = 255.0f;    ///< weight ceiling (8-bit weights).
    /** Soft (multiplicative) bounds: potentiation scales with the
     *  remaining headroom (1 - w/wMax) and depression with w/wMax, as
     *  in the memristive STDP the paper's SNN baseline [11, 20] uses.
     *  Keeps receptive fields graded instead of slamming to the rails.
     */
    bool softBounds = true;
};

/** Applies the simplified STDP update on postsynaptic firing events. */
class StdpRule
{
  public:
    explicit StdpRule(const StdpConfig &config);

    /** @return the configuration. */
    const StdpConfig &config() const { return config_; }

    /**
     * Mark the causal inputs of a firing at @p fire_time_ms: every
     * input of @p grid with a spike in [fire_time_ms - TLTP,
     * fire_time_ms].
     *
     * @param causal  one entry per input, all 0 on entry; each causal
     *                input's entry is set to 1.
     * @return the number of causal inputs.
     */
    std::size_t markCausal(const PackedSpikeGrid &grid,
                           int64_t fire_time_ms, uint32_t *causal) const;

    /**
     * Update one neuron's input weights after it fired: potentiate
     * the marked synapses and depress the rest. Branch-free over
     * fixed-trip tiles, so it vectorizes at -O2.
     *
     * @param weights     the neuron's synaptic row (num_inputs).
     * @param causal      markCausal()'s marks.
     * @param num_inputs  synapse count.
     */
    void onPostSpike(float *weights, const uint32_t *causal,
                     std::size_t num_inputs) const;

  private:
    StdpConfig config_;
};

} // namespace snn
} // namespace neuro
