/**
 * @file
 * The Leaky Integrate-and-Fire neuron (Section 2.2). The membrane
 * potential obeys  v'(t) + v(t)/Tleak = sum_i w_i I_i(t); between input
 * spikes the homogeneous solution gives the closed form
 *   v(T2) = v(T1) * exp(-(T2-T1)/Tleak),
 * which the paper exploits to avoid per-timestep integration — we
 * implement both the event-driven closed form and the reference discrete
 * integration, and test their equivalence. SnnNetwork holds the
 * per-neuron state (potential, threshold, timing) as
 * structure-of-arrays; this header holds only the leak.
 */

#pragma once

namespace neuro {
namespace snn {

/** Closed-form leak: potential after @p dt ms of decay. */
double lifDecay(double potential, double dt_ms, double tleak_ms);

/**
 * Reference discrete simulation of the leak over @p dt ms in @p steps
 * Euler steps (used by tests and the event-driven-vs-discrete ablation).
 */
double lifDecayDiscrete(double potential, double dt_ms, double tleak_ms,
                        int steps);

} // namespace snn
} // namespace neuro

