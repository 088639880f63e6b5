/**
 * @file
 * The 65nm technology library: per-operator area/energy/delay parameters
 * for composing accelerator designs, playing the role Synopsys' TSMC
 * 65nm GPlus high-VT .lib played in the paper.
 *
 * Calibration: the paper publishes per-operator layout areas (Table 4),
 * SRAM bank characteristics (Table 6), whole-design delays and energies
 * (Tables 5, 7, 9). The constants here are fitted to those measurements;
 * e.g. the adder-tree model area = 5.77 um^2 x full-adder-count + 306
 * um^2 reproduces all three published trees (784-in: 45,436; 100-in:
 * ~5,700; 15-in: 1,131 um^2) and generalizes to the SNN trees. Every
 * constant is documented with the measurement it comes from; design
 * *structure* (operator counts, SRAM geometry, cycle counts) is always
 * derived from first principles, never hardcoded.
 *
 * The constants are compile-time: every design, the paper's MLP and SNN
 * alike, is costed against the one calibrated library, kTech. The only
 * per-design figure is the leakage density Design takes at construction
 * (power-gated TrueNorth uses a lower one).
 */

#pragma once

#include <cstddef>
#include <cstdint>

namespace neuro {
namespace hw {

/** Technology and calibration constants (TSMC 65nm GPlus high VT). */
struct TechParams
{
    // ---- area (um^2) ----
    /** Area per full adder in a tree (fit of Table 4's three trees). */
    double faAreaUm2 = 5.768;
    /** Fixed per-tree overhead (same fit). */
    double treeFixedUm2 = 306.0;
    /** 8x8-bit multiplier (Table 4: 862 um^2); scales ~ bits^2/64. */
    double mult8AreaUm2 = 862.0;
    /** Gaussian CLT random generator, 4 LFSRs (Table 4: 1,749 um^2). */
    double gaussRngAreaUm2 = 1749.0;
    /** Comparator area per bit (Table 4 max op: 6,081 um^2 for a
     *  19-comparator, 24-bit max over 20 inputs -> ~13.3 um^2/bit). */
    double cmpAreaPerBitUm2 = 13.3;
    /** Register area per bit (standard-cell DFF). */
    double regAreaPerBitUm2 = 4.0;
    /** Per-input spike-decode cell of the SNNwot datapath (shifters +
     *  partial-product wiring; fit: (89,006 - tree(784,12)) / 784). */
    double spikeDecodeAreaUm2 = 32.9;
    /** SNNwt per-neuron LIF extras, fixed part: leak interpolation,
     *  potential comparator, refractory/inhibition gating. Together with
     *  the per-input part below this fits Table 4's SNNwt tree
     *  (60,820 = tree(784,8) + 2,000 + 17.45 x 784) and Table 5's
     *  small-scale 4x4 SNN layout. */
    double lifFixedAreaUm2 = 2000.0;
    /** SNNwt per-neuron LIF extras, per-input part (input gating and
     *  spike bookkeeping). */
    double lifPerInputAreaUm2 = 17.45;
    /** Pixel-to-spike-count converter channel (Figure 7: 9 comparators
     *  plus a 9->4 encoder). */
    double convertorAreaUm2 = 1050.0;
    /** Piecewise-linear sigmoid unit: 16x2x8b coefficient table, segment
     *  select and control; the multiply-add itself reuses the neuron's
     *  MAC datapath for one extra cycle (Section 4.3.1). */
    double sigmoidUnitAreaUm2 = 600.0;
    /** Per-neuron control FSM of a folded datapath. */
    double neuronControlAreaUm2 = 420.0;
    /** Folded SNNwot per-neuron datapath overhead beyond the adder tree
     *  (wide 12-bit lane buffering, double-buffered inputs, potential
     *  write-back): fixed + per-lane parts, fitted to Table 7's SNNwot
     *  rows (the paper attributes the SNNwot/SNNwt gap to "operators
     *  which accommodate ni x max-spikes simultaneous inputs"). */
    double wotLaneFixedUm2 = 2690.0;
    double wotLanePerNiUm2 = 470.0;
    /** Folded SNNwt per-neuron extras (threshold compare, shared leak
     *  slice, spike gating): fixed + per-lane, fitted to Table 7. */
    double wtExtrasFixedUm2 = 690.0;
    double wtExtrasPerNiUm2 = 190.0;
    /** STDP per-neuron fixed logic: FSM, leak unit, refractory,
     *  inhibitory and homeostasis counters (Section 4.4, fit to
     *  Table 9). */
    double stdpFixedAreaUm2 = 5900.0;
    /** STDP per-input logic: last-spike register, LTP comparator,
     *  increment/decrement adder (fit to Table 9's ni slope). */
    double stdpPerInputAreaUm2 = 611.0;
    /** Expanded-design synaptic storage, um^2 per bit (Table 4: both
     *  MLP 6.49 mm^2 / 635 kbit and SNN 19.27 mm^2 / 1.88 Mbit give
     *  10.24 um^2/bit — wide flat access needs small banks). */
    double expandedSramAreaPerBitUm2 = 10.24;

    // ---- energy (pJ per operation) ----
    /** Energy per full adder toggle in a tree. */
    double faEnergyPj = 0.0058;
    /** 8x8 multiply (fit of expanded MLP: 0.06 uJ / 79,510 MACs). */
    double mult8EnergyPj = 0.70;
    /** Gaussian RNG step. */
    double gaussRngEnergyPj = 1.8;
    /** Comparator energy per bit. */
    double cmpEnergyPerBitPj = 0.012;
    /** Register clock/toggle energy per bit per cycle. */
    double regEnergyPerBitPj = 0.0024;
    /** Spike-decode cell op. */
    double spikeDecodeEnergyPj = 0.05;
    /** LIF extras per active cycle. */
    double lifExtrasEnergyPj = 1.4;
    /** Convertor channel op. */
    double convertorEnergyPj = 0.35;
    /** Sigmoid unit evaluation. */
    double sigmoidUnitEnergyPj = 1.1;
    /** STDP weight-update per synapse. */
    double stdpUpdateEnergyPj = 0.25;
    /** Expanded-design SRAM read energy per bit. */
    double expandedSramEnergyPerBitPj = 0.018;

    // ---- timing (ns) ----
    /** 8x8 multiplier critical path. */
    double multDelayNs = 1.40;
    /** Adder-tree delay per level. */
    double treeDelayPerLevelNs = 0.20;
    /** Comparator stage delay. */
    double cmpDelayNs = 0.22;
    /** Sigmoid-unit delay. */
    double sigmoidDelayNs = 0.42;
    /** Register setup + clock skew margin. */
    double regDelayNs = 0.25;
    /** Spike-decode delay. */
    double spikeDecodeDelayNs = 0.18;
    /** SRAM word access time within a folded datapath's cycle. */
    double sramAccessNs = 0.55;
    /** Per-level delay of the small per-neuron folded trees (carry-save
     *  form, faster than the generic tree levels). */
    double foldedTreeDelayPerLevelNs = 0.15;

    // ---- static power ----
    /** Leakage power per mm^2 (high-VT 65nm). */
    double leakagePowerWPerMm2 = 0.012;
    /** Clock-tree power per kilo-register-bit at 500 MHz equivalent
     *  (Table 5 notes clock is 60% of SNN power, 20% of MLP power). */
    double clockPowerWPerKbit = 0.010;
};

/** The calibrated 65nm library every design is costed against. */
inline constexpr TechParams kTech{};

/**
 * Number of full adders in a balanced adder tree summing @p num_inputs
 * operands of @p bits bits (operand width grows one bit per level).
 */
uint64_t adderTreeFaCount(std::size_t num_inputs, int bits);

/** @return ceil(log2(n)) (0 for n <= 1). */
int log2Ceil(std::size_t n);

} // namespace hw
} // namespace neuro

