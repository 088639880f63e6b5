/**
 * @file
 * Event-indexed spike grids, the one spike-train format: the encoder
 * writes them, and both SnnNetwork::present() and its presentImage()
 * reference walk read them. At the paper's parameters (U = 50 ms over
 * a 500 ms window) well over 95% of the (tick, pixel) cells are empty,
 * so `PackedSpikeGrid` stores only the events, as CSR over ticks: the
 * sorted list of active ticks plus, per active tick, the inputs that
 * spike there in exactly the order the encoder emitted them. The
 * presentation walks only the ticks where anything happens, and silent
 * ticks cost nothing.
 *
 * The emission order is preserved because drive sums are ordered float
 * reductions: present() and presentImage() add the same weights in the
 * same order, which is what makes them bit-identical. At most one spike
 * per (input, tick) is stored: one clock cycle models one millisecond
 * in the paper's hardware, and a per-pixel spike generator cannot emit
 * twice in one cycle. finalize() merges duplicates, keeping the first
 * emission.
 */

#pragma once

#include <cstdint>
#include <vector>

namespace neuro {
namespace snn {

/** Event-indexed spike train for one presentation window. */
class PackedSpikeGrid
{
  public:
    PackedSpikeGrid() = default;

    /** Construct empty with the given shape. */
    PackedSpikeGrid(std::size_t num_inputs, int period_ms);

    /**
     * Reset to an empty grid of the given shape, reusing the existing
     * buffers (the encoder's scratch-grid idiom).
     */
    void reset(std::size_t num_inputs, int period_ms);

    /** Record a spike of @p input at @p tick. */
    void addSpike(int tick, uint16_t input);

    /**
     * Build the event index from the recorded spikes, merging duplicate
     * (tick, input) pairs (the first emission wins). Must be called
     * after the last addSpike() and before any event-side accessor;
     * addSpike() after finalize() is a usage error.
     */
    void finalize();

    /** @return the number of inputs (pixels). */
    std::size_t numInputs() const { return numInputs_; }
    /** @return the presentation window length in ticks. */
    int periodMs() const { return periodMs_; }
    /** @return total spikes, duplicates merged (finalized grids only). */
    std::size_t totalSpikes() const { return events_.size(); }

    /** @return number of ticks that carry at least one spike. */
    std::size_t activeTickCount() const { return activeTicks_.size(); }

    /** @return the sorted active ticks (finalized grids only). */
    const std::vector<int32_t> &activeTicks() const { return activeTicks_; }

    /**
     * The inputs spiking at the @p k-th active tick, in encoder
     * emission order.
     *
     * @param k      index into activeTicks().
     * @param count  out: number of inputs at that tick.
     * @return pointer to the first input index.
     */
    const uint16_t *inputsAt(std::size_t k, std::size_t *count) const;

    /** @return approximate heap footprint in bytes (cache budgeting). */
    std::size_t bytes() const;

  private:
    std::size_t numInputs_ = 0;
    int periodMs_ = 0;
    bool finalized_ = false;

    /** Raw (tick, input) pairs in emission order (pre-finalize). */
    std::vector<int32_t> rawTicks_;
    std::vector<uint16_t> rawInputs_;

    /** Event index: inputs grouped by tick, emission order preserved. */
    std::vector<int32_t> activeTicks_;  ///< sorted spike-carrying ticks.
    std::vector<uint32_t> tickOffsets_; ///< activeTicks_.size() + 1 edges.
    std::vector<uint16_t> events_;      ///< flattened per-tick inputs.
};

} // namespace snn
} // namespace neuro

