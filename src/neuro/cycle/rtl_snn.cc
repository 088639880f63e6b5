#include "neuro/cycle/rtl_snn.h"

#include <algorithm>
#include <bit>

#include "neuro/common/logging.h"
#include "neuro/hw/sram.h"

namespace neuro {
namespace cycle {

RtlFoldedSnnWot::RtlFoldedSnnWot(const snn::SnnWotDatapath &datapath,
                                 const snn::SpikeEncoder &encoder,
                                 std::size_t ni)
    : ref_(datapath), encoder_(encoder), ni_(ni),
      accumulators_(datapath.numNeurons(), 0), countBuffer_(ni, 0)
{
    NEURO_ASSERT(ni_ > 0, "fold factor must be positive");
}

std::pair<int, RtlRunStats>
RtlFoldedSnnWot::run(const uint8_t *pixels,
                     std::vector<uint32_t> *potentials)
{
    RtlRunStats stats;
    const std::size_t num_inputs = ref_.numInputs();
    const std::size_t num_neurons = ref_.numNeurons();
    const std::size_t banks = hw::synapticBanks(num_neurons, ni_);

    // Cycle 0: the convertor channels start producing 4-bit counts
    // (thereafter they stay one chunk ahead of the accumulators).
    ++stats.cycles;

    // Reset the potential registers.
    for (auto &acc : accumulators_) {
        stats.regToggles += std::popcount(acc);
        acc = 0;
    }

    std::size_t consumed = 0;
    while (consumed < num_inputs) {
        const std::size_t lanes = std::min(ni_, num_inputs - consumed);
        ++stats.cycles;
        stats.sramReads += banks;
        // Convertor: pixel -> 4-bit count, latched per lane.
        for (std::size_t k = 0; k < lanes; ++k)
            countBuffer_[k] = encoder_.spikeCount(pixels[consumed + k]);
        for (std::size_t n = 0; n < num_neurons; ++n) {
            uint32_t sum = 0;
            for (std::size_t k = 0; k < lanes; ++k) {
                // Shift-multiply lane (4 shifters + adders, Figure 7).
                sum += snn::SnnWotDatapath::shiftMultiply(
                    countBuffer_[k], ref_.weight(n, consumed + k));
                ++stats.multOps;
            }
            ++stats.addOps;
            const uint32_t next = accumulators_[n] + sum;
            stats.regToggles += std::popcount(accumulators_[n] ^ next);
            accumulators_[n] = next;
        }
        consumed += lanes;
    }

    // Pipeline drain + two-level max tree + readout (6 cycles, as in
    // the schedule model).
    stats.cycles += 6;
    int winner = 0;
    uint32_t best = 0;
    bool first = true;
    for (std::size_t n = 0; n < num_neurons; ++n) {
        ++stats.activations; // potential latch into the max tree.
        if (first || accumulators_[n] > best) {
            best = accumulators_[n];
            winner = static_cast<int>(n);
            first = false;
        }
    }
    if (potentials)
        potentials->assign(accumulators_.begin(), accumulators_.end());
    return {winner, stats};
}

} // namespace cycle
} // namespace neuro
