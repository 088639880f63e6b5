#include "neuro/cycle/folded_snn_sim.h"

#include <algorithm>

#include "neuro/common/logging.h"
#include "neuro/common/profile.h"
#include "neuro/hw/sram.h"

namespace neuro {
namespace cycle {

namespace {

/** Publish one simulated image's schedule to the observability layer;
 *  the caller records its design's cycles_per_image sample. */
void
recordSchedule(const ScheduleStats &stats)
{
    obsCount<"cycle.images_simulated">();
    obsCount<"cycle.sram_word_reads">(stats.sramWordReads);
}

} // namespace

ScheduleStats
simulateFoldedSnnWot(const hw::SnnTopology &topo, std::size_t ni)
{
    NEURO_ASSERT(ni > 0, "fold factor must be positive");
    NEURO_PROFILE_SCOPE("cycle/folded_snn_wot");
    ScheduleStats stats;

    const std::size_t banks = hw::synapticBanks(topo.neurons, ni);

    // 1 cycle: pixel-to-count conversion kicks off (thereafter the
    // converter works ahead of the accumulators).
    ++stats.cycles;

    std::size_t consumed = 0;
    while (consumed < topo.inputs) {
        const std::size_t lanes =
            topo.inputs - consumed >= ni ? ni : topo.inputs - consumed;
        ++stats.cycles;
        stats.sramWordReads += banks;
        stats.adds += topo.neurons * lanes;
        stats.idleLanes += topo.neurons * (ni - lanes);
        consumed += lanes;
    }

    // Pipeline drain (2) + two max-tree levels (2) + readout (2).
    stats.cycles += 6;
    stats.maxOps += topo.neurons > 1 ? topo.neurons - 1 : 0;
    stats.activations += topo.neurons; // threshold/potential latch.
    recordSchedule(stats);
    obsSample<"cycle.snn_wot.cycles_per_image">(
        static_cast<double>(stats.cycles));
    return stats;
}

ScheduleStats
simulateFoldedSnnWt(const hw::SnnTopology &topo, std::size_t ni,
                    const std::vector<uint32_t> &spikes_per_step)
{
    NEURO_ASSERT(ni > 0, "fold factor must be positive");
    NEURO_ASSERT(!spikes_per_step.empty(), "empty presentation window");
    NEURO_PROFILE_SCOPE("cycle/folded_snn_wt");
    ScheduleStats stats;

    const std::size_t banks = hw::synapticBanks(topo.neurons, ni);
    const std::size_t chunks = (topo.inputs + ni - 1) / ni + 7;

    for (uint32_t spikes : spikes_per_step) {
        // Every step occupies the full scan schedule (the hardware
        // cannot skip ahead: weights stream at a fixed cadence)...
        stats.cycles += chunks;
        stats.sramWordReads += banks * ((topo.inputs + ni - 1) / ni);
        // ...but integration energy only accrues for lanes that carry a
        // spike this step (clock gating on the spike bit).
        stats.adds +=
            static_cast<uint64_t>(std::min<uint32_t>(
                spikes, static_cast<uint32_t>(topo.inputs))) *
            topo.neurons;
        stats.activations += topo.neurons; // leak + threshold compare.
    }
    stats.maxOps += topo.neurons > 1 ? topo.neurons - 1 : 0;
    recordSchedule(stats);
    obsSample<"cycle.snn_wt.cycles_per_image">(
        static_cast<double>(stats.cycles));
    return stats;
}

} // namespace cycle
} // namespace neuro
