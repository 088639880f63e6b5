#include "neuro/cycle/folded_mlp_sim.h"

#include "neuro/common/logging.h"
#include "neuro/common/profile.h"
#include "neuro/hw/sram.h"

namespace neuro {
namespace cycle {

namespace {

/**
 * Walk one fully-connected layer: @p neurons hardware neurons each
 * consume @p inputs values in chunks of @p ni (bias folded into the
 * last chunk), then evaluate their activation in one extra cycle.
 */
void
walkLayer(ScheduleStats &stats, std::size_t neurons, std::size_t inputs,
          std::size_t ni, std::size_t banks)
{
    std::size_t consumed = 0;
    while (consumed < inputs) {
        const std::size_t lane_count =
            inputs - consumed >= ni ? ni : inputs - consumed;
        ++stats.cycles;
        stats.sramWordReads += banks;
        stats.macs += neurons * lane_count;
        stats.idleLanes += neurons * (ni - lane_count);
        consumed += lane_count;
    }
    ++stats.cycles; // activation-function cycle (multiplier + adder).
    stats.activations += neurons;
}

} // namespace

ScheduleStats
simulateFoldedMlp(const hw::MlpTopology &topo, std::size_t ni)
{
    NEURO_ASSERT(ni > 0, "fold factor must be positive");
    NEURO_PROFILE_SCOPE("cycle/folded_mlp");
    ScheduleStats stats;

    walkLayer(stats, topo.hidden, topo.inputs, ni,
              hw::synapticBanks(topo.hidden, ni));
    walkLayer(stats, topo.outputs, topo.hidden, ni,
              hw::synapticBanks(topo.outputs, ni));
    obsCount<"cycle.images_simulated">();
    obsCount<"cycle.sram_word_reads">(stats.sramWordReads);
    obsSample<"cycle.mlp.cycles_per_image">(
        static_cast<double>(stats.cycles));
    return stats;
}

} // namespace cycle
} // namespace neuro
