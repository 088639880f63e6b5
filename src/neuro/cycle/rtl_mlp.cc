#include "neuro/cycle/rtl_mlp.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "neuro/common/logging.h"
#include "neuro/hw/sram.h"

namespace neuro {
namespace cycle {

namespace {

uint64_t
toggles(int32_t before, int32_t after)
{
    return std::popcount(static_cast<uint32_t>(before) ^
                         static_cast<uint32_t>(after));
}

} // namespace

RtlFoldedMlp::RtlFoldedMlp(const mlp::QuantizedMlp &reference,
                           std::size_t ni)
    : ref_(reference), ni_(ni), inputBuffer_(ni, 0)
{
    NEURO_ASSERT(ni_ > 0, "fold factor must be positive");
    std::size_t hw_neurons = 0;
    for (std::size_t l = 0; l < ref_.numLayers(); ++l)
        hw_neurons = std::max(hw_neurons, ref_.layerFanOut(l));
    // One hardware neuron per widest layer position; layers reuse them.
    neurons_.assign(hw_neurons, NeuronState{});
}

RtlRunStats
RtlFoldedMlp::run(const uint8_t *pixels, uint8_t *output)
{
    RtlRunStats stats;
    // Activations travel between layers as 8-bit codes.
    std::vector<uint8_t> layer_in(pixels, pixels + ref_.inputSize());
    std::vector<uint8_t> layer_out;

    for (std::size_t l = 0; l < ref_.numLayers(); ++l) {
        const std::size_t fan_in = ref_.layerFanIn(l);
        const std::size_t fan_out = ref_.layerFanOut(l);
        const std::size_t banks = hw::synapticBanks(fan_out, ni_);

        // Reset accumulators to the bias term (bias input is the
        // constant code 255, as in the functional model).
        for (std::size_t j = 0; j < fan_out; ++j) {
            const int32_t bias =
                static_cast<int32_t>(ref_.layerWeight(l, j, fan_in)) *
                255;
            stats.regToggles += toggles(neurons_[j].accumulator, bias);
            neurons_[j].accumulator = bias;
        }

        // Stream the inputs in chunks of ni.
        std::size_t consumed = 0;
        while (consumed < fan_in) {
            const std::size_t lanes =
                std::min(ni_, fan_in - consumed);
            ++stats.cycles;
            stats.sramReads += banks;
            // Latch the chunk into the input buffer.
            for (std::size_t k = 0; k < lanes; ++k)
                inputBuffer_[k] = layer_in[consumed + k];
            // Every hardware neuron MACs its ni weights against the
            // shared input buffer.
            for (std::size_t j = 0; j < fan_out; ++j) {
                int32_t sum = 0;
                for (std::size_t k = 0; k < lanes; ++k) {
                    sum += static_cast<int32_t>(
                               ref_.layerWeight(l, j, consumed + k)) *
                        inputBuffer_[k];
                    ++stats.multOps;
                }
                ++stats.addOps;
                const int32_t next = neurons_[j].accumulator + sum;
                stats.regToggles +=
                    toggles(neurons_[j].accumulator, next);
                neurons_[j].accumulator = next;
            }
            consumed += lanes;
        }

        // Activation cycle: the shared piecewise-linear sigmoid maps
        // the accumulator to the 8-bit output register.
        ++stats.cycles;
        layer_out.assign(fan_out, 0);
        const float inv_scale = 1.0f /
            (static_cast<float>(1 << ref_.fracBits(l)) * 255.0f);
        for (std::size_t j = 0; j < fan_out; ++j) {
            ++stats.activations;
            const float s =
                static_cast<float>(neurons_[j].accumulator) * inv_scale;
            const float y = ref_.sigmoid().apply(s);
            const auto code = static_cast<uint8_t>(
                std::clamp(std::lround(y * 255.0f), 0L, 255L));
            stats.regToggles += std::popcount(
                static_cast<unsigned>(neurons_[j].outputReg ^ code));
            neurons_[j].outputReg = code;
            layer_out[j] = code;
        }
        layer_in.swap(layer_out);
    }
    std::copy(layer_in.begin(), layer_in.end(), output);
    return stats;
}

int
RtlFoldedMlp::predict(const uint8_t *pixels)
{
    std::vector<uint8_t> out(ref_.outputSize());
    run(pixels, out.data());
    return static_cast<int>(
        std::max_element(out.begin(), out.end()) - out.begin());
}

} // namespace cycle
} // namespace neuro
