/**
 * @file
 * SRAM model for synaptic storage (Table 6). Folded designs stream
 * weights from single-port banks of fixed 128-bit word width; bank
 * count and depth are derived from the network topology and the fold
 * factor ni (a bank serves max(1, 128 / (ni*8)) neurons; its depth
 * covers ceil(num_inputs/ni) words, floored at 128 rows). Per-bank area
 * and read energy are interpolated from the paper's published bank
 * characterizations.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace neuro {
namespace hw {

/** One SRAM bank configuration. */
struct SramBank
{
    int widthBits = 128;       ///< word width.
    std::size_t depth = 0;     ///< rows.
    double areaUm2 = 0;        ///< per-bank layout area.
    double readEnergyPj = 0;   ///< per-read energy.

    /** @return total storage bits. */
    uint64_t
    bits() const
    {
        return static_cast<uint64_t>(widthBits) * depth;
    }
};

/** A homogeneous array of banks used by one layer. */
struct SramArray
{
    std::string name;          ///< e.g. "hidden-layer weights".
    SramBank bank;             ///< bank geometry.
    std::size_t numBanks = 0;  ///< instances.
    uint64_t readsPerImage = 0;///< total bank reads per image.

    /** @return array area in um^2. */
    double
    totalAreaUm2() const
    {
        return bank.areaUm2 * static_cast<double>(numBanks);
    }
    /** @return per-image read energy in pJ. */
    double
    energyPerImagePj() const
    {
        return bank.readEnergyPj * static_cast<double>(readsPerImage);
    }
    /** @return per-cycle read energy in pJ when all banks read each
     *  cycle (the "Total Energy" column of Table 6). */
    double
    energyPerCyclePj() const
    {
        return bank.readEnergyPj * static_cast<double>(numBanks);
    }
};

/** Build one 128-bit-wide bank of the given depth (area and read energy
 *  interpolated from the paper's published points). */
SramBank makeBank(std::size_t depth);

/**
 * Banks of 128-bit words that serve @p num_neurons neurons when each
 * neuron fetches @p ni 8-bit weights per cycle: a word serves
 * max(1, 128 / (ni * 8)) neurons. Every folded design and cycle model
 * reads its bank count here.
 */
std::size_t synapticBanks(std::size_t num_neurons, std::size_t ni);

/**
 * Synaptic storage for one fully-connected layer in a folded design:
 * 8-bit weights (MLP, SNNwot and SNNwt alike) in synapticBanks() banks.
 * The caller sets readsPerImage from its schedule.
 *
 * @param name        array label.
 * @param num_neurons neurons sharing the storage.
 * @param num_inputs  synapses per neuron.
 * @param ni          inputs processed per cycle per neuron.
 */
SramArray makeSynapticStorage(const std::string &name,
                              std::size_t num_neurons,
                              std::size_t num_inputs, std::size_t ni);

} // namespace hw
} // namespace neuro

