/**
 * @file
 * The paper's SNN topology (Section 2.2): a single layer of LIF neurons,
 * each excited by every input pixel and inhibiting all its peers when it
 * fires (winner-takes-all dynamics emulated by an inhibition period, as
 * in the hardware). Readout is spike-based: the first neuron to fire
 * wins. The count-based SNNwot readout is SnnWotDatapath (snn_wot.h),
 * the 8-bit model built from this network's weights.
 *
 * One production presentation path plus one reference
 * (docs/snn_engine.md):
 *
 *  - present(): an event-driven sweep over an event-indexed
 *    `PackedSpikeGrid` that touches only spike-carrying ticks, reads
 *    the leak from a decay table filled once per network, and
 *    accumulates synaptic drive through a transposed weight copy so
 *    the inner loop is a contiguous vector sweep. On a tick where
 *    every neuron is open and was last updated at the same tick (most
 *    ticks), one dispatched `kernels::lifStep` call decays and
 *    integrates the whole layer by one shared factor; only the ticks
 *    after a firing take the per-neuron gated loop, and the
 *    per-neuron update times are written only before that loop or
 *    the window end reads them. Training runs it, and so does
 *    firstSpikeWinner(), the same loop ended at the first output
 *    spike, which labeling, evaluation and serving run;
 *  - presentImage(): the reference walk over every tick of the same
 *    packed grid, with the closed-form leak and the row-major weights,
 *    kept as the test oracle and as the Figure 3 trace path. The two
 *    are bit-identical: same winners, same potentials, same learned
 *    weights (tests enforce it).
 *
 * LIF state is kept as structure-of-arrays (separate potential /
 * threshold / timing arrays) so the per-tick inner loops vectorize.
 * Refractory and WTA inhibition share one gate per neuron: the time
 * until which it ignores input.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "neuro/common/matrix.h"
#include "neuro/snn/coding.h"
#include "neuro/snn/homeostasis.h"
#include "neuro/snn/lif.h"
#include "neuro/snn/spike_bits.h"
#include "neuro/snn/stdp.h"

namespace neuro {

class Rng;

namespace snn {

/** Full SNN configuration (paper defaults of Table 1). */
struct SnnConfig
{
    std::size_t numInputs = 784;  ///< input pixels.
    std::size_t numNeurons = 300; ///< output LIF neurons.
    CodingConfig coding;          ///< input spike coding.
    double tLeakMs = 500.0;       ///< Tleak.
    int tInhibitMs = 5;           ///< Tinhibit (WTA inhibition).
    int tRefracMs = 20;           ///< Trefrac.
    double initialThreshold = 17850.0; ///< Tinit = wmax * 70.
    /** Per-neuron random jitter applied to the initial threshold so the
     *  WTA race has no exact ties (Figure 3: "all neurons have
     *  different firing thresholds"). */
    double thresholdJitter = 0.05;
    /** Winner-takes-all reset: a firing neuron zeroes its peers'
     *  potentials (the effect of the lateral inhibitory connections)
     *  in addition to the Tinhibit gating. */
    bool wtaReset = true;
    StdpConfig stdp;              ///< learning rule.
    HomeostasisConfig homeostasis;///< threshold adaptation.
    float wInitMin = 0.3f * 255.0f; ///< initial weight range, low.
    float wInitMax = 0.7f * 255.0f; ///< initial weight range, high.
};

/** How the winning neuron is read out. */
enum class Readout
{
    FirstSpike,  ///< first neuron to fire (paper's SNNwt readout).
    MaxPotential ///< highest end-of-window potential.
};

/** Optional per-presentation trace for Figure 3-style plots. */
struct PresentationTrace
{
    /** Sampled neuron potentials: potentials[t][n] at each tick. */
    std::vector<std::vector<float>> potentials;
    /** Input raster: (tick, pixel) pairs. */
    std::vector<std::pair<int, uint16_t>> inputSpikes;
    /** Output spikes: (tick, neuron) pairs. */
    std::vector<std::pair<int, uint16_t>> outputSpikes;
    /** Record potentials only for the first N neurons (0 = all). */
    std::size_t neuronLimit = 0;
};

/** Outcome of one image presentation. */
struct PresentationResult
{
    int firstSpikeNeuron = -1;     ///< first firing neuron (-1 if none).
    int64_t firstSpikeTimeMs = -1; ///< its firing time.
    int maxPotentialNeuron = -1;   ///< argmax of end-of-window potential.
    std::size_t inputSpikeCount = 0;  ///< total input spikes seen.
    std::size_t outputSpikeCount = 0; ///< total output spikes fired.
    std::size_t wtaInhibitions = 0;   ///< peers gated by WTA firings.
    std::size_t stdpPotentiated = 0;  ///< synapses potentiated (learn).
    std::size_t stdpDepressed = 0;    ///< synapses depressed (learn).
    std::vector<uint16_t> spikeCountPerNeuron; ///< output spikes/neuron.

    /** Winner under the requested readout (falls back to max potential
     *  when no neuron fired). */
    int winner(Readout readout) const;
};

/**
 * The single-layer WTA spiking network. Owns the synaptic weight matrix
 * (numNeurons x numInputs, weights in [0, wMax]), the per-neuron LIF
 * state (structure-of-arrays) and the STDP + homeostasis machinery.
 */
class SnnNetwork
{
  public:
    /** Construct with uniformly random initial weights. */
    SnnNetwork(const SnnConfig &config, Rng &rng);

    /** @return the configuration. */
    const SnnConfig &config() const { return config_; }

    /** @return the weight matrix (numNeurons x numInputs). */
    const Matrix &weights() const { return weights_; }
    /** @return mutable weights (tests, SNN+BP); invalidates present()'s
     *  transposed copy, which is rebuilt lazily. */
    Matrix &
    weights()
    {
        weightsTDirty_ = true;
        return weights_;
    }

    /** @return per-neuron membrane potentials. */
    const std::vector<double> &potentials() const { return potentials_; }
    /** @return per-neuron firing thresholds. */
    const std::vector<double> &thresholds() const { return thresholds_; }
    /** @return mutable thresholds (serialization, tests). */
    std::vector<double> &thresholds() { return thresholds_; }

    /**
     * Present one encoded image for a full window: walk only the
     * spike-carrying ticks of the packed grid. The production path;
     * every field of the result covers the whole window.
     *
     * @param grid   the input spike train (finalized).
     * @param learn  apply STDP on firing events and advance homeostasis.
     */
    PresentationResult present(const PackedSpikeGrid &grid, bool learn);

    /**
     * The SNNwt answer alone, without learning: exactly
     * `present(grid, false).winner(Readout::FirstSpike)`, but the walk
     * ends at the first output spike, which fixes that answer. A grid
     * that fires no neuron still runs to the window end for the
     * max-potential fallback. The potentials are left at the tick the
     * walk ended on; the next presentation resets them.
     *
     * @param grid   the input spike train (finalized).
     * @param fired  optional sink: true when a neuron fired, false when
     *               the answer is the max-potential fallback.
     * @return the winning neuron index.
     */
    int firstSpikeWinner(const PackedSpikeGrid &grid, bool *fired = nullptr);

    /**
     * The reference walk over every tick of the window, silent ones
     * included: bit-identical to present() on the same grid. Kept as
     * the test oracle and for traces, which present() does not record.
     *
     * @param grid   the input spike train (finalized).
     * @param learn  apply STDP on firing events and advance homeostasis.
     * @param trace  optional trace sink (slows the run; for figures).
     */
    PresentationResult presentImage(const PackedSpikeGrid &grid,
                                    bool learn,
                                    PresentationTrace *trace = nullptr);

    /** Total homeostasis epochs processed during learning. */
    int64_t homeostasisEpochs() const
    {
        return homeostasis_.epochsProcessed();
    }

  private:
    /** @return true if neuron @p n ignores inputs at time @p t. */
    bool gatedAt(std::size_t n, int64_t t) const { return t < gateUntil_[n]; }

    /** Reset the per-presentation state (start of a window). */
    void beginPresentation(PresentationResult &result);

    /** presentImage()'s step: integrate the @p count spikes arriving
     *  at tick @p t and run the WTA. */
    void stepTick(int64_t t, const uint16_t *spikes, std::size_t count,
                  bool learn, PresentationResult &result,
                  PresentationTrace *trace);

    /** present()'s and firstSpikeWinner()'s event loop. With
     *  @p untilFirstSpike it returns right after the first firing;
     *  that result has no max-potential readout and counts only the
     *  ticks stepped. */
    PresentationResult walkEvents(const PackedSpikeGrid &grid, bool learn,
                                  bool untilFirstSpike);

    /** Shared fire-and-inhibit path of both walks (tick @p t).
     *  @return the latest gate it set: every neuron is open from
     *  then on, until the next firing. */
    int64_t fireNeuron(int fire_n, int64_t t, bool learn,
                       PresentationResult &result);

    /** Decay to the window end, resolve the max-potential readout and
     *  (when learning) advance homeostasis. */
    void finishPresentation(bool learn, PresentationResult &result);

    /** Rebuild the transposed weight copy if weights changed. */
    void refreshWeightsT();

    SnnConfig config_;
    Matrix weights_;
    /** Transposed weights (numInputs x numNeurons) for present()'s
     *  contiguous drive accumulation; lazily rebuilt. */
    Matrix weightsT_;
    bool weightsTDirty_ = true;

    // Per-neuron LIF state, structure-of-arrays (lif.h holds the
    // closed-form leak each potential follows).
    std::vector<double> potentials_;
    std::vector<double> thresholds_;
    std::vector<int64_t> lastUpdateMs_;
    /** Ignores input before this time: the later of the refractory
     *  and the WTA inhibition expiry. */
    std::vector<int64_t> gateUntil_;
    /** Firings per neuron in the current homeostasis epoch, counted
     *  only by learning presentations. */
    std::vector<uint32_t> fireCounts_;
    /** exp(-dt/Tleak) for every integer dt in [0, period], [0] = 1;
     *  filled once by the constructor for present()'s leak. */
    std::vector<double> decayFactors_;

    StdpRule stdp_;
    Homeostasis homeostasis_;
    /** Per-input time of last presynaptic spike (presentation-local). */
    std::vector<int64_t> lastInputSpike_;

    // present() scratch (presentation-local, reused across calls).
    std::vector<double> driveScratch_;
};

} // namespace snn
} // namespace neuro

