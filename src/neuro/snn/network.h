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
 *    the leak from a decay table filled once per network, and sums
 *    each tick's synaptic drive through a transposed weight copy in
 *    one dispatched `kernels::driveTiles` call. A tick on which every
 *    neuron is gated only records its input times. Otherwise, when
 *    every open neuron was last updated at the same tick, apart from
 *    a few held ones (the refractory winners), one dispatched
 *    `kernels::lifStep` call decays and integrates the whole layer by
 *    one shared factor and the held neurons are fixed up one by one;
 *    the remaining ticks take the per-neuron gated loop, and the
 *    per-neuron update times are written only before that loop or
 *    the window end reads them. Training runs it, and so does
 *    firstSpikeWinner(), the same loop ended at the first output
 *    spike and run on a const network with caller-owned state, which
 *    labeling, evaluation and serving run;
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

#include <algorithm>
#include <array>
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

    /** The SNNwt winner: the first neuron to fire, or the max-potential
     *  neuron when none fired. */
    int
    winner() const
    {
        return firstSpikeNeuron >= 0 ? firstSpikeNeuron
                                     : maxPotentialNeuron;
    }
};

/**
 * Everything one presentation writes apart from the network's learned
 * parameters: the per-neuron LIF state, the inputs' last spike times,
 * the drive scratch and the result. The network keeps one for its own
 * walks; each FirstSpikeReader keeps its own, so readers on any number
 * of threads share one const network. Every walk resizes and resets
 * it, reusing its buffers.
 */
struct PresentationState
{
    std::vector<double> potentials;     ///< membrane potentials.
    std::vector<int64_t> lastUpdateMs;  ///< tick each potential is at.
    /** Ignores input before this tick: the later of the refractory
     *  and the WTA inhibition expiry. */
    std::vector<int64_t> gateUntil;
    /** Per-input time of the last presynaptic spike, -1 if none. */
    std::vector<int64_t> lastInputSpike;
    std::vector<double> drive;          ///< one tick's drive per neuron.
    PresentationResult result;          ///< the walk's outcome.
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
    /** @return mutable weights (tests, loading); invalidates the
     *  transposed copy, which present() rebuilds lazily and
     *  refreshWeightsT() rebuilds at once. */
    Matrix &
    weights()
    {
        weightsTDirty_ = true;
        return weights_;
    }

    /** @return per-neuron membrane potentials (of the network's own
     *  last presentation). */
    const std::vector<double> &
    potentials() const
    {
        return state_.potentials;
    }
    /** @return per-neuron firing thresholds. */
    const std::vector<double> &thresholds() const { return thresholds_; }
    /** @return mutable thresholds (serialization, tests). */
    std::vector<double> &thresholds() { return thresholds_; }

    /** firstSpikeWinner()'s answer for a truncated grid that fires no
     *  neuron below its horizon. */
    static constexpr int kUndecided = -2;

    /**
     * Present one encoded image for a full window: walk only the
     * spike-carrying ticks of the packed grid. The production path;
     * every field of the result covers the whole window.
     *
     * @param grid   the input spike train (finalized and complete).
     * @param learn  apply STDP on firing events and advance homeostasis.
     */
    PresentationResult present(const PackedSpikeGrid &grid, bool learn);

    /**
     * The SNNwt answer alone, without learning: exactly
     * `present(grid, false).winner()`, but the walk ends at the first
     * output spike, which fixes that answer. A grid that fires no
     * neuron still runs to the window end for the max-potential
     * fallback. The walk writes only @p state (its result included),
     * so any number of threads may run it on one network; the
     * transposed weights must be fresh (refreshWeightsT()).
     *
     * A truncated grid (spike_bits.h) holds the full grid's events
     * below its horizon, so a firing there is the full grid's answer;
     * a walk that reaches the horizon without one is undecided.
     *
     * @param grid   the input spike train (finalized).
     * @param state  the walk's state, owned by the caller.
     * @param fired  optional sink: true when a neuron fired, false when
     *               the answer is the max-potential fallback or
     *               undecided.
     * @return the winning neuron index, or kUndecided.
     */
    int firstSpikeWinner(const PackedSpikeGrid &grid,
                         PresentationState &state,
                         bool *fired = nullptr) const;

    /** Rebuild the transposed weight copy if the weights changed
     *  through weights(): required before firstSpikeWinner() runs on
     *  a network whose weights were written that way. The constructor
     *  and learning keep it fresh. */
    void refreshWeightsT();

    /**
     * The reference walk over every tick of the window, silent ones
     * included: bit-identical to present() on the same grid. Kept as
     * the test oracle and for traces, which present() does not record.
     *
     * @param grid   the input spike train (finalized and complete).
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
    /** Reset @p state for a presentation (start of a window). */
    void beginPresentation(PresentationState &state) const;

    /** presentImage()'s step: integrate the @p count spikes arriving
     *  at tick @p t and run the WTA. */
    void stepTick(int64_t t, const uint16_t *spikes, std::size_t count,
                  bool learn, PresentationTrace *trace);

    /** present()'s and firstSpikeWinner()'s event loop over @p state.
     *  @p learner is this network when the walk learns, else nullptr.
     *  With @p untilFirstSpike it returns right after the first
     *  firing, or at the horizon of a truncated grid; that result has
     *  no max-potential readout and counts only the ticks stepped. */
    void walkEvents(const PackedSpikeGrid &grid, PresentationState &state,
                    SnnNetwork *learner, bool untilFirstSpike) const;

    /** The gates one firing leaves, until the next firing. */
    struct FireGates
    {
        /** Every neuron is gated before this tick. */
        int64_t earliest = 0;
        /** Every peer that was open at the firing opens here. */
        int64_t peers = 0;
    };

    /** Shared fire-and-inhibit path of both walks (tick @p t).
     *  @return the gates it left. */
    FireGates fireNeuron(int fire_n, int64_t t,
                         PresentationState &state) const;

    /** STDP on neuron @p fire_n's firing at tick @p t, which reads
     *  @p state's input spike times; keeps the transposed copy fresh
     *  and counts the firing for homeostasis. */
    void learnFrom(std::size_t fire_n, int64_t t, PresentationState &state);

    /** Decay @p state to the window end and resolve the max-potential
     *  readout. */
    void finishPresentation(PresentationState &state, bool learn) const;

    SnnConfig config_;
    Matrix weights_;
    /** Transposed weights (numInputs x numNeurons) for the event
     *  walk's contiguous drive accumulation; built by the constructor,
     *  rebuilt after writes through weights(). */
    Matrix weightsT_;
    bool weightsTDirty_ = true;

    /** Per-neuron firing thresholds (homeostasis moves them). */
    std::vector<double> thresholds_;
    /** Firings per neuron in the current homeostasis epoch, counted
     *  only by learning presentations. */
    std::vector<uint32_t> fireCounts_;
    /** exp(-dt/Tleak) for every integer dt in [0, period], [0] = 1;
     *  filled once by the constructor for present()'s leak. */
    std::vector<double> decayFactors_;

    StdpRule stdp_;
    Homeostasis homeostasis_;
    /** The state of present() and presentImage(): structure-of-arrays
     *  LIF state (lif.h holds the closed-form leak each potential
     *  follows). */
    PresentationState state_;
};

/**
 * SNNwt inference over images, the one path labeling, evaluation and
 * the serving backend run. A reader shares the trained network (const,
 * its transposed weights fresh) and owns a grid, a PresentationState
 * and a horizon. Each image is encoded only below the horizon
 * (SpikeEncoder::encodeHorizon) and walked to its first output spike.
 * An image that fires nothing there is re-encoded in full and walked
 * again. The next image starts at the smallest of the horizons
 * period >> k, k = kHorizonShifts..0, that held the first spike of
 * each of the last kHorizonHistory images (a silent one needs the
 * period), so one late image raises the horizon for a while, not for
 * good. Every answer is the full grid's: the horizon only sets how
 * much of each window is encoded.
 */
class FirstSpikeReader
{
  public:
    /** Images whose first spikes choose the next start horizon. */
    static constexpr std::size_t kHorizonHistory = 8;

    /** @p net and @p encoder (the network's coding) must outlive the
     *  reader; readers on many threads may share them. */
    FirstSpikeReader(const SnnNetwork &net, const SpikeEncoder &encoder);

    /**
     * Exactly `present(grid, false).winner()` of the grid
     * encodePacked() makes of @p pixels from an Rng seeded with
     * @p streamSeed.
     *
     * @param fired  optional sink: true when a neuron fired.
     */
    int winner(const uint8_t *pixels, std::size_t numPixels,
               uint64_t streamSeed, bool *fired = nullptr);

    /** @return the horizon the next image starts at, in ticks. */
    int
    horizonMs() const
    {
        return *std::max_element(needed_.begin(), needed_.end());
    }

  private:
    /** @return the smallest tabulated horizon above tick @p tick. */
    int horizonAbove(int64_t tick) const;

    const SnnNetwork &net_;
    const SpikeEncoder &encoder_;
    PackedSpikeGrid grid_;
    PresentationState state_;
    /** The horizon each of the last images needed (a ring). */
    std::array<int, kHorizonHistory> needed_{};
    std::size_t nextNeeded_ = 0;
};

} // namespace snn
} // namespace neuro

