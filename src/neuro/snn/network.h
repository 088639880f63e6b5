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
 *    neuron is gated is skipped. Otherwise, when every open neuron
 *    was last updated at the same tick, apart from a few held ones
 *    (the refractory winners), one dispatched `kernels::lifStep` call
 *    decays and integrates the whole layer by one shared factor and
 *    the held neurons are fixed up one by one; the remaining ticks
 *    take the per-neuron gated loop, and the per-neuron update times
 *    are written only before that loop or the window end reads them.
 *    Training runs it, alone or as a PresentationTeam whose members
 *    walk disjoint neuron ranges and agree on every firing; and so
 *    does firstSpikeWinner(), the same loop ended at the first output
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
#include <atomic>
#include <cstdint>
#include <utility>
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
    std::size_t stdpPotentiated = 0;  ///< synapses potentiated (learn).

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
 * parameters: the per-neuron LIF state, the drive scratch, the tick
 * classes and the result. The network keeps one for its own walks;
 * each FirstSpikeReader and each PresentationTeam member keeps its
 * own, so walks on any number of threads share one network. Every
 * walk resizes and resets it, reusing its buffers.
 */
struct PresentationState
{
    std::vector<double> potentials;     ///< membrane potentials.
    std::vector<int64_t> lastUpdateMs;  ///< tick each potential is at.
    /** Ignores input before this tick: the later of the refractory
     *  and the WTA inhibition expiry. */
    std::vector<int64_t> gateUntil;
    std::vector<double> drive;          ///< one tick's drive per neuron.
    /** The class of each active tick the walk stepped (the
     *  snn.engine.ticks_* counters; docs/snn_engine.md). */
    std::vector<uint8_t> tickClasses;
    /** STDP's marks of the inputs causal to a firing (learning walks
     *  only; all 0 between firings). */
    std::vector<uint32_t> causal;
    PresentationResult result;          ///< the walk's outcome.
};

class SnnNetwork;

/**
 * A team that presents the same grids to one network together
 * (docs/parallelism.md, "Neuron-split STDP training"). Member k owns
 * the neurons [bound(k), bound(k + 1)) for the team's lifetime and
 * walks every presentation's active ticks over them alone: between
 * two firings each LIF neuron evolves on its own, and only the WTA
 * pick couples them. The members meet only at each firing, which is
 * the earliest threshold crossing, ties to the larger margin, then the
 * lower index: the order of the one-member walk's pick. A member that
 * stepped past the firing drops those ticks, which is exact only
 * because a firing zeroes every potential (SnnConfig::wtaReset), so a
 * network without it gets a team of one. The winner's owner alone runs
 * STDP, on the winner's weight row and transposed column, which no
 * other member reads; member 0 ends each presentation (the
 * max-potential readout, homeostasis and the counters).
 *
 * Every member calls SnnNetwork::present(grid, team, k) with the same
 * grids in the same order, all at once (parallelInvoke, whose contract
 * runs them on threads of their own). Each member's transposed weights
 * lie in a block of their own (SnnNetwork::splitColumns()), apart from
 * the peers' cache lines.
 */
class PresentationTeam
{
  public:
    /** Fewest neurons per member. Below about this many, a member's
     *  share of a tick costs less than keeping up with its peers
     *  (docs/parallelism.md). */
    static constexpr std::size_t kNeuronsPerMember = 32;

    /** @return the members for a network of @p config when @p width
     *  tasks run at once: one per kNeuronsPerMember neurons, at most
     *  @p width, and one without the WTA reset. */
    static std::size_t sizeFor(const SnnConfig &config, std::size_t width);

    /** A team of @p members (>= 1) presenting to @p net. While it
     *  lives, @p net keeps its transposed weights in one column block
     *  per member. */
    PresentationTeam(SnnNetwork &net, std::size_t members);
    ~PresentationTeam();
    PresentationTeam(const PresentationTeam &) = delete;
    PresentationTeam &operator=(const PresentationTeam &) = delete;

    /** @return the members. */
    std::size_t members() const { return bounds_.size() - 1; }

    /** @return the first neuron member @p k owns; bound(members()) is
     *  the layer's width. Bounds are multiples of 16, the drive tile. */
    std::size_t bound(std::size_t k) const { return bounds_[k]; }

    /** @return the active ticks members stepped past a firing and
     *  dropped since the last call (not while members run). */
    uint64_t takeDiscardedTicks();

  private:
    friend class SnnNetwork;

    /** A member's proposal for the next firing. */
    struct Crossing
    {
        std::size_t tick = 0; ///< active-tick index.
        double margin = 0.0;  ///< potential minus threshold.
        int neuron = -1;      ///< the crossing neuron, -1 for none.
        uint64_t round = 0;   ///< the round it was published in.
    };

    /** @return whether @p a fires before @p b (none, neuron -1, never
     *  does): the earlier tick, then the larger margin, then the lower
     *  index, as the one-member pick orders them. */
    static bool
    precedes(const Crossing &a, const Crossing &b)
    {
        if (b.neuron < 0)
            return true;
        if (a.tick != b.tick)
            return a.tick < b.tick;
        if (a.margin != b.margin)
            return a.margin > b.margin;
        return a.neuron < b.neuron;
    }

    /** What a member leaves at its window end for member 0. */
    struct WindowEnd
    {
        double maxPotential = -1.0; ///< its range's largest potential.
        int maxNeuron = -1;         ///< the first neuron holding it.
        std::size_t potentiated = 0; ///< its STDP potentiations.
    };

    /** One member's seat; its own cache lines. */
    struct alignas(64) Seat
    {
        /** (round << 32) | code, published once per round: the
         *  active ticks stepped when the member stopped below a peer's
         *  crossing, kEnd at the window end, or kCrossed after its own
         *  crossing. */
        std::atomic<uint64_t> position{0};
        /** The crossing of each round, by parity: a member can be at
         *  most one round ahead of a reader. */
        Crossing crossing[2];
        WindowEnd end;
        // The member's own; only its thread touches these while the
        // team runs.
        PresentationState state;
        uint64_t round = 1;       ///< firings and window ends so far, + 1.
        uint64_t presented = 0;   ///< presentations begun.
        uint64_t discarded = 0;   ///< ticks dropped at firings.
    };

    static constexpr uint64_t kTickMask = 0xffffffffu;
    static constexpr uint64_t kEnd = 0xfffffffeu;
    static constexpr uint64_t kCrossed = 0xffffffffu;

    /** @return whether a peer published a crossing of @p round below
     *  active tick @p k. */
    bool crossedBelow(uint64_t round, std::size_t k) const;

    /**
     * Member @p member's part of its round's agreement, once it has
     * crossed at @p own (own.neuron >= 0), stopped below a peer's
     * crossing, or published its window end. Publishes @p own and
     * waits for the peers. @return the round's firing, the same for
     * every member, or neuron -1 when the window ended without one.
     */
    Crossing agree(std::size_t member, Crossing own);

    SnnNetwork &net_;
    std::vector<std::size_t> bounds_; ///< members() + 1 neuron bounds.
    std::vector<Seat> seats_;
    /** (round << 32) | tick of the earliest crossing published in a
     *  round: a member stops before stepping a later tick. */
    alignas(64) std::atomic<uint64_t> earliest_{0};
    /** Presentations member 0 has ended. */
    alignas(64) std::atomic<uint64_t> ended_{0};
};

/**
 * The single-layer WTA spiking network. Owns the synaptic weight matrix
 * (numNeurons x numInputs, weights in [0, wMax]), the per-neuron LIF
 * state (structure-of-arrays) and the STDP + homeostasis machinery.
 */
class SnnNetwork
{
    friend class PresentationTeam;

  public:
    /** Construct with uniformly random initial weights. */
    SnnNetwork(const SnnConfig &config, Rng &rng);

    /** @return the configuration. */
    const SnnConfig &config() const { return config_; }

    /** @return the weight matrix (numNeurons x numInputs). */
    const Matrix &weights() const { return weights_; }
    /** Replace the weights (numNeurons x numInputs: loading, tests)
     *  and rebuild the transposed copy the event walks read. */
    void setWeights(Matrix weights);

    /** @return per-neuron membrane potentials (of the network's own
     *  last present() or presentImage(), not a team's). */
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
     * Learn from one encoded image for a full window: walk only the
     * spike-carrying ticks of the packed grid, apply STDP on every
     * firing and advance homeostasis. The production training path;
     * every field of the result covers the whole window.
     *
     * @param grid   the input spike train (finalized and complete).
     */
    PresentationResult present(const PackedSpikeGrid &grid);

    /**
     * present() as member @p member of @p team: each member walks its
     * own neuron range and the members agree on every firing. Member 0
     * ends the presentation and returns its result, equal to
     * present()'s; the other members return an empty result. Every
     * member calls this with the same grids in the same order, at the
     * same time, each on its own thread.
     */
    PresentationResult present(const PackedSpikeGrid &grid,
                               PresentationTeam &team, std::size_t member);

    /**
     * The SNNwt answer alone, without learning: exactly
     * `presentImage(grid, false).winner()`, but the walk ends at the
     * first output spike, which fixes that answer. A grid that fires
     * no neuron still runs to the window end for the max-potential
     * fallback. The walk writes only @p state (its result included),
     * so any number of threads may run it on one network.
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

    /**
     * The reference walk over every tick of the window, silent ones
     * included: bit-identical to present() on the same grid when
     * learning, and to firstSpikeWinner()'s answer when not. Kept as
     * the test oracle and for traces, which the event walks do not
     * record.
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

    /** presentImage()'s step: integrate the @p count spikes of
     *  @p grid arriving at tick @p t and run the WTA. */
    void stepTick(const PackedSpikeGrid &grid, int64_t t,
                  const uint16_t *spikes, std::size_t count, bool learn,
                  PresentationTrace *trace);

    /** present()'s and firstSpikeWinner()'s event loop over @p state.
     *  @p learner is this network when the walk learns (the whole
     *  window), else nullptr: the inference walk returns right after
     *  the first firing, or at the horizon of a truncated grid, and
     *  that result has no max-potential readout and counts only the
     *  ticks stepped. With a @p team, the walk is member @p member's
     *  over its own neuron range. */
    void walkEvents(const PackedSpikeGrid &grid, PresentationState &state,
                    SnnNetwork *learner, PresentationTeam *team = nullptr,
                    std::size_t member = 0) const;

    /** Member 0's end of a team presentation: combine the members'
     *  readouts, count the events, advance homeostasis and let the
     *  members begin the next presentation. */
    void endTeamPresentation(const PackedSpikeGrid &grid,
                             PresentationTeam &team);

    /** The gates one firing leaves, until the next firing. */
    struct FireGates
    {
        /** Every neuron is gated before this tick. */
        int64_t earliest = 0;
        /** Every peer that was open at the firing opens here. */
        int64_t peers = 0;
    };

    /** Shared fire-and-inhibit path of both walks (tick @p t) over the
     *  neurons [n0, n1). @return the gates it left there. */
    FireGates fireNeuron(int fire_n, int64_t t, PresentationState &state,
                         std::size_t n0, std::size_t n1) const;

    /** STDP on neuron @p fire_n's firing at tick @p t of @p grid;
     *  keeps the transposed copy fresh and counts the firing for
     *  homeostasis. */
    void learnFrom(std::size_t fire_n, int64_t t,
                   const PackedSpikeGrid &grid, PresentationState &state);

    /** Decay the neurons [n0, n1) of @p state to the window end.
     *  @return the first of them with the largest potential. */
    std::pair<double, int> decayToWindowEnd(PresentationState &state,
                                            std::size_t n0,
                                            std::size_t n1) const;

    /** Decay @p state to the window end and resolve the max-potential
     *  readout. */
    void finishPresentation(PresentationState &state, bool learn) const;

    SnnConfig config_;
    Matrix weights_;
    /** One block of the transposed weights: neurons [n0, n1) as a
     *  numInputs x stride matrix at weightsT_[offset]. */
    struct ColumnBlock
    {
        std::size_t n0 = 0;
        std::size_t n1 = 0;
        std::size_t offset = 0;
        std::size_t stride = 0; ///< n1 - n0 rounded up to a drive tile.
    };

    /** Lay the transposed weights out in one block per range of
     *  @p bounds (from 0 to numNeurons) and fill them from weights_. */
    void splitColumns(const std::vector<std::size_t> &bounds);

    /** @return the block holding neuron @p n. */
    const ColumnBlock &columnBlock(std::size_t n) const;

    /** Transposed weights (numInputs x numNeurons) for the event
     *  walk's contiguous drive accumulation, in column blocks: one for
     *  the whole layer, or one per member while a PresentationTeam
     *  splits it. Each block starts on its own 128-byte boundary
     *  (relative to the buffer it was laid out in) and its rows are
     *  whole 64-byte drive tiles, so no cache line, nor the line pair
     *  a prefetcher fetches together, holds two members' weights.
     *  Every weight write keeps it fresh (setWeights(), which the
     *  constructor runs, and learnFrom()). */
    std::vector<float> weightsT_;
    std::vector<ColumnBlock> columnBlocks_;

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
 * the serving backend run. A reader shares the trained network (const)
 * and owns a grid, a PresentationState and a horizon. Each image is
 * encoded only below the horizon (SpikeEncoder::encodeHorizon) and
 * walked to its first output spike. An image that fires nothing there
 * is re-encoded in full and walked
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
     * Exactly `presentImage(grid, false).winner()` of the grid
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

