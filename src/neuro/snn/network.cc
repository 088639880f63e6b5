#include "neuro/snn/network.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "neuro/common/logging.h"
#include "neuro/common/profile.h"
#include "neuro/common/rng.h"
#include "neuro/kernels/kernels.h"

namespace neuro {
namespace snn {

namespace {

/** Both walks take a grid of the network's shape. addSpike() bounds
 *  every input by the grid width, so a matching width keeps every
 *  weight-row read in range. */
void
checkGridShape(const PackedSpikeGrid &grid, const SnnConfig &config)
{
    NEURO_ASSERT(grid.periodMs() == config.coding.periodMs,
                 "packed grid period %d != config period %d",
                 grid.periodMs(), config.coding.periodMs);
    NEURO_ASSERT(grid.numInputs() == config.numInputs,
                 "packed grid inputs %zu != config inputs %zu",
                 grid.numInputs(), config.numInputs);
}

/** A full-window presentation takes a complete grid: a truncated one
 *  would miss the spikes past its horizon. */
void
checkGridComplete(const PackedSpikeGrid &grid)
{
    NEURO_ASSERT(grid.complete(),
                 "full-window presentation of a grid truncated at %d ms",
                 grid.horizonMs());
}

/** present()'s WTA pick when every neuron is open: the first neuron
 *  with the largest margin pot - thr >= 0, or -1 if none crossed. */
int
firstMaxMargin(const double *pot, const double *thr, std::size_t n)
{
    int fire_n = -1;
    double best_margin = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        if (pot[i] >= thr[i]) {
            const double margin = pot[i] - thr[i];
            if (fire_n < 0 || margin > best_margin) {
                fire_n = static_cast<int>(i);
                best_margin = margin;
            }
        }
    }
    return fire_n;
}

/** A neuron present()'s fast path updates on its own: gated at some
 *  tick, or last updated at a tick other than its peers'. */
struct HeldNeuron
{
    std::size_t n;  ///< neuron index.
    int64_t last;   ///< its last update tick.
    double pot;     ///< its potential before the current tick.
};

/** Held neurons the fast path tracks; a firing adds one and a
 *  reopening drops one, so a few suffice at any gate lengths the
 *  firing rate allows. Beyond it the slow path runs. */
constexpr std::size_t kMaxHeld = 8;

/** Add one presentation's events to the registry counters. */
void
countEvents(const PresentationResult &result, bool learn)
{
    obsCount<"snn.input_spikes">(result.inputSpikeCount);
    obsCount<"snn.output_spikes">(result.outputSpikeCount);
    obsCount<"snn.wta_inhibitions">(result.wtaInhibitions);
    if (learn) {
        obsCount<"snn.stdp_potentiations">(result.stdpPotentiated);
        obsCount<"snn.stdp_depressions">(result.stdpDepressed);
    }
}

} // namespace

SnnNetwork::SnnNetwork(const SnnConfig &config, Rng &rng)
    : config_(config),
      weights_(config.numNeurons, config.numInputs),
      thresholds_(config.numNeurons, 0.0),
      fireCounts_(config.numNeurons, 0),
      stdp_(config.stdp),
      homeostasis_(config.homeostasis)
{
    NEURO_ASSERT(config_.numInputs > 0 && config_.numNeurons > 0,
                 "empty network");
    NEURO_ASSERT(config_.initialThreshold > 0.0, "threshold must be > 0");
    const int period = config_.coding.periodMs;
    NEURO_ASSERT(period > 0, "presentation period must be > 0");
    weights_.fillUniform(rng, config_.wInitMin, config_.wInitMax);
    refreshWeightsT();
    for (auto &threshold : thresholds_) {
        threshold = config_.initialThreshold *
            (1.0 + config_.thresholdJitter * (rng.uniform() - 0.5));
    }
    // present()'s leak: exp(-dt/Tleak) depends only on the integer gap
    // dt, so one table serves every neuron, tick and presentation.
    // [0] = 1 and 0 * f = 0 are exact, so the scan needs no branch for
    // a neuron already at the current tick or at zero potential.
    decayFactors_.resize(static_cast<std::size_t>(period) + 1);
    decayFactors_[0] = 1.0;
    for (std::size_t dt = 1; dt < decayFactors_.size(); ++dt) {
        decayFactors_[dt] =
            std::exp(-static_cast<double>(dt) / config_.tLeakMs);
    }
    beginPresentation(state_);
}

void
SnnNetwork::beginPresentation(PresentationState &state) const
{
    const std::size_t num_neurons = config_.numNeurons;
    // The result starts afresh, keeping its per-neuron buffer.
    std::vector<uint16_t> counts = std::move(state.result.spikeCountPerNeuron);
    state.result = PresentationResult();
    counts.assign(num_neurons, 0);
    state.result.spikeCountPerNeuron = std::move(counts);
    state.potentials.assign(num_neurons, 0.0);
    state.lastUpdateMs.assign(num_neurons, 0);
    state.gateUntil.assign(num_neurons, int64_t{-1});
    state.lastInputSpike.assign(config_.numInputs, int64_t{-1});
    state.drive.resize(num_neurons);
}

SnnNetwork::FireGates
SnnNetwork::fireNeuron(int fire_n, int64_t t, PresentationState &state) const
{
    const std::size_t num_neurons = config_.numNeurons;
    const auto fn = static_cast<std::size_t>(fire_n);
    PresentationResult &result = state.result;
    double *pot = state.potentials.data();
    int64_t *gate = state.gateUntil.data();

    // The firing neuron was ungated at t, so its refractory period is
    // its whole gate; each peer's gate extends to the later expiry.
    FireGates gates;
    gates.peers = t + config_.tInhibitMs;
    pot[fn] = 0.0;
    gate[fn] = t + config_.tRefracMs;
    gates.earliest = gate[fn];
    ++result.outputSpikeCount;
    if (result.firstSpikeNeuron < 0) {
        result.firstSpikeNeuron = fire_n;
        result.firstSpikeTimeMs = t;
    }
    for (std::size_t n = 0; n < num_neurons; ++n) {
        if (n == fn)
            continue;
        gate[n] = std::max(gate[n], gates.peers);
        gates.earliest = std::min(gates.earliest, gate[n]);
        if (config_.wtaReset)
            pot[n] = 0.0;
    }
    result.wtaInhibitions += num_neurons - 1;
    ++result.spikeCountPerNeuron[fn];
    if (Tracer::enabled())
        Tracer::instance().instant("snn.fire", "spike");
    return gates;
}

void
SnnNetwork::learnFrom(std::size_t fire_n, int64_t t, PresentationState &state)
{
    const std::size_t num_inputs = config_.numInputs;
    const std::size_t num_neurons = config_.numNeurons;
    // Homeostasis counts only the firings of the presentations it
    // advances on; an inference between two learning ones must not
    // move the next epoch's thresholds.
    ++fireCounts_[fire_n];
    float *row = weights_.row(fire_n);
    const std::size_t potentiated = stdp_.onPostSpike(
        row, state.lastInputSpike.data(), t, num_inputs);
    state.result.stdpPotentiated += potentiated;
    state.result.stdpDepressed += num_inputs - potentiated;
    if (!weightsTDirty_) {
        // Keep the transposed copy coherent: the STDP update rewrote
        // one weight row = one column of it.
        float *column = weightsT_.data().data() + fire_n;
        for (std::size_t p = 0; p < num_inputs; ++p)
            column[p * num_neurons] = row[p];
    }
}

void
SnnNetwork::stepTick(int64_t t, const uint16_t *spikes, std::size_t count,
                     bool learn, PresentationTrace *trace)
{
    if (count == 0)
        return;
    const std::size_t num_neurons = config_.numNeurons;
    std::vector<double> &pot = state_.potentials;
    std::vector<int64_t> &last = state_.lastUpdateMs;
    const std::vector<int64_t> &gate = state_.gateUntil;

    state_.result.inputSpikeCount += count;
    // Integrate the tick's synaptic drive into every ungated neuron
    // (gated = refractory or laterally inhibited).
    for (std::size_t n = 0; n < num_neurons; ++n) {
        if (t < gate[n])
            continue;
        if (t > last[n]) {
            pot[n] = lifDecay(pot[n], static_cast<double>(t - last[n]),
                              config_.tLeakMs);
            last[n] = t;
        }
        const float *row = weights_.row(n);
        double drive = 0.0;
        // neurolint: ordered-sum
        for (std::size_t s = 0; s < count; ++s)
            drive += row[spikes[s]];
        pot[n] += drive;
    }
    for (std::size_t s = 0; s < count; ++s)
        state_.lastInputSpike[spikes[s]] = t;

    // Fire at most one neuron per tick: the one whose potential
    // exceeds its threshold by the largest margin (the WTA inhibition
    // then silences the others, matching the "only one neuron can
    // fire for a given input" dynamics).
    int fire_n = -1;
    double best_margin = 0.0;
    for (std::size_t n = 0; n < num_neurons; ++n) {
        if (t < gate[n] || pot[n] < thresholds_[n])
            continue;
        const double margin = pot[n] - thresholds_[n];
        if (fire_n < 0 || margin > best_margin) {
            fire_n = static_cast<int>(n);
            best_margin = margin;
        }
    }
    if (fire_n >= 0) {
        fireNeuron(fire_n, t, state_);
        if (learn)
            learnFrom(static_cast<std::size_t>(fire_n), t, state_);
        if (trace) {
            trace->outputSpikes.emplace_back(
                static_cast<int>(t), static_cast<uint16_t>(fire_n));
        }
    }
    if (trace) {
        for (std::size_t s = 0; s < count; ++s)
            trace->inputSpikes.emplace_back(static_cast<int>(t), spikes[s]);
    }
}

void
SnnNetwork::finishPresentation(PresentationState &state, bool learn) const
{
    const int period = config_.coding.periodMs;
    double *pot = state.potentials.data();
    int64_t *last = state.lastUpdateMs.data();
    // End-of-window potentials (decayed to the window end) for the
    // max-potential readout. Every tick lies below the period, so each
    // gap is in [1, period] and its table entry is lifDecay's factor.
    double best_pot = -1.0;
    for (std::size_t n = 0; n < config_.numNeurons; ++n) {
        const int64_t gap = period - last[n];
        NEURO_ASSERT(gap >= 1 && gap <= period, "decay gap %lld out of range",
                     static_cast<long long>(gap));
        pot[n] *= decayFactors_[static_cast<std::size_t>(gap)];
        last[n] = period;
        if (pot[n] > best_pot) {
            best_pot = pot[n];
            state.result.maxPotentialNeuron = static_cast<int>(n);
        }
    }
    countEvents(state.result, learn);
}

PresentationResult
SnnNetwork::presentImage(const PackedSpikeGrid &grid, bool learn,
                         PresentationTrace *trace)
{
    NEURO_PROFILE_SCOPE("snn/present");
    const std::size_t num_neurons = config_.numNeurons;
    const int period = config_.coding.periodMs;
    checkGridShape(grid, config_);
    checkGridComplete(grid);

    beginPresentation(state_);

    const std::size_t trace_neurons = trace
        ? (trace->neuronLimit ? std::min(trace->neuronLimit, num_neurons)
                              : num_neurons)
        : 0;

    // Every tick is stepped, silent ones included; a cursor over the
    // active ticks supplies each tick's inputs.
    const auto &active = grid.activeTicks();
    std::size_t k = 0;
    for (int t = 0; t < period; ++t) {
        std::size_t count = 0;
        const uint16_t *spikes = nullptr;
        if (k < active.size() && active[k] == t)
            spikes = grid.inputsAt(k++, &count);
        stepTick(t, spikes, count, learn, trace);
        if (trace) {
            std::vector<float> row(trace_neurons);
            for (std::size_t n = 0; n < trace_neurons; ++n) {
                // Sample the decayed value without mutating state.
                const int64_t gap = t - state_.lastUpdateMs[n];
                row[n] = static_cast<float>(
                    lifDecay(state_.potentials[n],
                             static_cast<double>(gap < 0 ? 0 : gap),
                             config_.tLeakMs));
            }
            trace->potentials.push_back(std::move(row));
        }
    }
    finishPresentation(state_, learn);
    if (learn) {
        homeostasis_.advance(period, thresholds_.data(),
                             fireCounts_.data(), num_neurons);
    }
    return std::move(state_.result);
}

void
SnnNetwork::refreshWeightsT()
{
    if (!weightsTDirty_)
        return;
    if (weightsT_.rows() != config_.numInputs ||
        weightsT_.cols() != config_.numNeurons) {
        weightsT_ = Matrix(config_.numInputs, config_.numNeurons);
    }
    const std::size_t num_neurons = config_.numNeurons;
    float *weights_t = weightsT_.data().data();
    for (std::size_t n = 0; n < num_neurons; ++n) {
        const float *row = weights_.row(n);
        for (std::size_t p = 0; p < config_.numInputs; ++p)
            weights_t[p * num_neurons + n] = row[p];
    }
    weightsTDirty_ = false;
}

PresentationResult
SnnNetwork::present(const PackedSpikeGrid &grid, bool learn)
{
    checkGridComplete(grid);
    refreshWeightsT();
    walkEvents(grid, state_, learn ? this : nullptr,
               /*untilFirstSpike=*/false);
    if (learn) {
        homeostasis_.advance(config_.coding.periodMs, thresholds_.data(),
                             fireCounts_.data(), config_.numNeurons);
    }
    return std::move(state_.result);
}

int
SnnNetwork::firstSpikeWinner(const PackedSpikeGrid &grid,
                             PresentationState &state, bool *fired) const
{
    NEURO_ASSERT(!weightsTDirty_,
                 "first-spike walk on stale transposed weights: call "
                 "refreshWeightsT() after writing weights()");
    walkEvents(grid, state, /*learner=*/nullptr, /*untilFirstSpike=*/true);
    const PresentationResult &result = state.result;
    if (fired)
        *fired = result.firstSpikeNeuron >= 0;
    if (result.firstSpikeNeuron < 0 && !grid.complete())
        return kUndecided;
    return result.winner();
}

void
SnnNetwork::walkEvents(const PackedSpikeGrid &grid, PresentationState &state,
                       SnnNetwork *learner, bool untilFirstSpike) const
{
    NEURO_PROFILE_SCOPE("snn/present_events");
    const std::size_t num_neurons = config_.numNeurons;
    const int period = config_.coding.periodMs;
    checkGridShape(grid, config_);

    beginPresentation(state);
    PresentationResult &result = state.result;

    const auto &active = grid.activeTicks();
    double *__restrict drive = state.drive.data();
    double *__restrict pot = state.potentials.data();
    const double *__restrict thr = thresholds_.data();
    int64_t *__restrict last = state.lastUpdateMs.data();
    const int64_t *gate = state.gateUntil.data();
    int64_t *input_times = state.lastInputSpike.data();
    const double *__restrict decay = decayFactors_.data();
    const float *weights_t = weightsT_.data().data();

    // The tick classes (docs/snn_engine.md). Every neuron is gated
    // before gated_until, the earliest gate the last firing left.
    // uniform_at is the tick every neuron outside `held` was last
    // updated at, or -1 when the update times differ; while it is
    // >= 0, the stored update times are stale and are written only
    // before they are read. Every neuron outside `held` is open from
    // peers_open on.
    int64_t gated_until = -1;
    int64_t peers_open = -1;
    int64_t uniform_at = 0;
    std::array<HeldNeuron, kMaxHeld> held;
    std::size_t num_held = 0;
    auto writeLastUpdates = [&] {
        std::fill(last, last + num_neurons, uniform_at);
        for (std::size_t h = 0; h < num_held; ++h)
            last[held[h].n] = held[h].last;
    };
    std::size_t all_gated_ticks = 0;
    std::size_t uniform_ticks = 0;
    std::size_t near_uniform_ticks = 0;
    // k ends as the number of ticks stepped: all of them, or those up
    // to and including the first firing when that decides the walk.
    bool decided = false;
    std::size_t k = 0;
    for (; k < active.size() && !decided; ++k) {
        const int64_t t = active[k];
        std::size_t spike_count = 0;
        const uint16_t *spikes = grid.inputsAt(k, &spike_count);
        result.inputSpikeCount += spike_count;
        if (t < gated_until) {
            // All-gated tick: the reference walk updates no neuron and
            // fires none, so only the input times (STDP reads them)
            // change.
            ++all_gated_ticks;
            for (std::size_t s = 0; s < spike_count; ++s)
                input_times[spikes[s]] = t;
            continue;
        }

        // Phase 1: synaptic drive for every neuron via the transposed
        // weights — per neuron, the additions run in the same spike
        // order as presentImage()'s row walk, from 0, so the sums are
        // bit-identical. driveTiles keeps each neuron's double chain
        // independent (it carries the ordered-sum tag), so SIMD only
        // widens how many neurons move per instruction.
        kernels::driveTiles(drive, weights_t, num_neurons, spikes,
                            spike_count, num_neurons);

        // Phase 2: decay-and-integrate the ungated neurons, then pick
        // the WTA winner in index order.
        int fire_n = -1;
        if (uniform_at >= 0 && t >= peers_open) {
            // Uniform or near-uniform tick: every neuron outside
            // `held` is open and decays by one shared factor, which is
            // each neuron's own table entry, so lifStep's
            // multiply-then-add is the slow path's exactly. A gated
            // held neuron sits at -inf through lifStep (-inf * f + d
            // stays -inf), so it neither crosses nor wins, and gets
            // its potential back after the pick. A held neuron that
            // reopens redoes its update with its own gap's factor.
            ++(num_held == 0 ? uniform_ticks : near_uniform_ticks);
            for (std::size_t h = 0; h < num_held; ++h) {
                held[h].pot = pot[held[h].n];
                if (t < gate[held[h].n])
                    pot[held[h].n] = -std::numeric_limits<double>::infinity();
            }
            const double factor =
                decay[static_cast<std::size_t>(t - uniform_at)];
            bool crossed =
                kernels::lifStep(pot, drive, thr, factor, num_neurons);
            std::size_t still_held = 0;
            for (std::size_t h = 0; h < num_held; ++h) {
                const std::size_t n = held[h].n;
                if (t < gate[n]) {
                    held[still_held++] = held[h];
                    continue;
                }
                pot[n] = held[h].pot;
                pot[n] *= decay[static_cast<std::size_t>(t - held[h].last)];
                pot[n] += drive[n];
                crossed = crossed || pot[n] >= thr[n];
            }
            if (crossed)
                fire_n = firstMaxMargin(pot, thr, num_neurons);
            num_held = still_held;
            for (std::size_t h = 0; h < num_held; ++h)
                pot[held[h].n] = held[h].pot;
            uniform_at = t;
        } else {
            // Slow path: per-neuron gates and gaps, tracking the
            // winner in the same index-order pass (per-neuron updates
            // are independent, so fusing the reference walk's
            // integrate loop and fire scan changes nothing). Gated
            // neurons keep their stale lastUpdate and catch up later,
            // exactly as the reference walk leaves them; when at most
            // kMaxHeld are gated, they become the held list and the
            // next ticks take the fast path.
            if (uniform_at >= 0)
                writeLastUpdates();
            num_held = 0;
            bool overflow = false;
            double best_margin = 0.0;
            for (std::size_t n = 0; n < num_neurons; ++n) {
                if (t < gate[n]) {
                    if (num_held < kMaxHeld)
                        held[num_held++] = {n, last[n], 0.0};
                    else
                        overflow = true;
                    continue;
                }
                pot[n] *= decay[static_cast<std::size_t>(t - last[n])];
                last[n] = t;
                pot[n] += drive[n];
                if (pot[n] >= thr[n]) {
                    const double margin = pot[n] - thr[n];
                    if (fire_n < 0 || margin > best_margin) {
                        fire_n = static_cast<int>(n);
                        best_margin = margin;
                    }
                }
            }
            uniform_at = overflow ? -1 : t;
            peers_open = t;
        }
        for (std::size_t s = 0; s < spike_count; ++s)
            input_times[spikes[s]] = t;
        if (fire_n >= 0) {
            // Every neuron outside `held` was open at t, so the firing
            // gates it to exactly gates.peers; the winner joins `held`
            // with its own gate.
            const FireGates gates = fireNeuron(fire_n, t, state);
            if (learner) {
                learner->learnFrom(static_cast<std::size_t>(fire_n), t,
                                   state);
            }
            gated_until = gates.earliest;
            peers_open = gates.peers;
            if (uniform_at >= 0 && num_held < kMaxHeld) {
                held[num_held++] = {static_cast<std::size_t>(fire_n), t,
                                    0.0};
            } else if (uniform_at >= 0) {
                writeLastUpdates();
                uniform_at = -1;
            }
            decided = untilFirstSpike;
        }
    }
    if (uniform_at >= 0)
        writeLastUpdates();

    obsCount<"snn.engine.ticks_active">(k);
    obsCount<"snn.engine.ticks_uniform">(uniform_ticks);
    obsCount<"snn.engine.ticks_near_uniform">(near_uniform_ticks);
    obsCount<"snn.engine.ticks_all_gated">(all_gated_ticks);
    obsCount<"snn.engine.ticks_skipped">(static_cast<uint64_t>(period) - k);
    // Once the first spike fixed the answer, the window-end decay and
    // the max-potential readout would go unread; a truncated grid has
    // no window end to read.
    if (decided || !grid.complete())
        countEvents(result, learner != nullptr);
    else
        finishPresentation(state, learner != nullptr);
}

FirstSpikeReader::FirstSpikeReader(const SnnNetwork &net,
                                   const SpikeEncoder &encoder)
    : net_(net), encoder_(encoder)
{
    NEURO_ASSERT(encoder.config().periodMs == net.config().coding.periodMs,
                 "reader encoder period %d != network period %d",
                 encoder.config().periodMs, net.config().coding.periodMs);
    needed_.fill(horizonAbove(0));
}

int
FirstSpikeReader::horizonAbove(int64_t tick) const
{
    const int period = encoder_.config().periodMs;
    for (int k = kHorizonShifts; k > 0; --k) {
        if (tick < (period >> k))
            return period >> k;
    }
    return period;
}

int
FirstSpikeReader::winner(const uint8_t *pixels, std::size_t numPixels,
                         uint64_t streamSeed, bool *fired)
{
    Rng rng(streamSeed);
    encoder_.encodeHorizon(pixels, numPixels, rng, horizonMs(), grid_);
    int winner = net_.firstSpikeWinner(grid_, state_, fired);
    if (winner == SnnNetwork::kUndecided) {
        // Nothing fired below the horizon: this image needs the whole
        // window.
        obsCount<"snn.encode.horizon_restarts">();
        Rng full(streamSeed);
        encoder_.encodePacked(pixels, numPixels, full, grid_);
        winner = net_.firstSpikeWinner(grid_, state_, fired);
    }
    const PresentationResult &result = state_.result;
    needed_[nextNeeded_] = result.firstSpikeNeuron >= 0
        ? horizonAbove(result.firstSpikeTimeMs)
        : encoder_.config().periodMs;
    nextNeeded_ = (nextNeeded_ + 1) % kHorizonHistory;
    return winner;
}

} // namespace snn
} // namespace neuro
