#include "neuro/snn/network.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>

#include "neuro/common/logging.h"
#include "neuro/common/parallel.h"
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

/** The classes of an active tick (docs/snn_engine.md). */
enum TickClass : uint8_t
{
    kAllGated,
    kUniform,
    kNearUniform,
    kSlow,
};

/** Add the classes of the first @p stepped active ticks to the
 *  engine counters. */
void
countTickClasses(const std::vector<uint8_t> &classes, std::size_t stepped,
                 int period)
{
    std::array<uint64_t, 4> counts{};
    for (std::size_t k = 0; k < stepped; ++k)
        ++counts[classes[k]];
    obsCount<"snn.engine.ticks_active">(stepped);
    obsCount<"snn.engine.ticks_uniform">(counts[kUniform]);
    obsCount<"snn.engine.ticks_near_uniform">(counts[kNearUniform]);
    obsCount<"snn.engine.ticks_all_gated">(counts[kAllGated]);
    obsCount<"snn.engine.ticks_skipped">(static_cast<uint64_t>(period) -
                                         stepped);
}

/** Add one presentation's events to the registry counters. Each
 *  firing gates every peer and, when learning, moves every synapse of
 *  its row: potentiated or depressed. */
void
countEvents(const PresentationResult &result, bool learn,
            const SnnConfig &config)
{
    obsCount<"snn.input_spikes">(result.inputSpikeCount);
    obsCount<"snn.output_spikes">(result.outputSpikeCount);
    obsCount<"snn.wta_inhibitions">(result.outputSpikeCount *
                                    (config.numNeurons - 1));
    if (learn) {
        obsCount<"snn.stdp_potentiations">(result.stdpPotentiated);
        const std::size_t moved = result.outputSpikeCount * config.numInputs;
        obsCount<"snn.stdp_depressions">(moved - result.stdpPotentiated);
    }
}

} // namespace

SnnNetwork::SnnNetwork(const SnnConfig &config, Rng &rng)
    : config_(config),
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
    Matrix weights(config_.numNeurons, config_.numInputs);
    weights.fillUniform(rng, config_.wInitMin, config_.wInitMax);
    columnBlocks_.push_back({0, config_.numNeurons, 0, 0});
    setWeights(std::move(weights));
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
    state.result = PresentationResult();
    state.potentials.assign(num_neurons, 0.0);
    state.lastUpdateMs.assign(num_neurons, 0);
    state.gateUntil.assign(num_neurons, int64_t{-1});
    state.drive.resize(num_neurons);
}

SnnNetwork::FireGates
SnnNetwork::fireNeuron(int fire_n, int64_t t, PresentationState &state,
                       std::size_t n0, std::size_t n1) const
{
    const auto fn = static_cast<std::size_t>(fire_n);
    PresentationResult &result = state.result;
    double *pot = state.potentials.data();
    int64_t *gate = state.gateUntil.data();

    // The firing neuron was ungated at t, so its refractory period is
    // its whole gate; each peer's gate extends to the later expiry.
    FireGates gates;
    gates.peers = t + config_.tInhibitMs;
    gates.earliest = std::numeric_limits<int64_t>::max();
    ++result.outputSpikeCount;
    if (result.firstSpikeNeuron < 0) {
        result.firstSpikeNeuron = fire_n;
        result.firstSpikeTimeMs = t;
    }
    for (std::size_t n = n0; n < n1; ++n) {
        if (n == fn) {
            pot[n] = 0.0;
            gate[n] = t + config_.tRefracMs;
        } else {
            gate[n] = std::max(gate[n], gates.peers);
            if (config_.wtaReset)
                pot[n] = 0.0;
        }
        gates.earliest = std::min(gates.earliest, gate[n]);
    }
    if (n0 == 0 && Tracer::enabled())
        Tracer::instance().instant("snn.fire", "spike");
    return gates;
}

void
SnnNetwork::learnFrom(std::size_t fire_n, int64_t t,
                      const PackedSpikeGrid &grid, PresentationState &state)
{
    const std::size_t num_inputs = config_.numInputs;
    // Homeostasis counts only the firings of the presentations it
    // advances on; an inference between two learning ones must not
    // move the next epoch's thresholds.
    ++fireCounts_[fire_n];
    std::vector<uint32_t> &causal = state.causal;
    causal.resize(num_inputs);
    state.result.stdpPotentiated +=
        stdp_.markCausal(grid, t, causal.data());
    float *row = weights_.row(fire_n);
    stdp_.onPostSpike(row, causal.data(), num_inputs);
    std::fill(causal.begin(), causal.end(), 0u);
    // Keep the transposed copy coherent: the STDP update rewrote one
    // weight row = one column of it.
    const ColumnBlock &block = columnBlock(fire_n);
    float *column = weightsT_.data() + block.offset + (fire_n - block.n0);
    for (std::size_t p = 0; p < num_inputs; ++p)
        column[p * block.stride] = row[p];
}

const SnnNetwork::ColumnBlock &
SnnNetwork::columnBlock(std::size_t n) const
{
    std::size_t b = 0;
    while (n >= columnBlocks_[b].n1)
        ++b;
    return columnBlocks_[b];
}

void
SnnNetwork::splitColumns(const std::vector<std::size_t> &bounds)
{
    // Whole 16-float drive tiles per row, and 128-byte block starts
    // with at least 128 bytes between blocks.
    constexpr std::size_t kTileFloats = 16;
    constexpr std::size_t kBlockAlign = 128 / sizeof(float);
    const std::size_t num_inputs = config_.numInputs;
    columnBlocks_.clear();
    std::size_t end = 0;
    for (std::size_t b = 0; b + 1 < bounds.size(); ++b) {
        ColumnBlock block;
        block.n0 = bounds[b];
        block.n1 = bounds[b + 1];
        block.stride = (block.n1 - block.n0 + kTileFloats - 1) /
            kTileFloats * kTileFloats;
        block.offset = b == 0 ? 0
                              : (end + 2 * kBlockAlign - 1) / kBlockAlign *
                kBlockAlign;
        end = block.offset + num_inputs * block.stride;
        columnBlocks_.push_back(block);
    }
    // Free the old layout before the new one is touched, so the two
    // never hold pages at once; then shift every block by the floats
    // that put the buffer's first block on a 128-byte boundary.
    std::vector<float>().swap(weightsT_);
    weightsT_.resize(end + kBlockAlign);
    const auto misaligned =
        reinterpret_cast<std::uintptr_t>(weightsT_.data()) % 128;
    const std::size_t shift = (128 - misaligned) % 128 / sizeof(float);
    for (ColumnBlock &block : columnBlocks_) {
        block.offset += shift;
        const std::size_t width = block.n1 - block.n0;
        float *base = weightsT_.data() + block.offset;
        for (std::size_t n = 0; n < width; ++n) {
            const float *row = weights_.row(block.n0 + n);
            for (std::size_t p = 0; p < num_inputs; ++p)
                base[p * block.stride + n] = row[p];
        }
    }
}

void
SnnNetwork::setWeights(Matrix weights)
{
    NEURO_ASSERT(weights.rows() == config_.numNeurons &&
                     weights.cols() == config_.numInputs,
                 "weights %zux%zu != network %zux%zu", weights.rows(),
                 weights.cols(), config_.numNeurons, config_.numInputs);
    weights_ = std::move(weights);
    std::vector<std::size_t> bounds;
    for (const ColumnBlock &block : columnBlocks_)
        bounds.push_back(block.n0);
    bounds.push_back(config_.numNeurons);
    splitColumns(bounds);
}

void
SnnNetwork::stepTick(const PackedSpikeGrid &grid, int64_t t,
                     const uint16_t *spikes, std::size_t count, bool learn,
                     PresentationTrace *trace)
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
        fireNeuron(fire_n, t, state_, 0, num_neurons);
        if (learn)
            learnFrom(static_cast<std::size_t>(fire_n), t, grid, state_);
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

std::pair<double, int>
SnnNetwork::decayToWindowEnd(PresentationState &state, std::size_t n0,
                             std::size_t n1) const
{
    const int period = config_.coding.periodMs;
    double *pot = state.potentials.data();
    int64_t *last = state.lastUpdateMs.data();
    // End-of-window potentials (decayed to the window end) for the
    // max-potential readout. Every tick lies below the period, so each
    // gap is in [1, period] and its table entry is lifDecay's factor.
    std::pair<double, int> best{-1.0, -1};
    for (std::size_t n = n0; n < n1; ++n) {
        const int64_t gap = period - last[n];
        NEURO_ASSERT(gap >= 1 && gap <= period, "decay gap %lld out of range",
                     static_cast<long long>(gap));
        pot[n] *= decayFactors_[static_cast<std::size_t>(gap)];
        last[n] = period;
        if (pot[n] > best.first)
            best = {pot[n], static_cast<int>(n)};
    }
    return best;
}

void
SnnNetwork::finishPresentation(PresentationState &state, bool learn) const
{
    state.result.maxPotentialNeuron =
        decayToWindowEnd(state, 0, config_.numNeurons).second;
    countEvents(state.result, learn, config_);
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
        stepTick(grid, t, spikes, count, learn, trace);
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

PresentationResult
SnnNetwork::present(const PackedSpikeGrid &grid)
{
    checkGridComplete(grid);
    walkEvents(grid, state_, this);
    homeostasis_.advance(config_.coding.periodMs, thresholds_.data(),
                         fireCounts_.data(), config_.numNeurons);
    return std::move(state_.result);
}

PresentationResult
SnnNetwork::present(const PackedSpikeGrid &grid, PresentationTeam &team,
                    std::size_t member)
{
    NEURO_ASSERT(&team.net_ == this, "a team presents to its own network");
    if (team.members() == 1)
        return present(grid);
    checkGridComplete(grid);
    PresentationTeam::Seat &seat = team.seats_[member];
    // Thresholds stay fixed until member 0 has ended the presentation
    // before (its homeostasis step moves them).
    awaitAtLeast(team.ended_, seat.presented++);
    walkEvents(grid, seat.state, this, &team, member);
    if (member != 0)
        return PresentationResult();
    endTeamPresentation(grid, team);
    return std::move(seat.state.result);
}

void
SnnNetwork::endTeamPresentation(const PackedSpikeGrid &grid,
                                PresentationTeam &team)
{
    // Every member has reached the window end of the same round, so
    // each one's readout is published (walkEvents). Combining them in
    // member order keeps the one-member scan's first maximum.
    PresentationResult &result = team.seats_[0].state.result;
    double best_pot = -1.0;
    for (const PresentationTeam::Seat &seat : team.seats_) {
        if (seat.end.maxPotential > best_pot) {
            best_pot = seat.end.maxPotential;
            result.maxPotentialNeuron = seat.end.maxNeuron;
        }
        if (&seat != &team.seats_[0])
            result.stdpPotentiated += seat.end.potentiated;
    }
    result.inputSpikeCount = grid.totalSpikes();
    countEvents(result, /*learn=*/true, config_);
    homeostasis_.advance(config_.coding.periodMs, thresholds_.data(),
                         fireCounts_.data(), config_.numNeurons);
    team.ended_.store(team.seats_[0].presented, std::memory_order_release);
}

int
SnnNetwork::firstSpikeWinner(const PackedSpikeGrid &grid,
                             PresentationState &state, bool *fired) const
{
    walkEvents(grid, state, /*learner=*/nullptr);
    const PresentationResult &result = state.result;
    if (fired)
        *fired = result.firstSpikeNeuron >= 0;
    if (result.firstSpikeNeuron < 0 && !grid.complete())
        return kUndecided;
    return result.winner();
}

void
SnnNetwork::walkEvents(const PackedSpikeGrid &grid, PresentationState &state,
                       SnnNetwork *learner, PresentationTeam *team,
                       std::size_t member) const
{
    NEURO_PROFILE_SCOPE("snn/present_events");
    const std::size_t num_neurons = config_.numNeurons;
    checkGridShape(grid, config_);

    beginPresentation(state);
    PresentationResult &result = state.result;
    // The neurons this walk owns: all of them, or a team member's
    // range.
    const std::size_t n0 = team ? team->bound(member) : 0;
    const std::size_t n1 = team ? team->bound(member + 1) : num_neurons;
    const std::size_t width = n1 - n0;

    const auto &active = grid.activeTicks();
    const std::size_t num_active = active.size();
    state.tickClasses.resize(num_active);
    uint8_t *classes = state.tickClasses.data();
    double *__restrict drive = state.drive.data();
    double *__restrict pot = state.potentials.data();
    const double *__restrict thr = thresholds_.data();
    int64_t *__restrict last = state.lastUpdateMs.data();
    const int64_t *gate = state.gateUntil.data();
    const double *__restrict decay = decayFactors_.data();
    const float *weights_t = weightsT_.data();

    // The tick classes (docs/snn_engine.md). Every owned neuron is
    // gated before gated_until, the earliest gate the last firing left.
    // uniform_at is the tick every owned neuron outside `held` was last
    // updated at, or -1 when the update times differ; while it is
    // >= 0, the stored update times are stale and are written only
    // before they are read. Every owned neuron outside `held` is open
    // from peers_open on.
    int64_t gated_until = -1;
    int64_t peers_open = -1;
    int64_t uniform_at = 0;
    std::array<HeldNeuron, kMaxHeld> held;
    std::size_t num_held = 0;
    auto writeLastUpdates = [&] {
        std::fill(last + n0, last + n1, uniform_at);
        for (std::size_t h = 0; h < num_held; ++h)
            last[held[h].n] = held[h].last;
    };

    // Steps active tick k over the owned neurons. @return the neuron
    // the WTA picks there, or -1 if none crossed.
    auto step = [&](std::size_t k) -> int {
        const int64_t t = active[k];
        std::size_t spike_count = 0;
        const uint16_t *spikes = grid.inputsAt(k, &spike_count);
        result.inputSpikeCount += spike_count;
        if (t < gated_until) {
            // All-gated tick: the reference walk updates no neuron and
            // fires none.
            classes[k] = kAllGated;
            return -1;
        }

        // Phase 1: synaptic drive for every neuron via the transposed
        // weights — per neuron, the additions run in the same spike
        // order as presentImage()'s row walk, from 0, so the sums are
        // bit-identical. driveTiles keeps each neuron's double chain
        // independent (it carries the ordered-sum tag), so SIMD only
        // widens how many neurons move per instruction.
        for (const ColumnBlock &block : columnBlocks_) {
            const std::size_t lo = std::max(n0, block.n0);
            const std::size_t hi = std::min(n1, block.n1);
            if (lo < hi) {
                kernels::driveTiles(drive + lo,
                                    weights_t + block.offset + (lo - block.n0),
                                    block.stride, spikes, spike_count,
                                    hi - lo);
            }
        }

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
            classes[k] = num_held == 0 ? kUniform : kNearUniform;
            for (std::size_t h = 0; h < num_held; ++h) {
                held[h].pot = pot[held[h].n];
                if (t < gate[held[h].n])
                    pot[held[h].n] = -std::numeric_limits<double>::infinity();
            }
            const double factor =
                decay[static_cast<std::size_t>(t - uniform_at)];
            bool crossed = kernels::lifStep(pot + n0, drive + n0, thr + n0,
                                            factor, width);
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
            if (crossed) {
                fire_n = static_cast<int>(n0) +
                    firstMaxMargin(pot + n0, thr + n0, width);
            }
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
            classes[k] = kSlow;
            if (uniform_at >= 0)
                writeLastUpdates();
            num_held = 0;
            bool overflow = false;
            double best_margin = 0.0;
            for (std::size_t n = n0; n < n1; ++n) {
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
        return fire_n;
    };

    PresentationTeam::Seat *seat = team ? &team->seats_[member] : nullptr;
    // k ends as the number of ticks stepped: all of them, or those up
    // to and including the first firing when that decides the walk.
    std::size_t k = 0;
    bool decided = false;
    while (!decided) {
        // Step until the owned neurons cross, a team peer has crossed
        // below the next tick, or the window ends.
        int cross_n = -1;
        for (; k < num_active; ++k) {
            if (seat && team->crossedBelow(seat->round, k)) {
                // A peer's crossing ends the round below k: publish
                // how far this member got, once (a store every tick
                // would pull the line from a waiting peer each time).
                seat->position.store((seat->round << 32) | k,
                                     std::memory_order_release);
                break;
            }
            cross_n = step(k);
            if (cross_n >= 0)
                break;
        }

        // The firing, if any: this walk's own crossing, or the one the
        // team agrees on.
        PresentationTeam::Crossing firing;
        std::size_t stepped = k;
        if (!team) {
            firing = {k, 0.0, cross_n};
        } else {
            if (cross_n >= 0) {
                ++stepped;
                firing = {k, pot[cross_n] - thr[cross_n], cross_n};
            } else if (k == num_active) {
                // The window end, unless a peer crossed before it: the
                // readout is published with the end, and a firing
                // found later zeroes what it decayed. From here on the
                // stored update times are current.
                if (uniform_at >= 0)
                    writeLastUpdates();
                uniform_at = -1;
                const auto [best_pot, best_n] =
                    decayToWindowEnd(state, n0, n1);
                seat->end = {best_pot, best_n, result.stdpPotentiated};
                seat->position.store(
                    (seat->round << 32) | PresentationTeam::kEnd,
                    std::memory_order_release);
            }
            firing = team->agree(member, firing);
        }
        if (firing.neuron < 0)
            break;

        // Every walk applies the firing to its own neurons; only the
        // winner's owner learns from it.
        const int64_t t = active[firing.tick];
        const auto fire_n = static_cast<std::size_t>(firing.neuron);
        const FireGates gates = fireNeuron(firing.neuron, t, state, n0, n1);
        if (learner && fire_n >= n0 && fire_n < n1)
            learner->learnFrom(fire_n, t, grid, state);
        gated_until = gates.earliest;
        peers_open = gates.peers;
        k = firing.tick + 1;
        if (!team) {
            // Every neuron outside `held` was open at t, so the firing
            // gates it to exactly gates.peers; the winner joins `held`
            // with its own gate.
            if (uniform_at >= 0 && num_held < kMaxHeld) {
                held[num_held++] = {fire_n, t, 0.0};
            } else if (uniform_at >= 0) {
                writeLastUpdates();
                uniform_at = -1;
            }
            decided = learner == nullptr;
            continue;
        }
        // A team member may have stepped past the firing, or to the
        // window end; it drops those ticks. The firing zeroed every
        // owned potential (a team runs only with the WTA reset), so
        // each owned neuron is as if updated at t, whatever it was at:
        // those outside the held list open together at peers_open.
        seat->discarded += stepped - k;
        ++seat->round;
        uniform_at = t;
        num_held = 0;
        for (std::size_t n = n0; n < n1 && uniform_at >= 0; ++n) {
            if (gate[n] <= peers_open)
                continue;
            if (num_held < kMaxHeld) {
                held[num_held++] = {n, t, 0.0};
            } else {
                std::fill(last + n0, last + n1, t);
                uniform_at = -1;
            }
        }
    }
    if (!team || member == 0)
        countTickClasses(state.tickClasses, k, config_.coding.periodMs);
    if (team) {
        ++seat->round;
        return;
    }
    if (uniform_at >= 0)
        writeLastUpdates();
    // Once the first spike fixed the answer, the window-end decay and
    // the max-potential readout would go unread; a truncated grid has
    // no window end to read.
    if (decided || !grid.complete())
        countEvents(result, learner != nullptr, config_);
    else
        finishPresentation(state, learner != nullptr);
}

uint64_t
PresentationTeam::takeDiscardedTicks()
{
    uint64_t total = 0;
    for (Seat &seat : seats_)
        total += std::exchange(seat.discarded, 0);
    return total;
}

std::size_t
PresentationTeam::sizeFor(const SnnConfig &config, std::size_t width)
{
    if (!config.wtaReset)
        return 1;
    return std::max<std::size_t>(
        1, std::min(width, config.numNeurons / kNeuronsPerMember));
}

PresentationTeam::PresentationTeam(SnnNetwork &net, std::size_t members)
    : net_(net), seats_(members)
{
    const SnnConfig &config = net.config();
    NEURO_ASSERT(members >= 1, "a team needs a member");
    NEURO_ASSERT(members == 1 || config.wtaReset,
                 "a team of %zu needs the WTA reset", members);
    // Each bound is an even split rounded down to whole 16-neuron
    // drive tiles, so the last member takes the rounding and the
    // ragged rest, and member 0, which also ends every presentation,
    // the smaller share (144 of 300 neurons at two members); each
    // range is at least one tile wide.
    constexpr std::size_t kTile = 16;
    const std::size_t n = config.numNeurons;
    for (std::size_t k = 0; k < members; ++k)
        bounds_.push_back(n * k / members / kTile * kTile);
    bounds_.push_back(n);
    for (std::size_t k = 0; k < members; ++k) {
        NEURO_ASSERT(members == 1 || bounds_[k + 1] >= bounds_[k] + kTile,
                     "member %zu of %zu owns under one tile of %zu neurons",
                     k, members, n);
    }
    if (members > 1)
        net_.splitColumns(bounds_);
}

PresentationTeam::~PresentationTeam()
{
    if (members() > 1)
        net_.splitColumns({0, net_.config().numNeurons});
}

bool
PresentationTeam::crossedBelow(uint64_t round, std::size_t k) const
{
    const uint64_t e = earliest_.load(std::memory_order_relaxed);
    return (e >> 32) == round && (e & kTickMask) < k;
}

PresentationTeam::Crossing
PresentationTeam::agree(std::size_t member, Crossing own)
{
    Seat &seat = seats_[member];
    const uint64_t round = seat.round;
    const uint64_t base = round << 32;
    if (own.neuron >= 0) {
        own.round = round;
        seat.crossing[round & 1] = own;
        seat.position.store(base | kCrossed, std::memory_order_release);
        // Tell the peers to stop before they step past it. A stale
        // round's store must not replace a newer round's.
        const uint64_t mine = base | own.tick;
        uint64_t cur = earliest_.load(std::memory_order_relaxed);
        while (((cur >> 32) < round ||
                ((cur >> 32) == round && cur > mine)) &&
               !earliest_.compare_exchange_weak(cur, mine,
                                                std::memory_order_relaxed)) {
        }
    }
    // The firing is the earliest crossing of the round. Once every
    // peer has crossed, stepped past the earliest crossing published,
    // or reached the window end, no peer can cross earlier. Each peer's
    // position is loaded once per poll. A peer already in a later round
    // has agreed on this one, so its position is final here, and its
    // crossing of this round, if it had one, is still in its slot.
    Crossing firing;
    awaitUntil([&] {
        firing = own;
        uint64_t lowest = ~uint64_t{0}; // of the peers that did not cross.
        for (std::size_t j = 0; j < seats_.size(); ++j) {
            if (j == member)
                continue;
            const uint64_t v =
                seats_[j].position.load(std::memory_order_acquire);
            if (v >= (base | kCrossed)) {
                const Crossing &c = seats_[j].crossing[round & 1];
                if (c.round == round && precedes(c, firing))
                    firing = c;
            } else {
                lowest = std::min(lowest, v);
            }
        }
        return lowest >= (base | (firing.neuron >= 0 ? firing.tick + 1
                                                     : kEnd));
    });
    return firing;
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
