#include "neuro/snn/network.h"

#include <algorithm>
#include <cmath>

#include "neuro/common/logging.h"
#include "neuro/common/profile.h"
#include "neuro/common/rng.h"
#include "neuro/kernels/kernels.h"

namespace neuro {
namespace snn {

int
PresentationResult::winner(Readout readout) const
{
    switch (readout) {
      case Readout::FirstSpike:
        return firstSpikeNeuron >= 0 ? firstSpikeNeuron
                                     : maxPotentialNeuron;
      case Readout::MaxPotential:
        return maxPotentialNeuron;
    }
    panic("unreachable readout");
}

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

} // namespace

SnnNetwork::SnnNetwork(const SnnConfig &config, Rng &rng)
    : config_(config),
      weights_(config.numNeurons, config.numInputs),
      potentials_(config.numNeurons, 0.0),
      thresholds_(config.numNeurons, 0.0),
      lastUpdateMs_(config.numNeurons, 0),
      gateUntil_(config.numNeurons, -1),
      fireCounts_(config.numNeurons, 0),
      stdp_(config.stdp),
      homeostasis_(config.homeostasis),
      lastInputSpike_(config.numInputs, -1)
{
    NEURO_ASSERT(config_.numInputs > 0 && config_.numNeurons > 0,
                 "empty network");
    NEURO_ASSERT(config_.initialThreshold > 0.0, "threshold must be > 0");
    const int period = config_.coding.periodMs;
    NEURO_ASSERT(period > 0, "presentation period must be > 0");
    weights_.fillUniform(rng, config_.wInitMin, config_.wInitMax);
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
}

void
SnnNetwork::beginPresentation(PresentationResult &result)
{
    result = PresentationResult();
    result.spikeCountPerNeuron.assign(config_.numNeurons, 0);
    std::fill(potentials_.begin(), potentials_.end(), 0.0);
    std::fill(lastUpdateMs_.begin(), lastUpdateMs_.end(), 0);
    std::fill(gateUntil_.begin(), gateUntil_.end(), int64_t{-1});
    std::fill(lastInputSpike_.begin(), lastInputSpike_.end(), -1);
}

int64_t
SnnNetwork::fireNeuron(int fire_n, int64_t t, bool learn,
                       PresentationResult &result)
{
    const std::size_t num_neurons = config_.numNeurons;
    const std::size_t num_inputs = config_.numInputs;
    const auto fn = static_cast<std::size_t>(fire_n);

    // The firing neuron was ungated at t, so its refractory period is
    // its whole gate; each peer's gate extends to the later expiry.
    potentials_[fn] = 0.0;
    gateUntil_[fn] = t + config_.tRefracMs;
    int64_t latest_gate = gateUntil_[fn];
    ++fireCounts_[fn];
    ++result.outputSpikeCount;
    if (result.firstSpikeNeuron < 0) {
        result.firstSpikeNeuron = fire_n;
        result.firstSpikeTimeMs = t;
    }
    for (std::size_t n = 0; n < num_neurons; ++n) {
        if (static_cast<int>(n) == fire_n)
            continue;
        gateUntil_[n] = std::max(gateUntil_[n], t + config_.tInhibitMs);
        latest_gate = std::max(latest_gate, gateUntil_[n]);
        if (config_.wtaReset)
            potentials_[n] = 0.0;
    }
    result.wtaInhibitions += num_neurons - 1;
    if (learn) {
        const std::size_t potentiated = stdp_.onPostSpike(
            weights_.row(fn), lastInputSpike_.data(), t, num_inputs);
        result.stdpPotentiated += potentiated;
        result.stdpDepressed += num_inputs - potentiated;
        if (!weightsTDirty_) {
            // Keep present()'s transposed copy coherent: the
            // STDP update rewrote one weight row = one column of it.
            const float *row = weights_.row(fn);
            for (std::size_t p = 0; p < num_inputs; ++p)
                weightsT_(p, fn) = row[p];
        }
    }
    if (Tracer::enabled())
        Tracer::instance().instant("snn.fire", "spike");
    return latest_gate;
}

void
SnnNetwork::stepTick(int64_t t, const uint16_t *spikes, std::size_t count,
                     bool learn, PresentationResult &result,
                     PresentationTrace *trace)
{
    if (count == 0)
        return;
    const std::size_t num_neurons = config_.numNeurons;

    result.inputSpikeCount += count;
    if (Tracer::enabled()) {
        Tracer::instance().counter("snn.spikes_per_tick",
                                   static_cast<double>(count));
    }
    // Integrate the tick's synaptic drive into every ungated neuron
    // (gated = refractory or laterally inhibited).
    for (std::size_t n = 0; n < num_neurons; ++n) {
        if (gatedAt(n, t))
            continue;
        if (t > lastUpdateMs_[n]) {
            potentials_[n] = lifDecay(
                potentials_[n],
                static_cast<double>(t - lastUpdateMs_[n]),
                config_.tLeakMs);
            lastUpdateMs_[n] = t;
        }
        const float *row = weights_.row(n);
        double drive = 0.0;
        // neurolint: ordered-sum
        for (std::size_t s = 0; s < count; ++s)
            drive += row[spikes[s]];
        potentials_[n] += drive;
    }
    for (std::size_t s = 0; s < count; ++s)
        lastInputSpike_[spikes[s]] = t;

    // Fire at most one neuron per tick: the one whose potential
    // exceeds its threshold by the largest margin (the WTA inhibition
    // then silences the others, matching the "only one neuron can
    // fire for a given input" dynamics).
    int fire_n = -1;
    double best_margin = 0.0;
    for (std::size_t n = 0; n < num_neurons; ++n) {
        if (gatedAt(n, t) || potentials_[n] < thresholds_[n])
            continue;
        const double margin = potentials_[n] - thresholds_[n];
        if (fire_n < 0 || margin > best_margin) {
            fire_n = static_cast<int>(n);
            best_margin = margin;
        }
    }
    if (fire_n >= 0) {
        fireNeuron(fire_n, t, learn, result);
        ++result.spikeCountPerNeuron[static_cast<std::size_t>(fire_n)];
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
SnnNetwork::finishPresentation(bool learn, PresentationResult &result)
{
    const int period = config_.coding.periodMs;
    // End-of-window potentials (decayed to the window end) for the
    // max-potential readout.
    double best_pot = -1.0;
    for (std::size_t n = 0; n < config_.numNeurons; ++n) {
        if (period > lastUpdateMs_[n]) {
            potentials_[n] = lifDecay(
                potentials_[n],
                static_cast<double>(period - lastUpdateMs_[n]),
                config_.tLeakMs);
            lastUpdateMs_[n] = period;
        }
        if (potentials_[n] > best_pot) {
            best_pot = potentials_[n];
            result.maxPotentialNeuron = static_cast<int>(n);
        }
    }
    if (learn) {
        homeostasis_.advance(period, thresholds_.data(),
                             fireCounts_.data(), config_.numNeurons);
    }

    obsCount<"snn.input_spikes">(result.inputSpikeCount);
    obsCount<"snn.output_spikes">(result.outputSpikeCount);
    obsCount<"snn.wta_inhibitions">(result.wtaInhibitions);
    if (learn) {
        obsCount<"snn.stdp_potentiations">(result.stdpPotentiated);
        obsCount<"snn.stdp_depressions">(result.stdpDepressed);
    }
}

PresentationResult
SnnNetwork::presentImage(const PackedSpikeGrid &grid, bool learn,
                         PresentationTrace *trace)
{
    NEURO_PROFILE_SCOPE("snn/present");
    const std::size_t num_neurons = config_.numNeurons;
    const int period = config_.coding.periodMs;
    checkGridShape(grid, config_);

    PresentationResult result;
    beginPresentation(result);

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
        stepTick(t, spikes, count, learn, result, trace);
        if (trace) {
            std::vector<float> row(trace_neurons);
            for (std::size_t n = 0; n < trace_neurons; ++n) {
                // Sample the decayed value without mutating state.
                row[n] = static_cast<float>(
                    lifDecay(potentials_[n],
                             static_cast<double>(
                                 t - lastUpdateMs_[n] < 0
                                     ? 0
                                     : t - lastUpdateMs_[n]),
                             config_.tLeakMs));
            }
            trace->potentials.push_back(std::move(row));
        }
    }
    finishPresentation(learn, result);
    return result;
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
    for (std::size_t n = 0; n < config_.numNeurons; ++n) {
        const float *row = weights_.row(n);
        for (std::size_t p = 0; p < config_.numInputs; ++p)
            weightsT_(p, n) = row[p];
    }
    weightsTDirty_ = false;
}

PresentationResult
SnnNetwork::present(const PackedSpikeGrid &grid, bool learn)
{
    NEURO_PROFILE_SCOPE("snn/present_events");
    const std::size_t num_neurons = config_.numNeurons;
    const int period = config_.coding.periodMs;
    checkGridShape(grid, config_);

    refreshWeightsT();

    PresentationResult result;
    beginPresentation(result);

    driveScratch_.assign(num_neurons, 0.0);

    const auto &active = grid.activeTicks();
    double *__restrict drive = driveScratch_.data();
    double *__restrict pot = potentials_.data();
    const double *__restrict thr = thresholds_.data();
    int64_t *__restrict last = lastUpdateMs_.data();
    const double *__restrict decay = decayFactors_.data();

    // Every neuron is open (ungated) at t >= open_from: the latest
    // gate any firing set. uniform_at is the tick every neuron was
    // last updated at, or -1 when they differ. While it is >= 0,
    // lastUpdateMs_ is stale and is written only before it is read.
    int64_t open_from = -1;
    int64_t uniform_at = 0;
    std::size_t uniform_ticks = 0;
    for (std::size_t k = 0; k < active.size(); ++k) {
        const int64_t t = active[k];
        std::size_t spike_count = 0;
        const uint16_t *spikes = grid.inputsAt(k, &spike_count);
        result.inputSpikeCount += spike_count;
        if (Tracer::enabled()) {
            Tracer::instance().counter(
                "snn.spikes_per_tick",
                static_cast<double>(spike_count));
        }

        // Phase 1: synaptic drive for every neuron via the transposed
        // weights — per neuron, the additions run in the same spike
        // order as presentImage()'s row walk, so the sums are
        // bit-identical.
        // kernels::addRowF64 keeps each neuron's double accumulation
        // chain independent (it carries the ordered-sum tag), so SIMD
        // only widens how many neurons move per instruction.
        std::fill(driveScratch_.begin(), driveScratch_.end(), 0.0);
        for (std::size_t s = 0; s < spike_count; ++s)
            kernels::addRowF64(drive, weightsT_.row(spikes[s]),
                               num_neurons);

        // Phase 2: decay-and-integrate the ungated neurons, then pick
        // the WTA winner in index order.
        int fire_n = -1;
        if (t >= open_from && uniform_at >= 0) {
            // Fast path: every neuron is open and decays by one shared
            // factor, which is each neuron's own table entry, so
            // lifStep's multiply-then-add is the slow path's exactly.
            ++uniform_ticks;
            const double factor =
                decay[static_cast<std::size_t>(t - uniform_at)];
            if (kernels::lifStep(pot, drive, thr, factor, num_neurons))
                fire_n = firstMaxMargin(pot, thr, num_neurons);
            uniform_at = t;
        } else {
            // Slow path: per-neuron gates and gaps, tracking the
            // winner in the same index-order pass (per-neuron updates
            // are independent, so fusing the reference walk's
            // integrate loop and fire scan changes nothing). Gated
            // neurons keep their stale lastUpdate and catch up later,
            // exactly as the reference walk leaves them.
            if (uniform_at >= 0)
                std::fill(last, last + num_neurons, uniform_at);
            double best_margin = 0.0;
            for (std::size_t n = 0; n < num_neurons; ++n) {
                if (gatedAt(n, t))
                    continue;
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
            uniform_at = t >= open_from ? t : -1;
        }
        for (std::size_t s = 0; s < spike_count; ++s)
            lastInputSpike_[spikes[s]] = t;
        if (fire_n >= 0) {
            open_from = std::max(open_from,
                                 fireNeuron(fire_n, t, learn, result));
            ++result.spikeCountPerNeuron[static_cast<std::size_t>(fire_n)];
        }
    }
    if (uniform_at >= 0)
        std::fill(last, last + num_neurons, uniform_at);

    obsCount<"snn.engine.ticks_active">(active.size());
    obsCount<"snn.engine.ticks_uniform">(uniform_ticks);
    obsCount<"snn.engine.ticks_skipped">(static_cast<uint64_t>(period) -
                                         active.size());
    finishPresentation(learn, result);
    return result;
}

int
SnnNetwork::forwardCounts(const uint8_t *counts,
                          std::vector<double> *potentials) const
{
    const std::size_t num_neurons = config_.numNeurons;
    const std::size_t num_inputs = config_.numInputs;
    if (potentials)
        potentials->assign(num_neurons, 0.0);
    int best = 0;
    double best_pot = -1.0;
    for (std::size_t n = 0; n < num_neurons; ++n) {
        const float *row = weights_.row(n);
        double pot = 0.0;
        // neurolint: ordered-sum
        for (std::size_t p = 0; p < num_inputs; ++p)
            pot += static_cast<double>(counts[p]) * row[p];
        if (potentials)
            (*potentials)[n] = pot;
        if (pot > best_pot) {
            best_pot = pot;
            best = static_cast<int>(n);
        }
    }
    return best;
}

} // namespace snn
} // namespace neuro
