#include "neuro/mlp/backprop.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <numeric>
#include <vector>

#include "neuro/common/logging.h"
#include "neuro/common/parallel.h"
#include "neuro/common/profile.h"
#include "neuro/common/rng.h"
#include "neuro/kernels/kernels.h"

namespace neuro {
namespace mlp {

namespace {

/** Fewest layer-0 rows per team member: below about this many, a
 *  member's share of a sample costs less than its two barriers. */
constexpr std::size_t kRowsPerMember = 48;

/** One monotonic signal word on its own cache line. */
struct alignas(64) Signal
{
    std::atomic<uint64_t> value{0};
};

/** @return the members of a train() of @p net: one per kRowsPerMember
 *  layer-0 rows, at most the tasks that run at once from here (one
 *  inside a pool task or at one thread). */
std::size_t
teamSize(const Mlp &net)
{
    return std::max<std::size_t>(
        1, std::min(parallelWidth(),
                    net.weights(0).rows() / kRowsPerMember));
}

/**
 * Per-sample SGD on a team of pool threads (docs/parallelism.md,
 * "Row-split BP training"). Member k owns layer 0's rows
 * [bounds_[k], bounds_[k + 1]) for the whole train(); member 0, the
 * leader, runs on the caller and owns every layer above layer 0.
 * Per sample i:
 *   1. each member runs its slice's forward pass; barrier A;
 *   2. the leader runs the layers above, every delta and the upper
 *      layers' updates, while member 1 normalizes sample i + 1 into
 *      the other input buffer; barrier B;
 *   3. each member updates its slice and goes on to sample i + 1.
 * Every row gets the kernel call it gets serially, on the same data,
 * so the weights are the same for any team. A team of one is the
 * serial loop. Members wait for each other from sample 0: a team is
 * never wider than parallelWidth(), so parallelInvoke() runs every
 * member at once (common/parallel.h). The caller allocates every
 * buffer here; members allocate nothing.
 */
class Team
{
  public:
    Team(Mlp &net, const datasets::Dataset &data, float eta,
         std::size_t members)
        : net_(net), data_(data), eta_(eta), forwarded_(members)
    {
        Matrix &w0 = net.weights(0);
        w0_ = w0.data().data();
        cols0_ = w0.cols();
        // Each bound is an even split of the rows rounded up to whole
        // kGemvRows blocks, so the leader takes the rounding and the
        // last member the ragged rest. On 784-100-10 at two threads a
        // leader slice of 56 rows trained at least as fast as 48, and
        // faster than 40 or 64 (docs/parallelism.md).
        constexpr std::size_t kBlock = kernels::kGemvRows;
        const std::size_t rows = w0.rows();
        for (std::size_t k = 0; k < members; ++k)
            bounds_.push_back((rows * k / members + kBlock - 1) / kBlock *
                              kBlock);
        bounds_.push_back(rows);

        for (auto &x : input_)
            x.resize(net.inputSize());
        std::size_t widest = 0;
        for (std::size_t l = 0; l < net.numLayers(); ++l) {
            act_.emplace_back(net.weights(l).rows());
            delta_.emplace_back(net.weights(l).rows());
            widest = std::max(widest, net.weights(l).cols());
        }
        gemvT_.resize(widest);
    }

    /** @return the members, leader included. */
    std::size_t members() const { return forwarded_.size(); }

    /** Train one epoch in @p order. @return its summed squared
     *  output error. */
    double
    epoch(const std::vector<uint32_t> &order)
    {
        order_ = order.data();
        n_ = order.size();
        sqError_ = 0.0;
        // Publishing the job to the pool orders these resets and
        // sample 0's input before any member's first load.
        for (Signal *s : {&passedA_, &normalized_, &released_})
            s->value.store(0, std::memory_order_relaxed);
        for (Signal &s : forwarded_)
            s.value.store(0, std::memory_order_relaxed);
        data_.normalized(order_[0], input_[0].data());
        if (members() == 1) {
            lead();
        } else {
            std::vector<std::function<void()>> tasks;
            tasks.emplace_back([this] { lead(); });
            for (std::size_t k = 1; k < members(); ++k)
                tasks.emplace_back([this, k] { follow(k); });
            parallelInvoke(std::move(tasks));
        }
        return sqError_;
    }

  private:
    /** Layer 0's forward pass over rows [r0, r1). */
    void
    forwardRows(std::size_t r0, std::size_t r1, const float *x)
    {
        float *y = act_[0].data();
        kernels::gemvBias(w0_ + r0 * cols0_, r1 - r0, cols0_, x, y + r0);
        const Activation &act = net_.activation();
        for (std::size_t j = r0; j < r1; ++j)
            y[j] = act.apply(y[j]);
    }

    /** Layer 0's update over rows [r0, r1): w_ji += eta * delta_j *
     *  x_i; the bias sees a constant 1. */
    void
    updateRows(std::size_t r0, std::size_t r1, const float *x)
    {
        kernels::addOuterBias(w0_ + r0 * cols0_, r1 - r0, cols0_, eta_,
                              delta_[0].data() + r0, x);
    }

    /**
     * The leader's part of sample @p idx after barrier A: forward
     * through the layers above layer 0, every delta, and the updates
     * of the layers above layer 0. @return the squared output error.
     */
    double
    upperLayers(std::size_t idx)
    {
        const Activation &act = net_.activation();
        const std::size_t last = net_.numLayers() - 1;
        for (std::size_t l = 1; l <= last; ++l) {
            const Matrix &w = net_.weights(l);
            std::vector<float> &y = act_[l];
            kernels::gemvBias(w.data().data(), w.rows(), w.cols(),
                              act_[l - 1].data(), y.data());
            for (float &v : y)
                v = act.apply(v);
        }

        // Output layer: delta = f'(s) * (target - output).
        double sq_error = 0.0;
        const std::vector<float> &out = act_[last];
        const auto label = static_cast<std::size_t>(data_[idx].label);
        for (std::size_t j = 0; j < out.size(); ++j) {
            const float target = j == label ? 1.0f : 0.0f;
            const float e = target - out[j];
            sq_error += static_cast<double>(e) * e;
            delta_[last][j] = act.derivativeFromOutput(out[j]) * e;
        }

        // Hidden layers: delta_j = f'(s_j) * sum_k delta_k * w_kj —
        // the transposed product through the next layer's weights,
        // evaluated with the row-blocked gemvT instead of a
        // cache-hostile column-strided inline loop. The result has one
        // extra entry (the bias column's virtual input), which
        // backprop ignores.
        for (std::size_t l = last; l-- > 0;) {
            const Matrix &w_next = net_.weights(l + 1);
            kernels::gemvT(w_next.data().data(), w_next.rows(),
                           w_next.cols(), delta_[l + 1].data(),
                           gemvT_.data());
            const std::vector<float> &y = act_[l];
            for (std::size_t j = 0; j < y.size(); ++j)
                delta_[l][j] = act.derivativeFromOutput(y[j]) * gemvT_[j];
        }

        // Every delta is known, so the layers above layer 0 update now.
        for (std::size_t l = 1; l <= last; ++l) {
            Matrix &w = net_.weights(l);
            kernels::addOuterBias(w.data().data(), w.rows(), w.cols(),
                                  eta_, delta_[l].data(),
                                  act_[l - 1].data());
        }
        return sq_error;
    }

    /** Member 0's loop, on the caller. */
    void
    lead()
    {
        const std::size_t m = members();
        const std::size_t r1 = bounds_[1];
        for (std::size_t i = 0; i < n_; ++i) {
            const float *x = input_[i % 2].data();
            forwardRows(0, r1, x);
            // Barrier A: every member's slice of layer 0 is done.
            for (std::size_t k = 1; k < m; ++k)
                awaitAtLeast(forwarded_[k].value, i + 1);
            passedA_.value.store(i + 1, std::memory_order_release);

            sqError_ += upperLayers(order_[i]);
            if (i + 1 < n_) {
                if (m > 1)
                    awaitAtLeast(normalized_.value, i + 2);
                else
                    data_.normalized(order_[i + 1],
                                     input_[(i + 1) % 2].data());
            }
            // Barrier B: the deltas and the next input are ready.
            released_.value.store(i + 1, std::memory_order_release);
            updateRows(0, r1, x);
        }
    }

    /**
     * Member k's loop, on its own pool worker. Its update of sample i
     * reads input_[i % 2] and delta_[0]; nobody rewrites either before
     * every member has passed barrier A of sample i + 1.
     */
    void
    follow(std::size_t k)
    {
        const std::size_t r0 = bounds_[k];
        const std::size_t r1 = bounds_[k + 1];
        for (std::size_t i = 0; i < n_; ++i) {
            const float *x = input_[i % 2].data();
            forwardRows(r0, r1, x);
            forwarded_[k].value.store(i + 1, std::memory_order_release);
            if (k == 1 && i + 1 < n_) {
                // input_[(i + 1) % 2] held sample i - 1, whose updates
                // are done once the leader has passed barrier A.
                awaitAtLeast(passedA_.value, i + 1);
                data_.normalized(order_[i + 1],
                                 input_[(i + 1) % 2].data());
                normalized_.value.store(i + 2, std::memory_order_release);
            }
            awaitAtLeast(released_.value, i + 1);
            updateRows(r0, r1, x);
        }
    }

    Mlp &net_;
    const datasets::Dataset &data_;
    const float eta_;
    float *w0_ = nullptr;
    std::size_t cols0_ = 0;
    std::vector<std::size_t> bounds_; ///< members() + 1 row bounds.
    std::vector<float> input_[2];     ///< by sample parity.
    std::vector<std::vector<float>> act_;   ///< output of layer l.
    std::vector<std::vector<float>> delta_; ///< per neuron layer.
    std::vector<float> gemvT_;              ///< transposed-product sink.

    /** Samples whose forward slice member k has finished, in entry k;
     *  the leader's entry 0 stays unused. */
    std::vector<Signal> forwarded_;
    Signal passedA_;    ///< samples whose barrier A the leader passed.
    Signal normalized_; ///< samples whose input is in its buffer.
    Signal released_;   ///< samples whose barrier B has opened.

    // The epoch in progress; only the leader writes these.
    const uint32_t *order_ = nullptr;
    std::size_t n_ = 0;
    double sqError_ = 0.0;
};

} // namespace

void
train(Mlp &net, const datasets::Dataset &data, const TrainConfig &config,
      const EpochCallback &callback)
{
    NEURO_ASSERT(!data.empty(), "cannot train on an empty dataset");
    NEURO_ASSERT(data.inputSize() == net.inputSize(),
                 "dataset input size %zu != network input size %zu",
                 data.inputSize(), net.inputSize());
    NEURO_ASSERT(static_cast<std::size_t>(data.numClasses()) ==
                     net.outputSize(),
                 "dataset classes %d != network outputs %zu",
                 data.numClasses(), net.outputSize());

    NEURO_PROFILE_SCOPE("mlp/train");
    Rng rng(config.seed);
    const std::size_t n = data.size();
    std::vector<uint32_t> order(n);
    // Rng::shuffle refills the order, so this draw only advances the
    // stream; it stays so every seed keeps its published results.
    rng.shuffle(order.data(), n);
    Team team(net, data, config.learningRate, teamSize(net));

    for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
        NEURO_PROFILE_SCOPE("mlp/train/epoch");
        rng.shuffle(order.data(), n);
        const double sq_error = team.epoch(order);

        const double mse =
            sq_error / static_cast<double>(n * net.outputSize());
        obsCount<"mlp.images_trained">(n);
        obsGauge<"mlp.epoch_error">(mse);
        obsGauge<"mlp.train.team_size">(
            static_cast<double>(team.members()));
        if (callback) {
            EpochReport report;
            report.epoch = epoch;
            report.trainError = mse;
            callback(report);
        }
    }
}

double
evaluate(const Mlp &net, const datasets::Dataset &data)
{
    NEURO_ASSERT(!data.empty(), "cannot evaluate on an empty dataset");
    NEURO_ASSERT(data.inputSize() == net.inputSize(),
                 "dataset input size %zu != network input size %zu",
                 data.inputSize(), net.inputSize());
    NEURO_PROFILE_SCOPE("mlp/eval");
    const std::size_t n = data.size();
    // Per-sample hit flags: sharding the test set across workers
    // cannot reorder anything the reduction below can observe, and
    // classifyPixels answers predict() per image wherever a shard or
    // strip boundary falls. The grain covers several strips per shard
    // so each worker's scratch and the kernel dispatch amortize.
    std::vector<uint8_t> hit(n, 0);
    parallelForRange(0, n, 4 * kernels::kStripWidth,
                     [&](std::size_t i0, std::size_t i1) {
        NEURO_PROFILE_SCOPE("mlp/eval/shard");
        std::vector<const uint8_t *> pixels(i1 - i0);
        for (std::size_t i = i0; i < i1; ++i)
            pixels[i - i0] = data[i].pixels.data();
        std::vector<int> classes(i1 - i0);
        ClassifyScratch scratch;
        classifyPixels(net, pixels.data(), pixels.size(), classes.data(),
                       scratch);
        for (std::size_t i = i0; i < i1; ++i)
            hit[i] = classes[i - i0] == data[i].label;
    });
    const std::size_t correct =
        std::accumulate(hit.begin(), hit.end(), std::size_t{0});
    return static_cast<double>(correct) / static_cast<double>(n);
}

double
trainAndEvaluate(const MlpConfig &mlp_config, const TrainConfig &train_config,
                 const datasets::Dataset &train_set,
                 const datasets::Dataset &test_set, uint64_t init_seed)
{
    Rng rng(init_seed);
    Mlp net(mlp_config, rng);
    train(net, train_set, train_config);
    return evaluate(net, test_set);
}

} // namespace mlp
} // namespace neuro
