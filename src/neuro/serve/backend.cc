#include "neuro/serve/backend.h"

#include <array>
#include <utility>
#include <vector>

#include "neuro/common/logging.h"
#include "neuro/kernels/kernels.h"
#include "neuro/snn/coding.h"

namespace neuro {
namespace serve {

namespace {

/** Labeled-winner readout shared by both spiking backends. */
int
labelOf(const std::vector<int> &labels, int winner)
{
    if (winner < 0 || static_cast<std::size_t>(winner) >= labels.size())
        return -1;
    return labels[static_cast<std::size_t>(winner)];
}

// ---------------------------------------------------------------- MLP

/** Samples per strip of the batched MLP path (the kernel layer's
 *  strip width — see docs/kernels.md). */
constexpr std::size_t kStrip = kernels::kStripWidth;

class MlpSession final : public BackendSession
{
  public:
    explicit MlpSession(const mlp::Mlp &net) : net_(net) {}

    int
    classify(const uint8_t *pixels, std::size_t numPixels,
             uint64_t /*streamSeed*/) override
    {
        int cls = -1;
        classifyBatch(&pixels, nullptr, 1, numPixels, &cls);
        return cls;
    }

    /** Full strips of kStrip samples share one weight-matrix sweep
     *  (mlp::classifyPixels); the answers match per-sample
     *  classify() bit for bit. */
    void
    classifyBatch(const uint8_t *const *pixels,
                  const uint64_t * /*streamSeeds*/, std::size_t count,
                  std::size_t numPixels, int *classes) override
    {
        NEURO_ASSERT(numPixels == net_.inputSize(),
                     "mlp backend fed %zu pixels, expects %zu",
                     numPixels, net_.inputSize());
        mlp::classifyPixels(net_, pixels, count, classes, scratch_);
    }

  private:
    const mlp::Mlp &net_;
    mlp::ClassifyScratch scratch_;
};

class MlpBackend final : public InferenceBackend
{
  public:
    explicit MlpBackend(mlp::Mlp net) : net_(std::move(net)) {}

    BackendKind kind() const override { return BackendKind::Mlp; }
    std::size_t inputSize() const override { return net_.inputSize(); }
    std::unique_ptr<BackendSession>
    newSession() const override
    {
        return std::make_unique<MlpSession>(net_);
    }
    std::size_t batchGranularity() const override { return kStrip; }

  private:
    mlp::Mlp net_;
};

// ------------------------------------------------------ quantized MLP

class QuantizedMlpSession final : public BackendSession
{
  public:
    explicit QuantizedMlpSession(const mlp::QuantizedMlp &net)
        : net_(net)
    {
    }

    int
    classify(const uint8_t *pixels, std::size_t numPixels,
             uint64_t /*streamSeed*/) override
    {
        int cls = -1;
        classifyBatch(&pixels, nullptr, 1, numPixels, &cls);
        return cls;
    }

    /** Groups of kernels::kQ8Batch samples share one sweep of each
     *  layer's int8 weights (QuantizedMlp::classify); the answers
     *  match per-sample classify() bit for bit. */
    void
    classifyBatch(const uint8_t *const *pixels,
                  const uint64_t * /*streamSeeds*/, std::size_t count,
                  std::size_t numPixels, int *classes) override
    {
        NEURO_ASSERT(numPixels == net_.inputSize(),
                     "quantized backend fed %zu pixels, expects %zu",
                     numPixels, net_.inputSize());
        net_.classify(pixels, count, classes, scratch_);
    }

  private:
    const mlp::QuantizedMlp &net_;
    mlp::QuantizedMlp::Scratch scratch_;
};

class QuantizedMlpBackend final : public InferenceBackend
{
  public:
    QuantizedMlpBackend(const mlp::Mlp &net, int weight_bits)
        : net_(net, weight_bits)
    {
    }

    BackendKind
    kind() const override
    {
        return BackendKind::QuantizedMlp;
    }
    std::size_t inputSize() const override { return net_.inputSize(); }
    std::unique_ptr<BackendSession>
    newSession() const override
    {
        return std::make_unique<QuantizedMlpSession>(net_);
    }
    std::size_t
    batchGranularity() const override
    {
        return kernels::kQ8Batch;
    }

  private:
    mlp::QuantizedMlp net_;
};

// ---------------------------------------------------------- SNN (wt)

class SnnSession final : public BackendSession
{
  public:
    SnnSession(const snn::SnnNetwork &net,
               const std::vector<int> &labels,
               const snn::SpikeEncoder &encoder)
        : reader_(net, encoder), labels_(labels),
          numInputs_(net.config().numInputs)
    {
    }

    int
    classify(const uint8_t *pixels, std::size_t numPixels,
             uint64_t streamSeed) override
    {
        NEURO_ASSERT(numPixels == numInputs_,
                     "snn backend fed %zu pixels, expects %zu",
                     numPixels, numInputs_);
        // The whole presentation is a function of (pixels, streamSeed):
        // the encoder consumes a request-local Rng and the walk resets
        // every neuron's potential/refractory/inhibition state first.
        // The SNNwt answer is fixed at the first output spike, so the
        // reader encodes and walks only up to it.
        return labelOf(labels_,
                       reader_.winner(pixels, numPixels, streamSeed));
    }

  private:
    snn::FirstSpikeReader reader_; ///< shares the backend's network.
    const std::vector<int> &labels_;
    std::size_t numInputs_;
};

class SnnBackend final : public InferenceBackend
{
  public:
    explicit SnnBackend(snn::TrainedSnn model)
        : model_(std::move(model)),
          encoder_(model_.network.config().coding)
    {
        // Every session's reader walks this network, shared and const.
        model_.network.refreshWeightsT();
    }

    BackendKind kind() const override { return BackendKind::Snn; }
    std::size_t
    inputSize() const override
    {
        return model_.network.config().numInputs;
    }
    std::unique_ptr<BackendSession>
    newSession() const override
    {
        return std::make_unique<SnnSession>(model_.network,
                                            model_.labels, encoder_);
    }

  private:
    snn::TrainedSnn model_;
    snn::SpikeEncoder encoder_;
};

// -------------------------------------------------------------- SNNwot

class SnnWotSession final : public BackendSession
{
  public:
    SnnWotSession(const snn::SnnWotDatapath &datapath,
                  const std::vector<int> &labels)
        : datapath_(datapath), labels_(labels)
    {
    }

    int
    classify(const uint8_t *pixels, std::size_t numPixels,
             uint64_t /*streamSeed*/) override
    {
        NEURO_ASSERT(numPixels == datapath_.numInputs(),
                     "snnwot backend fed %zu pixels, expects %zu",
                     numPixels, datapath_.numInputs());
        // Deterministic count conversion (Section 4.2.2): no RNG at
        // all, which is what makes this the cheap SLO-fallback path.
        return labelOf(labels_, datapath_.forwardPixels(pixels));
    }

  private:
    const snn::SnnWotDatapath &datapath_;
    const std::vector<int> &labels_;
};

class SnnWotBackend final : public InferenceBackend
{
  public:
    explicit SnnWotBackend(const snn::TrainedSnn &model)
        : datapath_(model.network), labels_(model.labels)
    {
    }

    BackendKind kind() const override { return BackendKind::SnnWot; }
    std::size_t
    inputSize() const override
    {
        return datapath_.numInputs();
    }
    std::unique_ptr<BackendSession>
    newSession() const override
    {
        return std::make_unique<SnnWotSession>(datapath_, labels_);
    }

  private:
    snn::SnnWotDatapath datapath_;
    std::vector<int> labels_;
};

} // namespace

void
BackendSession::classifyBatch(const uint8_t *const *pixels,
                              const uint64_t *streamSeeds,
                              std::size_t count, std::size_t numPixels,
                              int *classes)
{
    for (std::size_t b = 0; b < count; ++b)
        classes[b] = classify(pixels[b], numPixels, streamSeeds[b]);
}

const char *
backendKindName(BackendKind kind)
{
    switch (kind) {
    case BackendKind::Mlp: return "mlp";
    case BackendKind::QuantizedMlp: return "mlp_q8";
    case BackendKind::Snn: return "snn";
    case BackendKind::SnnWot: return "snnwot";
    }
    return "unknown";
}

std::shared_ptr<InferenceBackend>
makeMlpBackend(mlp::Mlp net)
{
    return std::make_shared<MlpBackend>(std::move(net));
}

std::shared_ptr<InferenceBackend>
makeQuantizedMlpBackend(const mlp::Mlp &net, int weight_bits)
{
    return std::make_shared<QuantizedMlpBackend>(net, weight_bits);
}

std::shared_ptr<InferenceBackend>
makeSnnBackend(snn::TrainedSnn model)
{
    NEURO_ASSERT(model.labels.size() ==
                     model.network.config().numNeurons,
                 "snn backend needs per-neuron labels (%zu != %zu)",
                 model.labels.size(),
                 model.network.config().numNeurons);
    return std::make_shared<SnnBackend>(std::move(model));
}

std::shared_ptr<InferenceBackend>
makeSnnWotBackend(const snn::TrainedSnn &model)
{
    NEURO_ASSERT(model.labels.size() ==
                     model.network.config().numNeurons,
                 "snnwot backend needs per-neuron labels (%zu != %zu)",
                 model.labels.size(),
                 model.network.config().numNeurons);
    return std::make_shared<SnnWotBackend>(model);
}

} // namespace serve
} // namespace neuro
