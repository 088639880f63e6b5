/**
 * @file
 * Uniform inference interface over every trained model family in the
 * study, for the serving runtime (docs/serving.md). A backend wraps an
 * immutable trained model; per-worker mutable scratch (network copies,
 * spike-grid buffers) lives in sessions so one backend can serve many
 * threads concurrently.
 *
 * Determinism contract: classify() depends only on (pixels,
 * streamSeed) — spiking backends reset all presentation state per
 * request and draw every random spike time from an Rng seeded with the
 * request's stream seed, so a fixed request trace yields bit-identical
 * answers at any batch composition and worker count.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "neuro/mlp/mlp.h"
#include "neuro/mlp/quantized.h"
#include "neuro/snn/serialize.h"
#include "neuro/snn/snn_wot.h"

namespace neuro {
namespace serve {

/** Model families the serving runtime can host. */
enum class BackendKind
{
    Mlp,          ///< float MLP forward pass (Section 2.1).
    QuantizedMlp, ///< 8-bit fixed-point MLP datapath (Section 4.2.1).
    Snn,          ///< timed LIF presentation, SNNwt readout.
    SnnWot,       ///< count-based integer datapath (Section 4.2.2).
};

/** @return a printable name ("mlp", "mlp_q8", "snn", "snnwot"). */
const char *backendKindName(BackendKind kind);

/**
 * Per-worker inference state. Sessions are NOT thread-safe; the server
 * hands each concurrently running worker its own (see SessionPool).
 */
class BackendSession
{
  public:
    virtual ~BackendSession() = default;

    /**
     * Classify one sample.
     * @param pixels     numPixels 8-bit luminance values.
     * @param numPixels  must equal the backend's inputSize().
     * @param streamSeed per-request random stream (spiking backends);
     *                   ignored by the deterministic datapaths.
     * @return predicted class, or -1 when the model abstains (e.g. an
     *         SNN winner neuron that never won a label).
     */
    virtual int classify(const uint8_t *pixels, std::size_t numPixels,
                         uint64_t streamSeed) = 0;

    /**
     * Classify @p count samples in one call — the batched entry point
     * the micro-batcher feeds. The default implementation loops over
     * classify(); backends with a dense datapath override it with a
     * batch kernel (the MLP keeps each weight row in registers across
     * the whole batch and vectorizes across samples). Overrides must
     * produce results bit-identical to per-sample classify() — batching
     * is an execution strategy, never a semantic change.
     *
     * @param pixels      count pointers, each to numPixels values.
     * @param streamSeeds count per-request stream seeds.
     * @param numPixels   must equal the backend's inputSize().
     * @param classes     count predicted classes (written).
     */
    virtual void classifyBatch(const uint8_t *const *pixels,
                               const uint64_t *streamSeeds,
                               std::size_t count, std::size_t numPixels,
                               int *classes);
};

/** An immutable trained model that can mint inference sessions. */
class InferenceBackend
{
  public:
    virtual ~InferenceBackend() = default;

    /** @return the model family. */
    virtual BackendKind kind() const = 0;

    /** @return expected pixel count per request. */
    virtual std::size_t inputSize() const = 0;

    /** @return a fresh per-worker session over this model. */
    virtual std::unique_ptr<BackendSession> newSession() const = 0;

    /**
     * @return the chunk size classifyBatch() is optimized for. The
     * server rounds per-worker chunks up to a multiple of this so a
     * dense backend's batch kernel still sees full strips after the
     * batch is split across workers (a 32-request batch split 4 ways
     * would otherwise hand out chunks below the strip width and fall
     * back to the scalar path). Purely a performance hint — results
     * are bit-identical at any chunking.
     */
    virtual std::size_t batchGranularity() const { return 1; }
};

/** Wrap a trained float MLP (takes ownership). */
std::shared_ptr<InferenceBackend> makeMlpBackend(mlp::Mlp net);

/** Quantize @p net to the paper's 8-bit datapath and wrap it. */
std::shared_ptr<InferenceBackend>
makeQuantizedMlpBackend(const mlp::Mlp &net, int weight_bits = 8);

/**
 * Wrap a trained SNN+STDP model under the timed SNNwt forward path.
 * The model must carry neuron labels (snn::loadSnn provides them).
 */
std::shared_ptr<InferenceBackend> makeSnnBackend(snn::TrainedSnn model);

/**
 * Wrap the same trained SNN under the count-based SNNwot datapath —
 * the cheap, fully deterministic sibling the server can fall back to
 * when the timed path misses its latency SLO.
 */
std::shared_ptr<InferenceBackend>
makeSnnWotBackend(const snn::TrainedSnn &model);

} // namespace serve
} // namespace neuro
