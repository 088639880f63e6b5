/**
 * @file
 * Multi-model serving front end: routes decoded request frames by
 * model name across ModelRegistry entries, one InferenceServer per
 * model (docs/serving.md, "Network protocol").
 *
 * Per-model servers give each model its own admission queue,
 * dispatcher and micro-batcher, so one model's overload degrades to
 * *its* rejections instead of starving every other model behind a
 * shared queue — the admission-fairness property
 * bench_serving_openloop measures. The routing table is built once at
 * construction and immutable afterwards, so route() takes no lock.
 *
 * Responses come back through the serve layer's callback completion
 * path (InferenceServer::submit with a CompletionFn): the front end
 * maps each InferenceResult onto a ResponseFrame — Ok/Rejected/
 * Expired straight from the serving runtime, BadFrame for
 * pixel-count mismatches, UnknownModel for names the registry never
 * loaded — and hands it to the caller's ResponseFn on whichever
 * thread fulfilled the request (see the CompletionFn contract in
 * serve/server.h).
 */

#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "neuro/net/protocol.h"
#include "neuro/serve/registry.h"
#include "neuro/serve/server.h"

namespace neuro {
namespace net {

/** Routes request frames to per-model inference servers. */
class ServeFrontend
{
  public:
    /** Response delivery callback; see class comment for threading. */
    using ResponseFn = std::function<void(ResponseFrame &&)>;

    /**
     * Build one InferenceServer per registry model, labeled with the
     * model's name (its `serve.*{model="<name>"}` series).
     *
     * @param registry source of backends; only read during
     *        construction.
     * @param config   per-model serving knobs. When
     *        config.sloP99Micros is set, each model serves with
     *        registry.fallbackFor(name) as its SLO fallback backend
     *        (if it has one).
     * @param models   names to serve; empty = every registry entry.
     */
    ServeFrontend(const serve::ModelRegistry &registry,
                  const serve::ServeConfig &config,
                  const std::vector<std::string> &models = {});

    /** Stops every model server (see stop()). */
    ~ServeFrontend();

    ServeFrontend(const ServeFrontend &) = delete;
    ServeFrontend &operator=(const ServeFrontend &) = delete;

    /**
     * Route @p frame to its model's server. Always responds exactly
     * once through @p onResponse: synchronously for UnknownModel /
     * BadFrame / admission rejection, from the dispatcher thread
     * otherwise.
     */
    void submit(RequestFrame &&frame, ResponseFn onResponse);

    /** Close admission on every model server and drain them all.
     *  Blocks until every in-flight request has been fulfilled (all
     *  callbacks have run). Idempotent. */
    void stop();

    /** @return the served model names, sorted. */
    std::vector<std::string> models() const;

    /** @return the named model's server (tests/CLI), or nullptr. */
    serve::InferenceServer *server(const std::string &model) const;

  private:
    struct Model
    {
        std::shared_ptr<serve::InferenceBackend> backend;
        std::unique_ptr<serve::InferenceServer> server;
    };

    /** Immutable after construction — lock-free routing. */
    std::map<std::string, Model> models_;
};

} // namespace net
} // namespace neuro
