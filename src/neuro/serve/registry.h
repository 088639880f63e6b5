/**
 * @file
 * Named backend registry of the serving runtime: loads checkpoints
 * written through common/serialize.h Archives (by `neurocmp
 * train-snn`, the examples, or any caller of mlp::Mlp::serialize /
 * snn::saveSnn) and instantiates every backend the checkpoint
 * supports behind the InferenceBackend interface.
 *
 * Checkpoint paths are treated as untrusted: a bad magic, unsupported
 * version or truncated payload surfaces as a registry error string
 * (Archive::lastError), never a crash mid-load.
 */

#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "neuro/common/mutex.h"
#include "neuro/serve/backend.h"

namespace neuro {
namespace serve {

/** Thread-safe name -> backend map with checkpoint loading. */
class ModelRegistry
{
  public:
    ModelRegistry() = default;

    /** Register @p backend under @p name (replaces any previous). */
    void add(const std::string &name,
             std::shared_ptr<InferenceBackend> backend);

    /** @return the named backend, or nullptr. */
    std::shared_ptr<InferenceBackend>
    find(const std::string &name) const;

    /**
     * @return the SLO fallback of the model @p name: its cheaper
     * sibling "<name>.q8", else "<name>.wot" (see loadFile), else
     * nullptr. The siblings themselves have none.
     */
    std::shared_ptr<InferenceBackend>
    fallbackFor(const std::string &name) const;

    /** @return all registered names, sorted. */
    std::vector<std::string> names() const;

    /**
     * Load the checkpoint at @p path and register every backend it
     * supports:
     *
     *  - an MLP checkpoint ("mlp.*" records) registers "<name>"
     *    (float forward) and, unless its activation is the step,
     *    "<name>.q8" (8-bit sigmoid datapath);
     *  - a labeled SNN checkpoint ("snn.*" records) registers
     *    "<name>" (timed SNNwt path) and, when a full-luminance
     *    pixel's spike count fits in 4 bits, "<name>.wot"
     *    (count-based SNNwot datapath, the natural SLO fallback).
     *
     * @return the registered names; empty on failure with @p error
     *         (if non-null) describing why — including the archive
     *         layer's corrupt-file diagnostics and any inconsistent
     *         record, which is refused, never asserted on.
     */
    std::vector<std::string> loadFile(const std::string &name,
                                      const std::string &path,
                                      std::string *error = nullptr);

  private:
    mutable Mutex mutex_;
    std::map<std::string, std::shared_ptr<InferenceBackend>>
        backends_ NEURO_GUARDED_BY(mutex_);
};

} // namespace serve
} // namespace neuro
