#include "neuro/serve/registry.h"

#include <utility>

#include "neuro/common/serialize.h"
#include "neuro/mlp/activation.h"
#include "neuro/mlp/mlp.h"
#include "neuro/snn/coding.h"
#include "neuro/snn/serialize.h"

namespace neuro {
namespace serve {

void
ModelRegistry::add(const std::string &name,
                   std::shared_ptr<InferenceBackend> backend)
{
    MutexGuard lock(mutex_);
    backends_[name] = std::move(backend);
}

std::shared_ptr<InferenceBackend>
ModelRegistry::find(const std::string &name) const
{
    MutexGuard lock(mutex_);
    const auto it = backends_.find(name);
    return it == backends_.end() ? nullptr : it->second;
}

std::shared_ptr<InferenceBackend>
ModelRegistry::fallbackFor(const std::string &name) const
{
    std::shared_ptr<InferenceBackend> fallback = find(name + ".q8");
    return fallback != nullptr ? fallback : find(name + ".wot");
}

std::vector<std::string>
ModelRegistry::names() const
{
    MutexGuard lock(mutex_);
    std::vector<std::string> out;
    out.reserve(backends_.size());
    for (const auto &entry : backends_)
        out.push_back(entry.first);
    return out; // std::map iterates sorted.
}

std::vector<std::string>
ModelRegistry::loadFile(const std::string &name, const std::string &path,
                        std::string *error)
{
    auto setError = [&](const std::string &message) {
        if (error != nullptr)
            *error = message;
        return std::vector<std::string>{};
    };

    Archive archive;
    if (!archive.load(path))
        return setError(archive.lastError());

    std::vector<std::string> registered;
    if (archive.has("mlp.layers")) {
        std::optional<mlp::Mlp> net = mlp::Mlp::deserialize(archive);
        if (!net)
            return setError("'" + path +
                            "': mlp records present but inconsistent");
        registered = {name};
        if (net->activation().kind() != mlp::ActivationKind::Step) {
            add(name + ".q8", makeQuantizedMlpBackend(*net));
            registered.push_back(name + ".q8");
        }
        add(name, makeMlpBackend(std::move(*net)));
    } else if (archive.has("snn.shape")) {
        std::optional<snn::TrainedSnn> model = snn::loadSnn(archive);
        if (!model)
            return setError("'" + path +
                            "': snn records present but inconsistent");
        if (model->labels.empty())
            return setError("'" + path +
                            "': snn checkpoint has no neuron labels "
                            "(train with self-labeling before serving)");
        registered = {name};
        if (snn::SpikeEncoder(model->network.config().coding)
                .maxSpikeCount() < 16) {
            add(name + ".wot", makeSnnWotBackend(*model));
            registered.push_back(name + ".wot");
        }
        add(name, makeSnnBackend(std::move(*model)));
    } else {
        return setError("'" + path +
                        "': no recognized model records "
                        "(expected mlp.* or snn.*)");
    }
    return registered;
}

} // namespace serve
} // namespace neuro
