#include "neuro/net/frontend.h"

#include <chrono>
#include <cmath>
#include <utility>

#include "neuro/common/logging.h"
#include "neuro/telemetry/metrics.h"

namespace neuro {
namespace net {

namespace {

/** Registry handles shared by every frontend in the process. */
struct FrontendTelemetry
{
    std::shared_ptr<telemetry::Counter> requests;
    std::shared_ptr<telemetry::Counter> unknownModel;
    std::shared_ptr<telemetry::Counter> badFrames;

    static FrontendTelemetry &
    instance()
    {
        static FrontendTelemetry tm = [] {
            auto &reg = telemetry::MetricRegistry::instance();
            FrontendTelemetry t;
            t.requests = reg.counter("net.requests");
            t.unknownModel = reg.counter("net.unknown_model");
            t.badFrames = reg.counter("net.bad_frames");
            return t;
        }();
        return tm;
    }
};

/** Map the serving runtime's disposition onto the wire status. */
FrameStatus
toFrameStatus(serve::RequestStatus status)
{
    switch (status) {
    case serve::RequestStatus::Ok: return FrameStatus::Ok;
    case serve::RequestStatus::Rejected: return FrameStatus::Rejected;
    case serve::RequestStatus::Expired: return FrameStatus::Expired;
    }
    return FrameStatus::BadFrame;
}

} // namespace

ServeFrontend::ServeFrontend(const serve::ModelRegistry &registry,
                             const serve::ServeConfig &config,
                             const std::vector<std::string> &models)
{
    FrontendTelemetry::instance(); // resolve handles before traffic.
    const std::vector<std::string> names =
        models.empty() ? registry.names() : models;
    for (const std::string &name : names) {
        std::shared_ptr<serve::InferenceBackend> backend =
            registry.find(name);
        if (backend == nullptr) {
            warn("net: model '%s' is not in the registry; skipping",
                 name.c_str());
            continue;
        }
        Model model;
        model.backend = std::move(backend);
        model.server = std::make_unique<serve::InferenceServer>(
            model.backend, config,
            config.sloP99Micros > 0 ? registry.fallbackFor(name)
                                    : nullptr,
            name);
        models_.emplace(name, std::move(model));
    }
    NEURO_ASSERT(!models_.empty(),
                 "net: frontend built with no servable models");
}

ServeFrontend::~ServeFrontend() { stop(); }

void
ServeFrontend::submit(RequestFrame &&frame, ResponseFn onResponse)
{
    FrontendTelemetry &tm = FrontendTelemetry::instance();
    tm.requests->inc();

    const auto it = models_.find(frame.model);
    if (it == models_.end()) {
        tm.unknownModel->inc();
        ResponseFrame response;
        response.id = frame.id;
        response.status = FrameStatus::UnknownModel;
        onResponse(std::move(response));
        return;
    }
    const Model &model = it->second;
    if (frame.pixels.size() != model.backend->inputSize()) {
        tm.badFrames->inc();
        ResponseFrame response;
        response.id = frame.id;
        response.status = FrameStatus::BadFrame;
        onResponse(std::move(response));
        return;
    }

    serve::InferenceRequest request;
    request.id = frame.id;
    request.streamSeed = frame.streamSeed;
    if (frame.deadlineMicros > 0) {
        request.deadline =
            serve::ServeClock::now() +
            std::chrono::microseconds(frame.deadlineMicros);
    }
    // Wire pixels are f32; the backends consume 8-bit luminance.
    // Round-to-nearest with clamping is exact for every integral
    // value in [0, 255], keeping wire predictions bit-identical to
    // in-process serving for byte-valued samples.
    request.pixels.resize(frame.pixels.size());
    for (std::size_t i = 0; i < frame.pixels.size(); ++i) {
        const float clamped =
            std::fmin(255.0F, std::fmax(0.0F, frame.pixels[i]));
        request.pixels[i] =
            static_cast<uint8_t>(std::lround(clamped));
    }

    model.server->submit(
        std::move(request),
        [onResponse = std::move(onResponse)](
            serve::InferenceResult &&result) {
            ResponseFrame response;
            response.id = result.id;
            response.status = toFrameStatus(result.status);
            response.classIndex = result.classIndex;
            response.batchSize = result.batchSize;
            response.queueMicros =
                static_cast<float>(result.queueMicros);
            response.batchMicros =
                static_cast<float>(result.batchMicros);
            response.computeMicros =
                static_cast<float>(result.computeMicros);
            response.totalMicros =
                static_cast<float>(result.totalMicros);
            onResponse(std::move(response));
        });
}

void
ServeFrontend::stop()
{
    for (auto &entry : models_)
        entry.second.server->stop();
}

std::vector<std::string>
ServeFrontend::models() const
{
    std::vector<std::string> names;
    names.reserve(models_.size());
    for (const auto &entry : models_)
        names.push_back(entry.first);
    return names;
}

serve::InferenceServer *
ServeFrontend::server(const std::string &model) const
{
    const auto it = models_.find(model);
    return it == models_.end() ? nullptr : it->second.server.get();
}

} // namespace net
} // namespace neuro
