#include "neuro/telemetry/telemetry.h"

#include <fstream>
#include <memory>
#include <utility>

#include "neuro/common/logging.h"
#include "neuro/common/mutex.h"
#include "neuro/telemetry/export.h"
#include "neuro/telemetry/metrics.h"
#include "neuro/telemetry/sampler.h"

namespace neuro {
namespace telemetry {

namespace {

/**
 * All global-telemetry state behind one function-local static.
 * startGlobalTelemetry() can be reached from another translation
 * unit's *static initializer* (the NEURO_METRICS env bootstrap in
 * profile.cc), so namespace-scope globals with dynamic initializers
 * (TelemetryConfig holds a std::string) would race the initialization
 * order and could be re-initialized *after* being assigned. The
 * object is leaked on purpose, like MetricRegistry::instance(): it
 * must also stay valid through the exit routine regardless of static
 * destruction order.
 */
struct GlobalTelemetry
{
    Mutex mutex;
    std::unique_ptr<Sampler> sampler NEURO_GUARDED_BY(mutex);
    TelemetryConfig config NEURO_GUARDED_BY(mutex);
};

GlobalTelemetry &
state()
{
    static GlobalTelemetry *instance = new GlobalTelemetry;
    return *instance;
}

enum class Format { Prometheus, Json, Csv, All };

Format
formatOf(const std::string &path)
{
    const std::size_t slash = path.find_last_of('/');
    const std::size_t dot = path.find_last_of('.');
    if (dot == std::string::npos ||
        (slash != std::string::npos && dot < slash))
        return Format::All;
    const std::string ext = path.substr(dot + 1);
    if (ext == "prom" || ext == "txt")
        return Format::Prometheus;
    if (ext == "json")
        return Format::Json;
    if (ext == "csv")
        return Format::Csv;
    return Format::All;
}

template <typename WriteFn>
void
writeFile(const std::string &path, WriteFn &&fn)
{
    std::ofstream os(path);
    if (!os) {
        warn("telemetry: cannot open '%s' for writing", path.c_str());
        return;
    }
    fn(os);
    inform("telemetry: wrote %s", path.c_str());
}

} // namespace

void
startGlobalTelemetry(const TelemetryConfig &config)
{
    GlobalTelemetry &g = state();
    MutexGuard lock(g.mutex);
    g.config = config;
    SamplerConfig samplerConfig;
    samplerConfig.periodMillis = config.periodMillis;
    g.sampler =
        std::make_unique<Sampler>(MetricRegistry::instance(), samplerConfig);
    g.sampler->start();
}

void
flushGlobalTelemetry()
{
    GlobalTelemetry &g = state();
    std::unique_ptr<Sampler> sampler;
    TelemetryConfig config;
    {
        MutexGuard lock(g.mutex);
        sampler = std::move(g.sampler);
        config = g.config;
    }
    if (sampler == nullptr)
        return;
    sampler->stop();
    sampler->sampleOnce(); // capture the final state as the last row
    const MetricsSnapshot snap = MetricRegistry::instance().snapshot();
    const std::vector<Sampler::Row> rows = sampler->rows();
    switch (formatOf(config.path)) {
    case Format::Prometheus:
        writeFile(config.path,
                  [&](std::ostream &os) { writePrometheus(snap, os); });
        break;
    case Format::Json:
        writeFile(config.path,
                  [&](std::ostream &os) { writeJson(snap, os); });
        break;
    case Format::Csv:
        writeFile(config.path,
                  [&](std::ostream &os) { writeTimelineCsv(rows, os); });
        break;
    case Format::All:
        writeFile(config.path + ".prom",
                  [&](std::ostream &os) { writePrometheus(snap, os); });
        writeFile(config.path + ".json",
                  [&](std::ostream &os) { writeJson(snap, os); });
        writeFile(config.path + ".csv",
                  [&](std::ostream &os) { writeTimelineCsv(rows, os); });
        break;
    }
}

} // namespace telemetry
} // namespace neuro
