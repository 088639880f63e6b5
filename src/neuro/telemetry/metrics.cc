#include "neuro/telemetry/metrics.h"

#include <string_view>

#include "neuro/common/logging.h"

namespace neuro {
namespace telemetry {

namespace {

/** @return true if @p metrics holds @p name under any label. The empty
 *  label sorts first, so the lower bound of (name, "") is the name's
 *  first series if it has one. */
template <typename Map>
bool
hasName(const Map &metrics, const std::string &name)
{
    const auto it = metrics.lower_bound({name, std::string()});
    return it != metrics.end() && it->first.first == name;
}

/** Get-or-create of one series in @p metrics (caller holds the lock
 *  and has checked the kind). */
template <typename Metric>
std::shared_ptr<Metric>
findOrAdd(std::map<MetricRegistry::SeriesKey, std::shared_ptr<Metric>>
              &metrics,
          MetricRegistry::SeriesKey key)
{
    auto it = metrics.find(key);
    if (it == metrics.end())
        it = metrics.emplace(std::move(key), std::make_shared<Metric>())
                 .first;
    return it->second;
}

} // namespace

MetricRegistry &
MetricRegistry::instance()
{
    // Leaked on purpose: the registry must outlive the exit routine and
    // any worker thread still publishing during shutdown. A static
    // pointer keeps it reachable, so LeakSanitizer stays quiet.
    static MetricRegistry *registry = new MetricRegistry();
    return *registry;
}

void
MetricRegistry::assertKindFree(const std::string &name,
                               const char *kind) const
{
    // mutex_ is held by the caller (enforced by NEURO_REQUIRES).
    const std::string_view k = kind;
    const bool taken = (k != "counter" && hasName(counters_, name)) ||
                       (k != "gauge" && hasName(gauges_, name)) ||
                       (k != "histogram" && hasName(histograms_, name));
    NEURO_ASSERT(!taken,
                 "metric '%s' already registered as a different kind "
                 "(requested %s)",
                 name.c_str(), kind);
}

std::shared_ptr<Counter>
MetricRegistry::counter(const std::string &name, const std::string &model)
{
    MutexGuard lock(mutex_);
    assertKindFree(name, "counter");
    return findOrAdd(counters_, {name, model});
}

std::shared_ptr<Gauge>
MetricRegistry::gauge(const std::string &name, const std::string &model)
{
    MutexGuard lock(mutex_);
    assertKindFree(name, "gauge");
    return findOrAdd(gauges_, {name, model});
}

std::shared_ptr<LatencyHistogram>
MetricRegistry::histogram(const std::string &name,
                          const std::string &model)
{
    MutexGuard lock(mutex_);
    assertKindFree(name, "histogram");
    return findOrAdd(histograms_, {name, model});
}

MetricsSnapshot
MetricRegistry::snapshot() const
{
    MetricsSnapshot snap;
    MutexGuard lock(mutex_);
    snap.counters.reserve(counters_.size());
    for (const auto &[key, metric] : counters_)
        snap.counters.push_back({key.first, key.second, metric->value()});
    snap.gauges.reserve(gauges_.size());
    for (const auto &[key, metric] : gauges_)
        snap.gauges.push_back({key.first, key.second, metric->value()});
    snap.histograms.reserve(histograms_.size());
    for (const auto &[key, metric] : histograms_)
        snap.histograms.push_back(
            {key.first, key.second, metric->summary()});
    return snap;
}

void
MetricRegistry::resetValues()
{
    MutexGuard lock(mutex_);
    for (auto &[key, metric] : counters_)
        metric->reset();
    for (auto &[key, metric] : gauges_)
        metric->reset();
    for (auto &[key, metric] : histograms_)
        metric->reset();
}

std::size_t
MetricRegistry::size() const
{
    MutexGuard lock(mutex_);
    return counters_.size() + gauges_.size() + histograms_.size();
}

} // namespace telemetry
} // namespace neuro
