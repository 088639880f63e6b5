#include "neuro/common/config.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <string_view>

#include "neuro/common/logging.h"

namespace neuro {

namespace {

/**
 * The dashed flags the binaries understand by the bench convention.
 * Process settings (threads, SIMD, trace, stats, metrics) are NEURO_*
 * environment variables only, so they are not here. The table is
 * constant, so any thread may read it.
 */
constexpr std::string_view kKnownFlags[] = {
    "quick", "help",
    // Network serving / load-harness flags (neurocmp serve
    // --listen, bench_serving_openloop; docs/serving.md).
    "listen", "port", "host", "rate", "duration_s", "deadline_us",
};

/** Edit distance for the did-you-mean suggestion (small strings). */
std::size_t
editDistance(std::string_view a, std::string_view b)
{
    std::vector<std::size_t> row(b.size() + 1);
    for (std::size_t j = 0; j <= b.size(); ++j)
        row[j] = j;
    for (std::size_t i = 1; i <= a.size(); ++i) {
        std::size_t diag = row[0];
        row[0] = i;
        for (std::size_t j = 1; j <= b.size(); ++j) {
            const std::size_t up = row[j];
            row[j] = std::min({row[j] + 1, row[j - 1] + 1,
                               diag + (a[i - 1] == b[j - 1] ? 0 : 1)});
            diag = up;
        }
    }
    return row[b.size()];
}

/** @return the closest known flag within edit distance 2, or "". */
std::string
closestKnownFlag(const std::string &key)
{
    std::string best;
    std::size_t bestDist = 3;
    for (const std::string_view flag : kKnownFlags) {
        const std::size_t d = editDistance(key, flag);
        if (d < bestDist) {
            bestDist = d;
            best = flag;
        }
    }
    return best;
}

} // namespace

void
Config::set(const std::string &key, const std::string &value)
{
    entries_[key] = value;
}

bool
Config::has(const std::string &key) const
{
    return entries_.count(key) != 0;
}

std::string
Config::getString(const std::string &key, const std::string &fallback) const
{
    auto it = entries_.find(key);
    return it == entries_.end() ? fallback : it->second;
}

long
Config::getInt(const std::string &key, long fallback) const
{
    auto it = entries_.find(key);
    if (it == entries_.end())
        return fallback;
    char *end = nullptr;
    const long v = std::strtol(it->second.c_str(), &end, 0);
    if (end == it->second.c_str()) {
        warn("config key '%s' = '%s' is not an integer; using %ld",
             key.c_str(), it->second.c_str(), fallback);
        return fallback;
    }
    return v;
}

double
Config::getDouble(const std::string &key, double fallback) const
{
    auto it = entries_.find(key);
    if (it == entries_.end())
        return fallback;
    char *end = nullptr;
    const double v = std::strtod(it->second.c_str(), &end);
    if (end == it->second.c_str()) {
        warn("config key '%s' = '%s' is not a number; using %g",
             key.c_str(), it->second.c_str(), fallback);
        return fallback;
    }
    return v;
}

bool
Config::getBool(const std::string &key, bool fallback) const
{
    auto it = entries_.find(key);
    if (it == entries_.end())
        return fallback;
    std::string v = it->second;
    std::transform(v.begin(), v.end(), v.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    if (v == "1" || v == "true" || v == "yes" || v == "on")
        return true;
    if (v == "0" || v == "false" || v == "no" || v == "off")
        return false;
    warn("config key '%s' = '%s' is not a boolean; using %d", key.c_str(),
         it->second.c_str(), fallback);
    return fallback;
}

void
Config::parseArgs(int argc, char **argv)
{
    unknownFlags_.clear();
    for (int i = 1; i < argc; ++i) {
        const char *token = argv[i];
        // `--key=value` and bare `--flag` (stored as "1") are accepted
        // alongside plain `key=value`; dashes inside the key map to
        // underscores so `--deadline-us` reads as `deadline_us`.
        const bool dashed = token[0] == '-' && token[1] == '-';
        if (dashed)
            token += 2;
        const char *eq = std::strchr(token, '=');
        if (eq == token || (!eq && !dashed))
            continue;
        std::string key = eq ? std::string(token, eq) : std::string(token);
        if (key.empty())
            continue;
        std::replace(key.begin(), key.end(), '-', '_');
        if (dashed) {
            if (std::find(std::begin(kKnownFlags), std::end(kKnownFlags),
                          key) == std::end(kKnownFlags)) {
                unknownFlags_.push_back(key);
                const std::string hint = closestKnownFlag(key);
                if (hint.empty()) {
                    warn("unknown flag '--%s' (value still applied; "
                         "see `list` for accepted flags)",
                         key.c_str());
                } else {
                    warn("unknown flag '--%s' — did you mean "
                         "'--%s'? (value still applied)",
                         key.c_str(), hint.c_str());
                }
            }
        }
        set(key, eq ? std::string(eq + 1) : std::string("1"));
    }
}

double
experimentScale()
{
    static const double scale = [] {
        const char *env = std::getenv("NEURO_SCALE");
        if (!env)
            return 1.0;
        const double v = std::strtod(env, nullptr);
        if (!(v > 0.0) || v > 1.0) {
            warn("NEURO_SCALE=%s out of (0,1]; using 1.0", env);
            return 1.0;
        }
        return v;
    }();
    return scale;
}

std::size_t
scaled(std::size_t n, std::size_t minimum)
{
    const double v = std::round(static_cast<double>(n) * experimentScale());
    return std::max<std::size_t>(minimum, static_cast<std::size_t>(v));
}

} // namespace neuro
