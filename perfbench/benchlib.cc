#include "benchlib.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "neuro/common/rng.h"

namespace perfbench {

namespace {

/** 1-based nearest rank of @p permille over @p n samples. */
std::size_t
nearestRank(std::size_t n, int permille)
{
    const auto p = static_cast<std::size_t>(permille);
    return std::max<std::size_t>(1, (p * n + 999) / 1000);
}

} // namespace

int
tailPermille(std::size_t n)
{
    for (const int permille : {999, 990, 900, 500}) {
        if (n >= 10 && n - nearestRank(n, permille) >= 10)
            return permille;
    }
    return 0;
}

double
percentileSorted(const std::vector<double> &sorted, int permille)
{
    return sorted[nearestRank(sorted.size(), permille) - 1];
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 == 1 ? values[mid]
                                   : 0.5 * (values[mid - 1] + values[mid]);
}

std::vector<int64_t>
selfTimesNs(const std::vector<Span> &spans)
{
    std::vector<int64_t> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i)
        self[i] = spans[i].endNs - spans[i].startNs;
    for (const Span &s : spans) {
        if (s.parent >= 0)
            self[static_cast<std::size_t>(s.parent)] -= s.endNs - s.startNs;
    }
    return self;
}

int
Tracer::add(std::string name, uint64_t id, int parent, int64_t startNs,
            int64_t endNs)
{
    spans_.push_back({std::move(name), id, parent, startNs, endNs});
    return static_cast<int>(spans_.size() - 1);
}

bool
Tracer::writeChromeJson(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fputs("{\"traceEvents\":[", f);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                     "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                     "\"args\":{\"id\":%llu,\"parent\":%d}}",
                     i == 0 ? "" : ",", s.name.c_str(),
                     static_cast<double>(s.startNs) / 1e3,
                     static_cast<double>(s.endNs - s.startNs) / 1e3,
                     static_cast<unsigned long long>(s.id), s.parent);
    }
    std::fputs("\n]}\n", f);
    return std::fclose(f) == 0;
}

std::vector<int64_t>
poissonScheduleNs(double rateReqS, double durationS, uint64_t seed)
{
    neuro::Rng rng(seed);
    const double meanGapUs = 1e6 / rateReqS;
    const auto endNs = static_cast<int64_t>(durationS * 1e9);
    std::vector<int64_t> at;
    double clockUs = 0.0;
    for (;;) {
        clockUs += rng.exponential(meanGapUs);
        const auto ns = static_cast<int64_t>(clockUs * 1e3);
        if (ns >= endNs)
            return at;
        at.push_back(ns);
    }
}

WireCheck::WireCheck(std::size_t sent, bool shedAllowed)
    : seen_(sent, 0), shedAllowed_(shedAllowed)
{
}

void
WireCheck::record(uint64_t id, WireStatus status, int classIndex,
                  int expectedClass)
{
    if (id >= seen_.size() || seen_[id] != 0) {
        ++bad_;
        return;
    }
    seen_[id] = 1;
    ++answered_;
    switch (status) {
    case WireStatus::Ok:
        ++ok_;
        if (classIndex != expectedClass)
            ++bad_;
        break;
    case WireStatus::Shed:
        ++shed_;
        if (!shedAllowed_)
            ++bad_;
        break;
    case WireStatus::Error: ++bad_; break;
    }
}

uint64_t
WireCheck::lost() const
{
    return seen_.size() - answered_;
}

uint64_t
WireCheck::failed() const
{
    return bad_ + lost();
}

} // namespace perfbench
