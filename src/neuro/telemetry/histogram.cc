#include "neuro/telemetry/histogram.h"

#include <algorithm>
#include <bit>
#include <cmath>

namespace neuro {
namespace telemetry {

int
LatencyHistogram::bucketOf(uint64_t micros)
{
    // Values below 2^kSubBits map linearly (one bucket per µs);
    // above, each power of two splits into 2^kSubBits sub-buckets
    // indexed by the bits just below the leading one.
    if (micros < (1ULL << kSubBits))
        return static_cast<int>(micros);
    const int log2 = 63 - std::countl_zero(micros);
    const int sub = static_cast<int>(
        (micros >> (log2 - kSubBits)) & ((1ULL << kSubBits) - 1));
    const int index = ((log2 - kSubBits + 1) << kSubBits) + sub;
    return std::min(index, kBuckets - 1);
}

double
LatencyHistogram::bucketUpperBound(int index)
{
    if (index < (1 << kSubBits))
        return static_cast<double>(index + 1);
    const int log2 = (index >> kSubBits) + kSubBits - 1;
    const int sub = index & ((1 << kSubBits) - 1);
    const uint64_t base = 1ULL << log2;
    const uint64_t step = base >> kSubBits;
    return static_cast<double>(base + step * static_cast<uint64_t>(sub)
                               + step);
}

void
LatencyHistogram::record(double micros)
{
    const uint64_t v = micros <= 0.0
        ? 0
        : static_cast<uint64_t>(std::llround(micros));
    buckets_[static_cast<std::size_t>(bucketOf(v))].fetch_add(
        1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
}

uint64_t
LatencyHistogram::count() const
{
    return count_.load(std::memory_order_relaxed);
}

double
LatencyHistogram::percentile(double q) const
{
    const uint64_t total = count();
    if (total == 0)
        return 0.0;
    const double clamped = std::clamp(q, 0.0, 1.0);
    auto rank = static_cast<uint64_t>(
        std::ceil(clamped * static_cast<double>(total)));
    rank = std::max<uint64_t>(rank, 1);
    uint64_t seen = 0;
    for (int i = 0; i < kBuckets; ++i) {
        seen += buckets_[static_cast<std::size_t>(i)].load(
            std::memory_order_relaxed);
        if (seen >= rank)
            return bucketUpperBound(i);
    }
    return bucketUpperBound(kBuckets - 1);
}

double
LatencyHistogram::maxMicros() const
{
    for (int i = kBuckets - 1; i >= 0; --i) {
        if (buckets_[static_cast<std::size_t>(i)].load(
                std::memory_order_relaxed) != 0)
            return bucketUpperBound(i);
    }
    return 0.0;
}

double
LatencyHistogram::sumMicros() const
{
    double sum = 0.0;
    for (int i = 0; i < kBuckets; ++i) {
        const uint64_t n = buckets_[static_cast<std::size_t>(i)].load(
            std::memory_order_relaxed);
        if (n != 0)
            sum += static_cast<double>(n) * bucketUpperBound(i);
    }
    return sum;
}

void
LatencyHistogram::reset()
{
    for (auto &bucket : buckets_)
        bucket.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
}

LatencyHistogram::Summary
LatencyHistogram::summary() const
{
    Summary s;
    s.count = count();
    s.p50Us = percentile(0.50);
    s.p95Us = percentile(0.95);
    s.p99Us = percentile(0.99);
    s.maxUs = maxMicros();
    s.sumUs = sumMicros();
    return s;
}

} // namespace telemetry
} // namespace neuro
