#include "neuro/snn/grid_cache.h"

#include "neuro/common/logging.h"
#include "neuro/common/profile.h"
#include "neuro/snn/coding.h"

namespace neuro {
namespace snn {

namespace {

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr uint64_t kFnvPrime = 0x100000001b3ULL;

uint64_t
fnvMix(uint64_t h, uint64_t v)
{
    // Fold the value in byte-wise so every bit lands in the stream.
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (i * 8)) & 0xffu;
        h *= kFnvPrime;
    }
    return h;
}

} // namespace

uint64_t
gridPixelHash(const uint8_t *pixels, std::size_t n)
{
    uint64_t h = kFnvOffset;
    for (std::size_t i = 0; i < n; ++i) {
        h ^= pixels[i];
        h *= kFnvPrime;
    }
    return h;
}

uint64_t
codingConfigHash(const CodingConfig &config)
{
    uint64_t h = kFnvOffset;
    h = fnvMix(h, static_cast<uint64_t>(config.scheme));
    h = fnvMix(h, static_cast<uint64_t>(config.periodMs));
    h = fnvMix(h, static_cast<uint64_t>(config.minIntervalMs));
    uint64_t sigma_bits = 0;
    static_assert(sizeof(sigma_bits) == sizeof(config.gaussianSigmaFactor));
    __builtin_memcpy(&sigma_bits, &config.gaussianSigmaFactor,
                     sizeof(sigma_bits));
    return fnvMix(h, sigma_bits);
}

double
GridCacheStats::hitRate() const
{
    const uint64_t total = hits + misses;
    return total == 0 ? 0.0
                      : static_cast<double>(hits) /
            static_cast<double>(total);
}

std::size_t
GridCache::KeyHash::operator()(const GridKey &k) const
{
    uint64_t h = kFnvOffset;
    h = fnvMix(h, k.sampleIndex);
    h = fnvMix(h, k.streamSeed);
    h = fnvMix(h, k.pixelHash);
    h = fnvMix(h, k.codingHash);
    return static_cast<std::size_t>(h);
}

GridCache::GridCache(std::size_t budget_bytes)
    : budgetBytes_(budget_bytes)
{
}

std::shared_ptr<const PackedSpikeGrid>
GridCache::find(const GridKey &key)
{
    MutexGuard lock(mutex_);
    auto it = map_.find(key);
    if (it == map_.end()) {
        ++stats_.misses;
        obsCount<"snn.grid_cache.misses">();
        return nullptr;
    }
    ++stats_.hits;
    obsCount<"snn.grid_cache.hits">();
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->grid;
}

std::shared_ptr<const PackedSpikeGrid>
GridCache::insert(const GridKey &key, PackedSpikeGrid &&grid)
{
    MutexGuard lock(mutex_);
    auto it = map_.find(key);
    if (it != map_.end()) {
        // A concurrent worker encoded the same key; keep the resident
        // grid so shared_ptr identity stays stable.
        lru_.splice(lru_.begin(), lru_, it->second);
        return it->second->grid;
    }
    Entry entry;
    entry.key = key;
    entry.bytes = grid.bytes();
    entry.grid =
        std::make_shared<const PackedSpikeGrid>(std::move(grid));
    auto resident = entry.grid;
    stats_.bytes += entry.bytes;
    ++stats_.entries;
    ++stats_.insertions;
    lru_.push_front(std::move(entry));
    map_[key] = lru_.begin();
    evictToBudgetLocked();
    return resident;
}

void
GridCache::evictToBudgetLocked()
{
    // Keep at least the just-inserted entry so a single oversized grid
    // still caches (and the budget degrades gracefully).
    while (stats_.bytes > budgetBytes_ && lru_.size() > 1) {
        const Entry &victim = lru_.back();
        stats_.bytes -= victim.bytes;
        --stats_.entries;
        ++stats_.evictions;
        obsCount<"snn.grid_cache.evictions">();
        map_.erase(victim.key);
        lru_.pop_back();
    }
}

void
GridCache::clear()
{
    MutexGuard lock(mutex_);
    lru_.clear();
    map_.clear();
    stats_.bytes = 0;
    stats_.entries = 0;
}

GridCacheStats
GridCache::stats() const
{
    MutexGuard lock(mutex_);
    return stats_;
}

} // namespace snn
} // namespace neuro
