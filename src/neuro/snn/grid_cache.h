/**
 * @file
 * Encoded-grid cache for SNN training. Spike encoding is deterministic
 * given (sample, per-sample stream seed, coding configuration) —
 * docs/parallelism.md — so re-encoding the same image on every epoch
 * of STDP training is pure waste. The cache memoizes finalized
 * `PackedSpikeGrid`s under that key, bounded by a byte budget with LRU
 * eviction. Labeling and evaluation read each grid once, and only up
 * to its first spike, so they encode past the cache
 * (FirstSpikeReader, network.h).
 *
 * Entries are handed out as `shared_ptr<const PackedSpikeGrid>` so an
 * eviction can never invalidate a grid a worker is still presenting;
 * all operations are thread-safe (the training loop and its grid
 * prefetcher hit the cache concurrently). Two callers racing on the
 * same missing key both encode — the grids are identical by
 * construction, and only one copy is retained.
 */

#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>

#include "neuro/common/mutex.h"
#include "neuro/snn/spike_bits.h"

namespace neuro {
namespace snn {

struct CodingConfig;

/** Cache key: which sample, which noise stream, which encoder. */
struct GridKey
{
    uint64_t sampleIndex = 0; ///< index within its dataset.
    uint64_t streamSeed = 0;  ///< deriveStreamSeed(seed, sampleIndex).
    uint64_t pixelHash = 0;   ///< FNV-1a of the pixels (dataset identity).
    uint64_t codingHash = 0;  ///< hash of the CodingConfig.

    bool
    operator==(const GridKey &o) const
    {
        return sampleIndex == o.sampleIndex && streamSeed == o.streamSeed &&
            pixelHash == o.pixelHash && codingHash == o.codingHash;
    }
};

/** FNV-1a over a pixel buffer (dataset-identity component of GridKey). */
uint64_t gridPixelHash(const uint8_t *pixels, std::size_t n);

/** Stable hash of every field of a CodingConfig. */
uint64_t codingConfigHash(const CodingConfig &config);

/** Point-in-time cache statistics. */
struct GridCacheStats
{
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t insertions = 0;
    std::size_t bytes = 0;   ///< current resident grid bytes.
    std::size_t entries = 0; ///< current resident grid count.
};

/** Thread-safe LRU cache of encoded spike grids with a byte budget. */
class GridCache
{
  public:
    /** Default budget: enough for a few thousand MNIST-sized grids. */
    static constexpr std::size_t kDefaultBudgetBytes = 256u << 20;

    explicit GridCache(std::size_t budget_bytes = kDefaultBudgetBytes);

    /** @return the configured byte budget. */
    std::size_t budgetBytes() const { return budgetBytes_; }

    /**
     * Look up @p key.
     * @return the cached grid (moved to most-recently-used), or nullptr.
     */
    std::shared_ptr<const PackedSpikeGrid> find(const GridKey &key);

    /**
     * Insert a finalized grid under @p key, evicting least-recently-used
     * entries until the budget holds. If the key is already present
     * (another worker raced the encode), the existing grid wins.
     * @return the resident grid for @p key.
     */
    std::shared_ptr<const PackedSpikeGrid> insert(const GridKey &key,
                                                 PackedSpikeGrid &&grid);

    /** Drop every entry (budget and counters kept). */
    void clear();

    /** @return a consistent snapshot of the counters. */
    GridCacheStats stats() const;

  private:
    struct Entry
    {
        GridKey key;
        std::shared_ptr<const PackedSpikeGrid> grid;
        std::size_t bytes = 0;
    };

    struct KeyHash
    {
        std::size_t operator()(const GridKey &k) const;
    };

    void evictToBudgetLocked() NEURO_REQUIRES(mutex_);

    const std::size_t budgetBytes_;
    mutable Mutex mutex_;
    /** front = most recently used. */
    std::list<Entry> lru_ NEURO_GUARDED_BY(mutex_);
    std::unordered_map<GridKey, std::list<Entry>::iterator, KeyHash>
        map_ NEURO_GUARDED_BY(mutex_);
    GridCacheStats stats_ NEURO_GUARDED_BY(mutex_);
};

} // namespace snn
} // namespace neuro

