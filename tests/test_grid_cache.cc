// Tests for the encoded-grid cache: hit/miss accounting, LRU eviction
// under the byte budget, and eviction safety of handed-out grids.

#include <gtest/gtest.h>

#include "neuro/common/rng.h"
#include "neuro/snn/coding.h"
#include "neuro/snn/grid_cache.h"

namespace neuro {
namespace snn {
namespace {

PackedSpikeGrid
makeGrid(uint16_t input, int spikes)
{
    PackedSpikeGrid grid(64, 500);
    for (int t = 0; t < spikes; ++t)
        grid.addSpike(t * 7 % 500, input);
    grid.finalize();
    return grid;
}

GridKey
makeKey(uint64_t index)
{
    GridKey key;
    key.sampleIndex = index;
    key.streamSeed = deriveStreamSeed(42, index);
    key.pixelHash = 0x1234;
    key.codingHash = 0x5678;
    return key;
}

TEST(GridCache, MissThenHit)
{
    GridCache cache;
    const GridKey key = makeKey(0);
    EXPECT_EQ(cache.find(key), nullptr);
    const auto inserted = cache.insert(key, makeGrid(3, 5));
    ASSERT_NE(inserted, nullptr);
    const auto found = cache.find(key);
    EXPECT_EQ(found.get(), inserted.get()) << "same resident grid";
    const GridCacheStats stats = cache.stats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.entries, 1u);
    EXPECT_DOUBLE_EQ(stats.hitRate(), 0.5);
}

TEST(GridCache, DistinctKeysDistinctEntries)
{
    GridCache cache;
    cache.insert(makeKey(0), makeGrid(1, 3));
    cache.insert(makeKey(1), makeGrid(2, 3));
    // Same index, different stream seed: a different key.
    GridKey other = makeKey(0);
    other.streamSeed ^= 1;
    EXPECT_EQ(cache.find(other), nullptr);
    EXPECT_EQ(cache.stats().entries, 2u);
}

TEST(GridCache, LruEvictionAtBudget)
{
    // Budget sized for roughly two grids: inserting a third must evict
    // the least-recently-used one.
    const std::size_t grid_bytes = makeGrid(0, 5).bytes();
    GridCache cache(grid_bytes * 2 + grid_bytes / 2);

    cache.insert(makeKey(0), makeGrid(0, 5));
    cache.insert(makeKey(1), makeGrid(1, 5));
    EXPECT_EQ(cache.stats().entries, 2u);

    // Touch key 0 so key 1 becomes the LRU victim.
    EXPECT_NE(cache.find(makeKey(0)), nullptr);
    cache.insert(makeKey(2), makeGrid(2, 5));

    const GridCacheStats stats = cache.stats();
    EXPECT_EQ(stats.entries, 2u);
    EXPECT_EQ(stats.evictions, 1u);
    EXPECT_LE(stats.bytes, cache.budgetBytes());
    EXPECT_NE(cache.find(makeKey(0)), nullptr) << "recently used survives";
    EXPECT_EQ(cache.find(makeKey(1)), nullptr) << "LRU entry evicted";
    EXPECT_NE(cache.find(makeKey(2)), nullptr);
}

TEST(GridCache, EvictedGridSurvivesViaSharedPtr)
{
    const std::size_t grid_bytes = makeGrid(0, 5).bytes();
    GridCache cache(grid_bytes + grid_bytes / 2); // room for one.
    const auto held = cache.insert(makeKey(0), makeGrid(9, 5));
    cache.insert(makeKey(1), makeGrid(1, 5)); // evicts key 0.
    EXPECT_EQ(cache.find(makeKey(0)), nullptr);
    // The handed-out pointer still reads valid data.
    EXPECT_EQ(held->totalSpikes(), 5u);
}

TEST(GridCache, OversizedGridStillCaches)
{
    GridCache cache(1); // absurdly small budget.
    cache.insert(makeKey(0), makeGrid(0, 5));
    EXPECT_EQ(cache.stats().entries, 1u)
        << "the newest entry is always kept";
    cache.insert(makeKey(1), makeGrid(1, 5));
    EXPECT_EQ(cache.stats().entries, 1u);
    EXPECT_EQ(cache.find(makeKey(0)), nullptr);
    EXPECT_NE(cache.find(makeKey(1)), nullptr);
}

TEST(GridCache, RacingInsertKeepsFirstGrid)
{
    GridCache cache;
    const GridKey key = makeKey(0);
    const auto first = cache.insert(key, makeGrid(3, 5));
    const auto second = cache.insert(key, makeGrid(3, 5));
    EXPECT_EQ(first.get(), second.get())
        << "second insert of a key returns the resident grid";
    EXPECT_EQ(cache.stats().insertions, 1u);
}

TEST(GridCache, ClearDropsEntriesKeepsCounters)
{
    GridCache cache;
    cache.insert(makeKey(0), makeGrid(0, 5));
    cache.find(makeKey(0));
    cache.clear();
    const GridCacheStats stats = cache.stats();
    EXPECT_EQ(stats.entries, 0u);
    EXPECT_EQ(stats.bytes, 0u);
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(cache.find(makeKey(0)), nullptr);
}

TEST(GridCache, CodingConfigHashSeparatesSchemes)
{
    CodingConfig a;
    CodingConfig b = a;
    b.scheme = CodingScheme::RankOrder;
    CodingConfig c = a;
    c.periodMs = 250;
    EXPECT_NE(codingConfigHash(a), codingConfigHash(b));
    EXPECT_NE(codingConfigHash(a), codingConfigHash(c));
    EXPECT_EQ(codingConfigHash(a), codingConfigHash(CodingConfig{}));
}

} // namespace
} // namespace snn
} // namespace neuro
