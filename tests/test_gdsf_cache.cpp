#include <gtest/gtest.h>

#include <vector>

#include "l2sim/cache/gdsf_cache.hpp"
#include "l2sim/cache/lru_cache.hpp"
#include "l2sim/zipf/sampler.hpp"
#include "l2sim/common/error.hpp"
#include "l2sim/common/rng.hpp"

namespace l2s::cache {
namespace {

TEST(GdsfCache, MissThenHit) {
  GdsfCache c(10 * kKiB);
  EXPECT_FALSE(c.lookup(1));
  c.insert(1, 4 * kKiB);
  EXPECT_TRUE(c.lookup(1));
  EXPECT_EQ(c.stats().hits, 1u);
  EXPECT_EQ(c.stats().misses, 1u);
}

TEST(GdsfCache, PrefersSmallFilesUnderPressure) {
  // One big file and several small ones with equal frequency: the big file
  // has the lowest priority (frequency/size) and is evicted first.
  GdsfCache c(100 * kKiB);
  c.insert(1, 60 * kKiB);  // big
  c.insert(2, 10 * kKiB);
  c.insert(3, 10 * kKiB);
  c.insert(4, 10 * kKiB);
  c.insert(5, 30 * kKiB);  // overflows: evicts the big file first
  EXPECT_FALSE(c.contains(1));
  EXPECT_TRUE(c.contains(2));
  EXPECT_TRUE(c.contains(5));
}

TEST(GdsfCache, FrequencyProtectsBigFiles) {
  GdsfCache c(100 * kKiB);
  c.insert(1, 50 * kKiB);
  // Many hits raise the big file's priority far above fresh small files.
  for (int i = 0; i < 200; ++i) EXPECT_TRUE(c.lookup(1));
  c.insert(2, 30 * kKiB);
  c.insert(3, 30 * kKiB);  // overflow: a small *cold* file should go, not 1
  EXPECT_TRUE(c.contains(1));
  EXPECT_EQ(c.entries(), 2u);
}

TEST(GdsfCache, AgingFloorRisesWithEvictions) {
  GdsfCache c(20 * kKiB);
  EXPECT_DOUBLE_EQ(c.aging_floor(), 0.0);
  c.insert(1, 16 * kKiB);
  c.insert(2, 16 * kKiB);  // evicts 1
  EXPECT_GT(c.aging_floor(), 0.0);
}

TEST(GdsfCache, ByteAccountingExact) {
  GdsfCache c(100);
  c.insert(1, 40);
  c.insert(2, 30);
  EXPECT_EQ(c.used(), 70u);
  EXPECT_TRUE(c.erase(1));
  EXPECT_EQ(c.used(), 30u);
  EXPECT_FALSE(c.erase(1));
}

TEST(GdsfCache, OversizedNeverCached) {
  GdsfCache c(100);
  c.insert(1, 101);
  EXPECT_FALSE(c.contains(1));
  EXPECT_EQ(c.used(), 0u);
}

TEST(GdsfCache, OversizedReinsertDropsResidentCopy) {
  GdsfCache c(100);
  c.insert(1, 40);
  c.insert(2, 30);
  c.insert(1, 101);  // re-stat beyond the whole capacity
  EXPECT_FALSE(c.contains(1));
  EXPECT_TRUE(c.contains(2));
  EXPECT_EQ(c.used(), 30u);
  EXPECT_EQ(c.entries(), 1u);
  EXPECT_EQ(c.stats().evictions, 0u);  // dropped as by erase, not evicted
}

TEST(GdsfCache, ReinsertUpdatesSize) {
  GdsfCache c(100);
  c.insert(1, 40);
  c.insert(1, 60);
  EXPECT_EQ(c.used(), 60u);
  EXPECT_EQ(c.entries(), 1u);
  EXPECT_EQ(c.stats().insertions, 1u);
}

TEST(GdsfCache, ClearResetsContentsAndFloor) {
  GdsfCache c(20 * kKiB);
  c.insert(1, 16 * kKiB);
  c.insert(2, 16 * kKiB);
  c.clear();
  EXPECT_EQ(c.entries(), 0u);
  EXPECT_EQ(c.used(), 0u);
  EXPECT_DOUBLE_EQ(c.aging_floor(), 0.0);
}

TEST(GdsfCache, InvariantsUnderRandomWorkload) {
  GdsfCache c(64 * kKiB);
  Rng rng(99);
  for (int step = 0; step < 20000; ++step) {
    const auto id = static_cast<FileId>(rng.next_below(80));
    const Bytes size = (1 + rng.next_below(24)) * kKiB;
    if (!c.lookup(id)) c.insert(id, size);
    EXPECT_LE(c.used(), c.capacity());
  }
  EXPECT_GT(c.stats().hits, 0u);
  EXPECT_GT(c.stats().evictions, 0u);
}

TEST(GdsfCache, HigherRequestHitRateThanLruOnSizeSkewedZipf) {
  // The canonical GDSF claim: with Zipf popularity and variable sizes,
  // prioritizing frequency/size yields a better *request* hit rate than
  // LRU under the same capacity.
  LruCache lru(256 * kKiB);
  GdsfCache gdsf(256 * kKiB);
  Rng rng(7);
  // 400 files; sizes 1..64 KB independent of rank.
  std::vector<Bytes> sizes;
  for (int i = 0; i < 400; ++i) sizes.push_back((1 + rng.next_below(64)) * kKiB);
  const zipf::ZipfSampler pop(400, 1.0);
  for (int i = 0; i < 60000; ++i) {
    const auto id = static_cast<FileId>(pop.sample(rng));
    if (!lru.lookup(id)) lru.insert(id, sizes[id]);
    if (!gdsf.lookup(id)) gdsf.insert(id, sizes[id]);
  }
  EXPECT_GT(gdsf.stats().hit_rate(), lru.stats().hit_rate());
}

TEST(GdsfCache, ZeroCapacityRejected) { EXPECT_THROW(GdsfCache(0), l2s::Error); }

}  // namespace
}  // namespace l2s::cache
