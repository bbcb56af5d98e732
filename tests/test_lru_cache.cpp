#include <gtest/gtest.h>

#include <cstdint>
#include <list>
#include <unordered_map>
#include <utility>
#include <vector>

#include "l2sim/cache/lru_cache.hpp"
#include "l2sim/common/error.hpp"
#include "l2sim/common/rng.hpp"

namespace l2s::cache {
namespace {

TEST(LruCache, MissThenHit) {
  LruCache c(10 * kKiB);
  EXPECT_FALSE(c.lookup(1));
  c.insert(1, 4 * kKiB);
  EXPECT_TRUE(c.lookup(1));
  EXPECT_EQ(c.stats().hits, 1u);
  EXPECT_EQ(c.stats().misses, 1u);
}

TEST(LruCache, EvictsLeastRecentlyUsed) {
  LruCache c(10 * kKiB);
  c.insert(1, 4 * kKiB);
  c.insert(2, 4 * kKiB);
  EXPECT_TRUE(c.lookup(1));         // 1 is now MRU
  c.insert(3, 4 * kKiB);            // evicts 2
  EXPECT_TRUE(c.contains(1));
  EXPECT_FALSE(c.contains(2));
  EXPECT_TRUE(c.contains(3));
  EXPECT_EQ(c.stats().evictions, 1u);
}

TEST(LruCache, ByteAccountingExact) {
  LruCache c(100);
  c.insert(1, 40);
  c.insert(2, 30);
  EXPECT_EQ(c.used(), 70u);
  c.insert(3, 40);  // must evict 1 (LRU)
  EXPECT_EQ(c.used(), 70u);
  EXPECT_FALSE(c.contains(1));
}

TEST(LruCache, OversizedFileNeverCached) {
  LruCache c(100);
  c.insert(1, 50);
  c.insert(2, 101);  // larger than whole capacity
  EXPECT_FALSE(c.contains(2));
  EXPECT_TRUE(c.contains(1));  // existing contents untouched
  EXPECT_EQ(c.used(), 50u);
}

TEST(LruCache, OversizedReinsertDropsResidentCopy) {
  LruCache c(100);
  c.insert(1, 40);
  c.insert(2, 30);
  c.insert(1, 101);  // re-stat beyond the whole capacity
  EXPECT_FALSE(c.contains(1));
  EXPECT_TRUE(c.contains(2));
  EXPECT_EQ(c.used(), 30u);
  EXPECT_EQ(c.entries(), 1u);
  EXPECT_EQ(c.stats().evictions, 0u);  // dropped as by erase, not evicted
  c.insert(3, 70);                     // the freed bytes are really free
  EXPECT_TRUE(c.contains(2));
  EXPECT_EQ(c.stats().evictions, 0u);
}

TEST(LruCache, FileExactlyCapacityFits) {
  LruCache c(100);
  c.insert(1, 60);
  c.insert(2, 100);  // evicts everything else, fits exactly
  EXPECT_TRUE(c.contains(2));
  EXPECT_FALSE(c.contains(1));
  EXPECT_EQ(c.used(), 100u);
}

TEST(LruCache, ReinsertRefreshesRecency) {
  LruCache c(100);
  c.insert(1, 40);
  c.insert(2, 40);
  c.insert(1, 40);  // 1 becomes MRU again
  c.insert(3, 40);  // evicts 2
  EXPECT_TRUE(c.contains(1));
  EXPECT_FALSE(c.contains(2));
}

TEST(LruCache, ReinsertWithNewSizeAdjustsBytes) {
  LruCache c(100);
  c.insert(1, 40);
  c.insert(1, 60);
  EXPECT_EQ(c.used(), 60u);
  EXPECT_EQ(c.entries(), 1u);
  // Insertions counter only counts new entries.
  EXPECT_EQ(c.stats().insertions, 1u);
}

TEST(LruCache, EraseFreesSpace) {
  LruCache c(100);
  c.insert(1, 70);
  EXPECT_TRUE(c.erase(1));
  EXPECT_FALSE(c.erase(1));
  EXPECT_EQ(c.used(), 0u);
  c.insert(2, 100);
  EXPECT_TRUE(c.contains(2));
}

TEST(LruCache, ContainsDoesNotTouchStatsOrRecency) {
  LruCache c(100);
  c.insert(1, 40);
  c.insert(2, 40);
  (void)c.contains(1);  // must NOT promote 1
  c.insert(3, 40);      // evicts 1 (still LRU)
  EXPECT_FALSE(c.contains(1));
  EXPECT_EQ(c.stats().hits, 0u);
  EXPECT_EQ(c.stats().misses, 0u);
}

TEST(LruCache, ClearDropsContentsKeepsStats) {
  LruCache c(100);
  c.insert(1, 40);
  (void)c.lookup(1);
  c.clear();
  EXPECT_EQ(c.entries(), 0u);
  EXPECT_EQ(c.used(), 0u);
  EXPECT_EQ(c.stats().hits, 1u);
  c.reset_stats();
  EXPECT_EQ(c.stats().hits, 0u);
}

TEST(LruCache, MultiEvictionForLargeInsert) {
  LruCache c(100);
  c.insert(1, 30);
  c.insert(2, 30);
  c.insert(3, 30);
  c.insert(4, 90);  // must evict all three
  EXPECT_EQ(c.entries(), 1u);
  EXPECT_EQ(c.stats().evictions, 3u);
  EXPECT_EQ(c.stats().bytes_evicted, 90u);
}

TEST(LruCache, ZeroCapacityRejected) {
  EXPECT_THROW(LruCache(0), l2s::Error);
}

// Straightforward list + hash-map LRU with the documented semantics; the
// differential test below holds LruCache to it operation by operation.
class ReferenceLru {
 public:
  explicit ReferenceLru(Bytes capacity) : capacity_(capacity) {}

  bool lookup(FileId id) {
    const auto it = index_.find(id);
    if (it == index_.end()) return ++stats.misses, false;
    order_.splice(order_.begin(), order_, it->second);
    return ++stats.hits, true;
  }
  [[nodiscard]] bool contains(FileId id) const { return index_.contains(id); }
  void insert(FileId id, Bytes size, std::vector<FileId>& victims) {
    if (size > capacity_) {
      erase(id);
      return;
    }
    if (const auto it = index_.find(id); it != index_.end()) {
      used = used - it->second->second + size;
      it->second->second = size;
      order_.splice(order_.begin(), order_, it->second);
    } else {
      index_[id] = order_.emplace(order_.begin(), id, size);
      used += size;
      ++stats.insertions;
    }
    while (used > capacity_) {
      const auto [victim, victim_size] = order_.back();
      victims.push_back(victim);
      index_.erase(victim);
      order_.pop_back();
      used -= victim_size;
      ++stats.evictions;
      stats.bytes_evicted += victim_size;
    }
  }
  bool erase(FileId id) {
    const auto it = index_.find(id);
    if (it == index_.end()) return false;
    used -= it->second->second;
    order_.erase(it->second);
    index_.erase(it);
    return true;
  }
  void clear() {
    order_.clear();
    index_.clear();
    used = 0;
  }
  [[nodiscard]] std::size_t entries() const { return index_.size(); }

  Bytes used = 0;
  CacheStats stats;

 private:
  Bytes capacity_;
  std::list<std::pair<FileId, Bytes>> order_;  // front = MRU
  std::unordered_map<FileId, std::list<std::pair<FileId, Bytes>>::iterator> index_;
};

// The first `count` ids, scanning upward from `from`, whose home bucket is
// `home` in a 2^bits index. Homes nest, so ids homed at the first or the
// last bucket stay there in every smaller index.
std::vector<FileId> ids_homed_at(std::size_t home, unsigned bits, std::size_t count,
                                 FileId from) {
  std::vector<FileId> ids;
  for (FileId id = from; ids.size() < count; ++id)
    if (LruCache::home_bucket(id, bits) == home) ids.push_back(id);
  return ids;
}

TEST(LruCache, HomeBucketsNest) {
  for (const FileId id : ids_homed_at(0xFFFF, 16, 8, 0))
    for (unsigned bits = 4; bits <= 16; ++bits)
      EXPECT_EQ(LruCache::home_bucket(id, bits), (std::size_t{1} << bits) - 1);
}

TEST(LruCache, MatchesReferenceModelOnRandomOperations) {
  // Id universe: a dense range, sparse 32-bit values (with both extremes),
  // and two groups that share the last and the first home bucket of every
  // index up to 2^16 buckets, so probe chains wrap around the table end
  // and backward shifts cross it, through every growth the cache makes.
  std::vector<FileId> ids;
  for (FileId id = 0; id < 64; ++id) ids.push_back(id);
  Rng rng(20260417);
  ids.push_back(0xFFFFFFFFU);
  ids.push_back(0x80000000U);
  for (int i = 0; i < 62; ++i) ids.push_back(static_cast<FileId>(rng.next_below(1ULL << 32)));
  for (const FileId id : ids_homed_at(0xFFFF, 16, 64, 1U << 20)) ids.push_back(id);
  for (const FileId id : ids_homed_at(0, 16, 64, 1U << 20)) ids.push_back(id);

  constexpr Bytes kCapacity = 4096;
  LruCache cache(kCapacity);
  ReferenceLru ref(kCapacity);
  std::vector<FileId> victims;
  auto draw_size = [&rng]() -> Bytes {
    const auto kind = rng.next_below(16);
    if (kind < 10) return 1 + rng.next_below(16);        // many small files: ~90 residents
    if (kind < 14) return 1 + rng.next_below(256);
    if (kind < 15) return 1 + rng.next_below(kCapacity);  // up to exactly full
    return kCapacity - 8 + rng.next_below(24);            // straddles the limit
  };
  auto same_state = [&](int step) {
    ASSERT_EQ(cache.used(), ref.used) << "step " << step;
    ASSERT_EQ(cache.entries(), ref.entries()) << "step " << step;
    const CacheStats& a = cache.stats();
    ASSERT_EQ(a.hits, ref.stats.hits) << "step " << step;
    ASSERT_EQ(a.misses, ref.stats.misses) << "step " << step;
    ASSERT_EQ(a.insertions, ref.stats.insertions) << "step " << step;
    ASSERT_EQ(a.evictions, ref.stats.evictions) << "step " << step;
    ASSERT_EQ(a.bytes_evicted, ref.stats.bytes_evicted) << "step " << step;
  };

  constexpr int kSteps = 100000;
  for (int step = 0; step < kSteps; ++step) {
    const FileId id = ids[rng.next_below(ids.size())];
    const auto op = rng.next_below(100);
    victims.clear();
    if (op < 40) {
      ASSERT_EQ(cache.lookup(id), ref.lookup(id)) << "step " << step;
    } else if (op < 80) {
      const Bytes size = draw_size();
      cache.insert(id, size);
      ref.insert(id, size, victims);
    } else if (op < 90) {
      ASSERT_EQ(cache.erase(id), ref.erase(id)) << "step " << step;
    } else if (op == 99 && step % 50 == 0) {  // an occasional clear
      cache.clear();
      ref.clear();
    } else {
      ASSERT_EQ(cache.contains(id), ref.contains(id)) << "step " << step;
    }
    ASSERT_EQ(cache.contains(id), ref.contains(id)) << "step " << step;
    for (const FileId v : victims) ASSERT_FALSE(cache.contains(v)) << "step " << step;
    ASSERT_NO_FATAL_FAILURE(same_state(step));
    if (step % 997 == 0) {
      for (const FileId any : ids) ASSERT_EQ(cache.contains(any), ref.contains(any));
    }
  }
  for (const FileId any : ids) ASSERT_EQ(cache.contains(any), ref.contains(any));
}

TEST(CacheStats, RatesAndMerge) {
  CacheStats a;
  a.hits = 3;
  a.misses = 1;
  EXPECT_DOUBLE_EQ(a.hit_rate(), 0.75);
  EXPECT_DOUBLE_EQ(a.miss_rate(), 0.25);
  CacheStats b;
  b.hits = 1;
  b.misses = 3;
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.hit_rate(), 0.5);
  const CacheStats empty;
  EXPECT_DOUBLE_EQ(empty.hit_rate(), 0.0);
  EXPECT_DOUBLE_EQ(empty.miss_rate(), 0.0);
}

}  // namespace
}  // namespace l2s::cache
