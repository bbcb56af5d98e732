#include "l2sim/cache/lru_cache.hpp"

#include "l2sim/common/error.hpp"

namespace l2s::cache {

LruCache::LruCache(Bytes capacity)
    : capacity_(capacity),
      index_(std::size_t{1} << kMinIndexBits, Bucket{0, kNil}),
      mask_(index_.size() - 1) {
  L2S_REQUIRE(capacity > 0);
}

std::size_t LruCache::probe(FileId id) const {
  std::size_t b = home_bucket(id, index_bits_);
  while (index_[b].slot != kNil && index_[b].id != id) b = (b + 1) & mask_;
  return b;
}

void LruCache::index_erase(std::size_t bucket) {
  // Backward-shift deletion: walk the run after the hole and pull back
  // every entry whose home does not lie cyclically in (hole, j], so each
  // remaining id stays reachable from its home without tombstones.
  std::size_t hole = bucket;
  for (std::size_t j = (hole + 1) & mask_; index_[j].slot != kNil; j = (j + 1) & mask_) {
    const std::size_t home = home_bucket(index_[j].id, index_bits_);
    if (((j - home) & mask_) >= ((j - hole) & mask_)) {
      index_[hole] = index_[j];
      hole = j;
    }
  }
  index_[hole].slot = kNil;
}

void LruCache::grow_index() {
  std::vector<Bucket> old(index_.size() * 2, Bucket{0, kNil});
  old.swap(index_);
  ++index_bits_;
  mask_ = index_.size() - 1;
  for (const Bucket& b : old)
    if (b.slot != kNil) index_[probe(b.id)] = b;
}

void LruCache::unlink(std::uint32_t slot) {
  const Record& r = pool_[slot];
  if (r.prev != kNil) pool_[r.prev].next = r.next; else head_ = r.next;
  if (r.next != kNil) pool_[r.next].prev = r.prev; else tail_ = r.prev;
}

void LruCache::push_front(std::uint32_t slot) {
  Record& r = pool_[slot];
  r.prev = kNil;
  r.next = head_;
  if (head_ != kNil) pool_[head_].prev = slot; else tail_ = slot;
  head_ = slot;
}

void LruCache::move_to_front(std::uint32_t slot) {
  if (slot == head_) return;
  unlink(slot);
  push_front(slot);
}

void LruCache::drop(std::size_t bucket) {
  const std::uint32_t slot = index_[bucket].slot;
  unlink(slot);
  used_ -= pool_[slot].size;
  pool_[slot].next = free_;
  free_ = slot;
  index_erase(bucket);
  --entries_;
}

bool LruCache::lookup(FileId id) {
  const std::uint32_t slot = index_[probe(id)].slot;
  if (slot == kNil) {
    ++stats_.misses;
    return false;
  }
  move_to_front(slot);
  ++stats_.hits;
  return true;
}

bool LruCache::contains(FileId id) const { return index_[probe(id)].slot != kNil; }

void LruCache::evict_one() {
  L2S_REQUIRE(tail_ != kNil);
  const Bytes size = pool_[tail_].size;
  const std::size_t bucket = probe(pool_[tail_].id);
  L2S_REQUIRE(index_[bucket].slot == tail_);
  drop(bucket);
  ++stats_.evictions;
  stats_.bytes_evicted += size;
}

void LruCache::insert(FileId id, Bytes size) {
  std::size_t bucket = probe(id);
  std::uint32_t slot = index_[bucket].slot;
  if (size > capacity_) {
    // Cannot ever fit: serve from disk each time, and drop a stale copy.
    if (slot != kNil) drop(bucket);
    return;
  }
  if (slot != kNil) {
    // Refresh: update size in place (sizes are stable in practice, but the
    // trace format permits re-stat) and move to MRU.
    used_ = used_ - pool_[slot].size + size;
    pool_[slot].size = size;
    move_to_front(slot);
  } else {
    if ((entries_ + 1) * 2 > index_.size()) {
      grow_index();
      bucket = probe(id);
    }
    if (free_ != kNil) {
      slot = free_;
      free_ = pool_[slot].next;
    } else {
      L2S_REQUIRE(pool_.size() < kNil);
      slot = static_cast<std::uint32_t>(pool_.size());
      pool_.emplace_back();
    }
    pool_[slot].size = size;
    pool_[slot].id = id;
    push_front(slot);
    index_[bucket] = Bucket{id, slot};
    used_ += size;
    ++entries_;
    ++stats_.insertions;
  }
  while (used_ > capacity_) evict_one();
}

bool LruCache::erase(FileId id) {
  const std::size_t bucket = probe(id);
  if (index_[bucket].slot == kNil) return false;
  drop(bucket);
  return true;
}

void LruCache::clear() {
  pool_.clear();
  free_ = head_ = tail_ = kNil;
  for (Bucket& b : index_) b.slot = kNil;
  used_ = 0;
  entries_ = 0;
}

}  // namespace l2s::cache
