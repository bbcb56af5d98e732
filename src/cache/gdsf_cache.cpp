#include "l2sim/cache/gdsf_cache.hpp"

#include "l2sim/common/error.hpp"

namespace l2s::cache {

GdsfCache::GdsfCache(Bytes capacity) : capacity_(capacity) {
  L2S_REQUIRE(capacity > 0);
}

double GdsfCache::priority_of(double frequency, Bytes size) const {
  // Uniform miss cost; size measured in KB so priorities stay in a sane
  // numeric range for typical web files.
  return floor_ + frequency / std::max(bytes_to_kib(size), 1e-3);
}

void GdsfCache::reprioritize(FileId id, Entry& entry) {
  by_priority_.erase(entry.by_priority);
  entry.by_priority = by_priority_.emplace(priority_of(entry.frequency, entry.size), id);
}

bool GdsfCache::lookup(FileId id) {
  const auto it = index_.find(id);
  if (it == index_.end()) {
    ++stats_.misses;
    return false;
  }
  it->second.frequency += 1.0;
  reprioritize(id, it->second);
  ++stats_.hits;
  return true;
}

bool GdsfCache::contains(FileId id) const { return index_.contains(id); }

void GdsfCache::evict_one() {
  L2S_REQUIRE(!by_priority_.empty());
  const auto victim = by_priority_.begin();
  // The aging floor rises to the evicted priority: long-resident files
  // decay relative to fresh insertions.
  floor_ = victim->first;
  const FileId id = victim->second;
  const auto it = index_.find(id);
  L2S_REQUIRE(it != index_.end());
  used_ -= it->second.size;
  ++stats_.evictions;
  stats_.bytes_evicted += it->second.size;
  by_priority_.erase(victim);
  index_.erase(it);
}

void GdsfCache::insert(FileId id, Bytes size) {
  if (size > capacity_) {
    // Cannot ever fit: serve from disk each time, and drop a stale copy.
    erase(id);
    return;
  }
  const auto it = index_.find(id);
  if (it != index_.end()) {
    used_ -= it->second.size;
    it->second.size = size;
    used_ += size;
    reprioritize(id, it->second);
  } else {
    Entry entry{size, 1.0, {}};
    entry.by_priority = by_priority_.emplace(priority_of(1.0, size), id);
    index_.emplace(id, entry);
    used_ += size;
    ++stats_.insertions;
  }
  while (used_ > capacity_) evict_one();
}

bool GdsfCache::erase(FileId id) {
  const auto it = index_.find(id);
  if (it == index_.end()) return false;
  used_ -= it->second.size;
  by_priority_.erase(it->second.by_priority);
  index_.erase(it);
  return true;
}

void GdsfCache::clear() {
  index_.clear();
  by_priority_.clear();
  used_ = 0;
  floor_ = 0.0;
}

}  // namespace l2s::cache
