// Byte-capacity LRU cache of whole files — the model of a node's main
// memory used as file cache. The paper's servers cache entire files; an
// access either hits (file fully resident) or misses (file read from disk
// and inserted, evicting least-recently-used files until it fits).
//
// Layout: no per-entry heap node. Resident files live in a pool of
// {size, id, prev, next} records linked by uint32_t slot numbers into the
// recency list (head_ = MRU, tail_ = LRU); freed records go on a free list
// threaded through `next`. An open-addressed index of {id, slot} buckets
// finds a file's record: power-of-two size, load kept at most 1/2, linear
// probing from a multiplicative home bucket, and backward-shift deletion,
// so no tombstones build up. A lookup is one short probe plus O(1) relinks.
//
// Memory follows the peak number of resident entries, never the FileId
// range: a 24-B pool record per entry plus 2-4 8-B index buckets per entry
// (the table doubles when an insert would take it past half full). Both
// arrays keep their peak size across clear().
#pragma once

#include <cstdint>
#include <vector>

#include "l2sim/cache/file_cache.hpp"

namespace l2s::cache {

class LruCache final : public FileCache {
 public:
  explicit LruCache(Bytes capacity);

  /// Record an access: on hit the file moves to MRU position and stats
  /// count a hit; on miss stats count a miss (caller fetches from disk and
  /// calls insert()). Returns true on hit.
  bool lookup(FileId id) override;

  /// Residency probe without touching stats or recency.
  [[nodiscard]] bool contains(FileId id) const override;

  /// Insert (or refresh) a file of `size` bytes, evicting LRU entries
  /// until it fits. Files larger than the whole capacity are not cached;
  /// a resident copy of such a file is dropped as by erase().
  void insert(FileId id, Bytes size) override;

  /// Remove a file if present; returns true if it was resident.
  bool erase(FileId id) override;

  [[nodiscard]] Bytes used() const override { return used_; }
  [[nodiscard]] Bytes capacity() const override { return capacity_; }
  [[nodiscard]] std::size_t entries() const override { return entries_; }

  [[nodiscard]] const CacheStats& stats() const override { return stats_; }
  void reset_stats() override { stats_.reset(); }

  /// Drop all contents (not stats).
  void clear() override;

  /// Index bucket an id probes first in a table of 2^bits buckets. Homes
  /// nest: an id homed at the last (or first) bucket of a 2^b table is
  /// homed there in every smaller table too. Exposed for tests.
  [[nodiscard]] static std::size_t home_bucket(FileId id, unsigned bits) {
    return static_cast<std::size_t>((id * kHashMul) >> (32U - bits));
  }

 private:
  static constexpr std::uint32_t kNil = UINT32_MAX;
  static constexpr std::uint32_t kHashMul = 0x9E3779B1U;  // 2^32 / golden ratio, odd
  static constexpr unsigned kMinIndexBits = 4;

  struct Record {
    Bytes size;
    FileId id;
    std::uint32_t prev;  ///< towards MRU; kNil at head_
    std::uint32_t next;  ///< towards LRU; kNil at tail_ (free-list link when free)
  };
  struct Bucket {
    FileId id;
    std::uint32_t slot;  ///< kNil = empty bucket
  };

  /// Bucket holding `id`, or the empty bucket that ends its probe chain.
  [[nodiscard]] std::size_t probe(FileId id) const;
  void index_erase(std::size_t bucket);
  void grow_index();

  void unlink(std::uint32_t slot);
  void push_front(std::uint32_t slot);
  void move_to_front(std::uint32_t slot);
  /// Unlink `slot`, free its record and its bucket, and subtract its bytes.
  void drop(std::size_t bucket);
  void evict_one();

  Bytes capacity_;
  Bytes used_ = 0;
  std::size_t entries_ = 0;
  std::vector<Record> pool_;
  std::uint32_t free_ = kNil;
  std::uint32_t head_ = kNil;  // MRU
  std::uint32_t tail_ = kNil;  // LRU
  std::vector<Bucket> index_;
  unsigned index_bits_ = kMinIndexBits;
  std::size_t mask_ = 0;
  CacheStats stats_;
};

}  // namespace l2s::cache
