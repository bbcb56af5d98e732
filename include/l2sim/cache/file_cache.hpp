// Abstract interface for a node's main-memory file cache. The paper's
// servers cache whole files with LRU replacement; GDSF (GreedyDual-Size
// with Frequency) is provided as an ablation since it is the classic
// alternative for web workloads with highly variable file sizes.
#pragma once

#include <cstdint>

#include "l2sim/cache/cache_stats.hpp"
#include "l2sim/common/units.hpp"

namespace l2s::cache {

using FileId = std::uint32_t;

class FileCache {
 public:
  virtual ~FileCache() = default;

  /// Record an access; returns true on hit. Updates replacement state and
  /// hit/miss statistics.
  virtual bool lookup(FileId id) = 0;

  /// Residency probe without touching stats or replacement state.
  [[nodiscard]] virtual bool contains(FileId id) const = 0;

  /// Make a file of `size` bytes resident, evicting as needed. Files
  /// larger than the whole capacity are not cached; re-inserting a
  /// resident file at such a size drops it, as erase() would.
  virtual void insert(FileId id, Bytes size) = 0;

  /// Remove a file if present; returns true if it was resident.
  virtual bool erase(FileId id) = 0;

  [[nodiscard]] virtual Bytes used() const = 0;
  [[nodiscard]] virtual Bytes capacity() const = 0;
  [[nodiscard]] virtual std::size_t entries() const = 0;

  [[nodiscard]] virtual const CacheStats& stats() const = 0;
  virtual void reset_stats() = 0;
  virtual void clear() = 0;
};

}  // namespace l2s::cache
