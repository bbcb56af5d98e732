// Per-file server sets: the nodes believed to cache each file, plus the
// time of the last membership change (both LARD's front-end table and each
// L2S node's replicated copy use this structure).
//
// A membership lives in a ServerSetPool as a reference-counted record. A
// map entry is a 4-byte record handle plus its own 8-byte modified time,
// kept in two arrays indexed by the dense FileId (storage::FileSet hands
// ids out from 0); the arrays grow on the first write to a higher id.
// Replicas of one pool that hold the same membership share its record:
// share() takes a hold on the entry's record, and adopt() points another
// entry at it, so applying a received broadcast copies and allocates
// nothing. add/remove are copy-on-write: an entry that is its record's only
// holder edits it in place, otherwise it edits a fresh clone and the other
// holders keep the old membership. Member order is insertion order, as a
// plain vector would keep it.
//
// Records sit in fixed pages of 256 that never move, so a members()
// reference stays valid across add/remove/replace on any map of the pool.
// A record freed by its last holder goes to a free list; the next clone
// overwrites its vector and reuses the capacity. A map built without a
// pool gets a private one (LARD's single table); its records are never
// shared, so every edit is in place.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "l2sim/common/units.hpp"
#include "l2sim/storage/file_set.hpp"

namespace l2s::policy {

/// The membership records behind one or more ServerSetMaps.
class ServerSetPool {
 public:
  ServerSetPool();

  /// Records in use (the empty set included).
  [[nodiscard]] std::size_t live_records() const { return refs_.size() - free_.size(); }

 private:
  friend class ServerSetMap;
  friend class SharedSet;

  using Handle = std::uint32_t;
  /// Record 0 is the empty set. The pool holds it, so it is never freed.
  static constexpr Handle kEmptySet = 0;

  /// Records live in fixed pages, so a record never moves as the pool grows.
  static constexpr Handle kPageSize = 256;
  using Page = std::array<std::vector<int>, kPageSize>;

  [[nodiscard]] const std::vector<int>& members(Handle h) const {
    return (*pages_[h / kPageSize])[h % kPageSize];
  }
  [[nodiscard]] std::vector<int>& edit(Handle h) { return (*pages_[h / kPageSize])[h % kPageSize]; }
  [[nodiscard]] std::uint32_t holders(Handle h) const { return refs_[h]; }
  /// A new record holding a copy of `nodes`, with one holder.
  Handle create(const std::vector<int>& nodes);
  void ref(Handle h) { ++refs_[h]; }
  void unref(Handle h);

  std::vector<std::unique_ptr<Page>> pages_;
  std::vector<std::uint32_t> refs_;  ///< holders per record; its size counts records ever created
  std::vector<Handle> free_;
};

/// One hold on a pool record: the membership a locality broadcast carries.
/// The hold keeps the pool alive, so a broadcast still in flight may
/// outlive the maps (and the policy) that made it.
class SharedSet {
 public:
  SharedSet(SharedSet&&) noexcept = default;
  SharedSet(const SharedSet&) = delete;
  SharedSet& operator=(const SharedSet&) = delete;
  SharedSet& operator=(SharedSet&&) = delete;
  ~SharedSet() {
    if (pool_ != nullptr) pool_->unref(handle_);
  }

  [[nodiscard]] const std::vector<int>& members() const { return pool_->members(handle_); }

 private:
  friend class ServerSetMap;
  SharedSet(std::shared_ptr<ServerSetPool> pool, ServerSetPool::Handle h);

  std::shared_ptr<ServerSetPool> pool_;
  ServerSetPool::Handle handle_;
};

class ServerSetMap {
 public:
  /// A map with a private pool.
  ServerSetMap();
  /// A replica whose records live in `pool`, shared with other replicas.
  explicit ServerSetMap(std::shared_ptr<ServerSetPool> pool);
  ~ServerSetMap() { clear(); }

  ServerSetMap(const ServerSetMap&) = delete;
  ServerSetMap& operator=(const ServerSetMap&) = delete;

  /// Members for a file; empty if the file was never assigned. Entries of
  /// the same pool that share a record return the same vector.
  [[nodiscard]] const std::vector<int>& members(storage::FileId file) const {
    return pool_->members(held(file));
  }

  [[nodiscard]] bool contains(storage::FileId file, int node) const;

  /// Add `node` to the file's set (no-op if present). Records `now`.
  void add(storage::FileId file, int node, SimTime now);

  /// Remove `node` (no-op if absent). Records `now` if removed.
  void remove(storage::FileId file, int node, SimTime now);

  /// Replace the whole membership with a copy of `nodes`.
  void replace(storage::FileId file, const std::vector<int>& nodes, SimTime now);

  /// A hold on the file's current membership, to ship to other replicas.
  [[nodiscard]] SharedSet share(storage::FileId file) const {
    return SharedSet(pool_, held(file));
  }

  /// Take `set` as the file's membership (applying a received broadcast).
  /// The entry then shares the record; nothing is copied. `set` must come
  /// from a map of the same pool.
  void adopt(storage::FileId file, const SharedSet& set, SimTime now);

  [[nodiscard]] SimTime last_modified(storage::FileId file) const {
    return file < modified_.size() ? modified_[file] : 0;
  }

  /// Files ever added to, replaced or adopted (a set emptied by remove
  /// still counts).
  [[nodiscard]] std::size_t tracked_files() const { return tracked_; }

  /// Total membership entries (replication degree x files).
  [[nodiscard]] std::size_t total_members() const;

  void clear();

 private:
  using Handle = ServerSetPool::Handle;
  static constexpr Handle kUntracked = UINT32_MAX;

  /// The record `file` reads from: the empty set if it is not tracked.
  [[nodiscard]] Handle held(storage::FileId file) const {
    return file < handles_.size() && handles_[file] != kUntracked ? handles_[file]
                                                                  : ServerSetPool::kEmptySet;
  }
  /// The entry's handle, tracked (holding the empty set) from first use.
  Handle& touch(storage::FileId file);
  /// The file's membership, made the entry's own record first if shared.
  std::vector<int>& writable(storage::FileId file);

  std::shared_ptr<ServerSetPool> pool_;
  std::vector<Handle> handles_;
  std::vector<SimTime> modified_;
  std::size_t tracked_ = 0;
};

}  // namespace l2s::policy
