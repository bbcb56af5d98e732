// Per-file server sets: the nodes believed to cache each file, plus the
// time of the last membership change (both LARD's front-end table and each
// L2S node's replicated copy use this structure).
//
// File ids are dense (storage::FileSet hands them out from 0), so entries
// live in a table indexed by id that grows on the first add/replace of a
// higher id. An entry's member vector keeps its capacity across updates:
// applying a received broadcast copies into it and does not allocate once
// the set has been that large before.
#pragma once

#include <cstddef>
#include <vector>

#include "l2sim/common/units.hpp"
#include "l2sim/storage/file_set.hpp"

namespace l2s::policy {

class ServerSetMap {
 public:
  /// Members for a file; empty vector if the file was never assigned.
  [[nodiscard]] const std::vector<int>& members(storage::FileId file) const;

  [[nodiscard]] bool contains(storage::FileId file, int node) const;

  /// Add `node` to the file's set (no-op if present). Records `now`.
  void add(storage::FileId file, int node, SimTime now);

  /// Remove `node` (no-op if absent). Records `now` if removed.
  void remove(storage::FileId file, int node, SimTime now);

  /// Replace the whole membership (applying a received broadcast). `nodes`
  /// is copied; the caller's vector is left as it was.
  void replace(storage::FileId file, const std::vector<int>& nodes, SimTime now);

  [[nodiscard]] SimTime last_modified(storage::FileId file) const;

  /// Files ever added to or replaced (a set emptied by remove still counts).
  [[nodiscard]] std::size_t tracked_files() const { return tracked_; }

  /// Total membership entries (replication degree x files).
  [[nodiscard]] std::size_t total_members() const;

  void clear() {
    entries_.clear();
    tracked_ = 0;
  }

 private:
  struct Entry {
    std::vector<int> nodes;
    SimTime modified = 0;
    bool tracked = false;
  };
  /// The entry for `file`, created (and counted as tracked) on first use.
  Entry& touch(storage::FileId file);
  [[nodiscard]] const Entry* find(storage::FileId file) const {
    return file < entries_.size() ? &entries_[file] : nullptr;
  }

  std::vector<Entry> entries_;
  std::size_t tracked_ = 0;
  static const std::vector<int> kEmpty;
};

}  // namespace l2s::policy
