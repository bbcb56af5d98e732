#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "l2sim/common/error.hpp"
#include "l2sim/common/rng.hpp"
#include "l2sim/policy/server_set.hpp"

namespace l2s::policy {
namespace {

TEST(ServerSetMap, EmptyForUnknownFile) {
  const ServerSetMap m;
  EXPECT_TRUE(m.members(42).empty());
  EXPECT_FALSE(m.contains(42, 0));
  EXPECT_EQ(m.last_modified(42), 0);
}

TEST(ServerSetMap, AddAndContains) {
  ServerSetMap m;
  m.add(1, 3, 100);
  m.add(1, 5, 200);
  EXPECT_TRUE(m.contains(1, 3));
  EXPECT_TRUE(m.contains(1, 5));
  EXPECT_FALSE(m.contains(1, 4));
  EXPECT_EQ(m.members(1).size(), 2u);
  EXPECT_EQ(m.last_modified(1), 200);
}

TEST(ServerSetMap, AddDuplicateIsNoOp) {
  ServerSetMap m;
  m.add(1, 3, 100);
  m.add(1, 3, 500);
  EXPECT_EQ(m.members(1).size(), 1u);
  EXPECT_EQ(m.last_modified(1), 100);  // unchanged: no modification occurred
}

TEST(ServerSetMap, RemoveUpdatesTimestamp) {
  ServerSetMap m;
  m.add(1, 3, 100);
  m.add(1, 4, 100);
  m.remove(1, 3, 300);
  EXPECT_FALSE(m.contains(1, 3));
  EXPECT_EQ(m.last_modified(1), 300);
  // Removing an absent member changes nothing.
  m.remove(1, 9, 999);
  EXPECT_EQ(m.last_modified(1), 300);
  m.remove(77, 0, 999);  // unknown file: no-op
}

TEST(ServerSetMap, ReplaceAdoptsMembership) {
  ServerSetMap m;
  m.add(1, 0, 10);
  m.replace(1, {4, 5, 6}, 50);
  EXPECT_EQ(m.members(1), (std::vector<int>{4, 5, 6}));
  EXPECT_EQ(m.last_modified(1), 50);
  // Replace can also create a set for a new file.
  m.replace(2, {7}, 60);
  EXPECT_TRUE(m.contains(2, 7));
}

TEST(ServerSetMap, CountsFilesAndMembers) {
  ServerSetMap m;
  m.add(1, 0, 0);
  m.add(1, 1, 0);
  m.add(2, 0, 0);
  EXPECT_EQ(m.tracked_files(), 2u);
  EXPECT_EQ(m.total_members(), 3u);
  m.clear();
  EXPECT_EQ(m.tracked_files(), 0u);
}

TEST(ServerSetMap, FileBeyondTableReadsAsUnassigned) {
  ServerSetMap m;
  m.add(3, 1, 10);
  EXPECT_TRUE(m.members(1000).empty());
  EXPECT_FALSE(m.contains(1000, 1));
  EXPECT_EQ(m.last_modified(1000), 0);
  // An id inside the table that was never assigned reads the same way.
  EXPECT_TRUE(m.members(2).empty());
  EXPECT_EQ(m.last_modified(2), 0);
  EXPECT_EQ(m.tracked_files(), 1u);
}

TEST(ServerSetMap, RemoveOnUntrackedFileIsNoOp) {
  ServerSetMap m;
  m.remove(5, 0, 100);  // beyond the table
  m.add(9, 0, 10);
  m.remove(5, 0, 100);  // inside the table, never assigned
  EXPECT_EQ(m.tracked_files(), 1u);
  EXPECT_EQ(m.total_members(), 1u);
  EXPECT_EQ(m.last_modified(5), 0);
}

TEST(ServerSetMap, SetEmptiedByRemoveStaysTracked) {
  ServerSetMap m;
  m.add(4, 2, 10);
  m.remove(4, 2, 20);
  EXPECT_TRUE(m.members(4).empty());
  EXPECT_EQ(m.last_modified(4), 20);
  EXPECT_EQ(m.tracked_files(), 1u);
  EXPECT_EQ(m.total_members(), 0u);
}

TEST(ServerSetMap, ClearResetsBothCounts) {
  ServerSetMap m;
  m.add(1, 0, 0);
  m.replace(7, {1, 2}, 5);
  ASSERT_EQ(m.tracked_files(), 2u);
  ASSERT_EQ(m.total_members(), 3u);
  m.clear();
  EXPECT_EQ(m.tracked_files(), 0u);
  EXPECT_EQ(m.total_members(), 0u);
  EXPECT_TRUE(m.members(7).empty());
  EXPECT_EQ(m.last_modified(7), 0);
}

TEST(ServerSetMap, ReplaceCopiesAndKeepsMemberOrder) {
  ServerSetMap m;
  const std::vector<int> nodes{3, 1, 2};
  m.replace(6, nodes, 40);
  EXPECT_EQ(nodes, (std::vector<int>{3, 1, 2}));  // the caller's copy is untouched
  EXPECT_EQ(m.members(6), nodes);
  m.replace(6, std::vector<int>{5}, 50);
  EXPECT_EQ(m.members(6), (std::vector<int>{5}));
  EXPECT_EQ(nodes, (std::vector<int>{3, 1, 2}));
  EXPECT_EQ(m.tracked_files(), 1u);
}

TEST(ServerSetMap, AdoptSharesTheRecord) {
  const auto pool = std::make_shared<ServerSetPool>();
  ServerSetMap a(pool);
  ServerSetMap b(pool);
  a.add(3, 1, 10);
  a.add(3, 4, 20);
  b.adopt(3, a.share(3), 30);
  EXPECT_EQ(&b.members(3), &a.members(3));
  EXPECT_EQ(b.members(3), (std::vector<int>{1, 4}));
  EXPECT_EQ(b.last_modified(3), 30);
  EXPECT_EQ(a.last_modified(3), 20);
  EXPECT_EQ(b.tracked_files(), 1u);
  EXPECT_EQ(pool->live_records(), 2u);  // {1, 4} and the empty set
  // Adopting an untracked file's snapshot tracks an empty set.
  b.adopt(8, a.share(8), 40);
  EXPECT_TRUE(b.members(8).empty());
  EXPECT_EQ(b.tracked_files(), 2u);
  EXPECT_EQ(b.last_modified(8), 40);
}

TEST(ServerSetMap, AdoptRejectsForeignPool) {
  ServerSetMap a;
  ServerSetMap b;
  a.add(1, 0, 0);
  EXPECT_THROW(b.adopt(1, a.share(1), 5), l2s::Error);
}

TEST(ServerSetMap, SourceEditedAfterPeerAdoptedLeavesPeerUnchanged) {
  const auto pool = std::make_shared<ServerSetPool>();
  ServerSetMap source(pool);
  ServerSetMap peer(pool);
  source.add(2, 5, 10);
  source.add(2, 6, 10);
  peer.adopt(2, source.share(2), 20);
  const SharedSet in_flight = source.share(2);

  source.add(2, 7, 30);
  source.remove(2, 5, 40);
  EXPECT_EQ(source.members(2), (std::vector<int>{6, 7}));
  EXPECT_EQ(peer.members(2), (std::vector<int>{5, 6}));
  EXPECT_EQ(in_flight.members(), (std::vector<int>{5, 6}));
  EXPECT_NE(&source.members(2), &peer.members(2));
  EXPECT_EQ(&in_flight.members(), &peer.members(2));
  EXPECT_EQ(peer.last_modified(2), 20);

  // And the other way round: the peer's own edit leaves the source alone.
  peer.add(2, 9, 50);
  EXPECT_EQ(peer.members(2), (std::vector<int>{5, 6, 9}));
  EXPECT_EQ(source.members(2), (std::vector<int>{6, 7}));
  EXPECT_EQ(in_flight.members(), (std::vector<int>{5, 6}));
}

TEST(ServerSetMap, MembersReferenceSurvivesAdd) {
  const auto pool = std::make_shared<ServerSetPool>();
  ServerSetMap a(pool);
  ServerSetMap b(pool);
  // Shared record: add() edits a clone, and the reference keeps reading
  // the membership the other holder still has.
  a.add(1, 3, 10);
  b.adopt(1, a.share(1), 20);
  const std::vector<int>& shared = a.members(1);
  a.add(1, 4, 30);
  // Grow the pool well past its first blocks; records must not move.
  for (storage::FileId f = 100; f < 2100; ++f) {
    a.add(f, 0, 40);
    b.adopt(f, a.share(f), 40);
    a.add(f, 1, 50);
  }
  EXPECT_EQ(shared, (std::vector<int>{3}));
  EXPECT_EQ(&shared, &b.members(1));
  EXPECT_EQ(a.members(1), (std::vector<int>{3, 4}));

  // Sole holder: add() edits in place, and the reference sees the change.
  a.add(7, 2, 60);
  const std::vector<int>& own = a.members(7);
  a.add(7, 5, 70);
  EXPECT_EQ(&own, &a.members(7));
  EXPECT_EQ(own, (std::vector<int>{2, 5}));
}

TEST(ServerSetMap, RecordsAreFreedByTheirLastHolder) {
  const auto pool = std::make_shared<ServerSetPool>();
  {
    ServerSetMap a(pool);
    ServerSetMap b(pool);
    for (storage::FileId f = 0; f < 50; ++f) {
      a.add(f, 1, 0);
      b.adopt(f, a.share(f), 0);
    }
    EXPECT_EQ(pool->live_records(), 51u);  // one per file, plus the empty set
    a.clear();
    EXPECT_EQ(pool->live_records(), 51u);  // b still holds them
    b.add(0, 2, 0);                        // b's sole record: in place
    EXPECT_EQ(pool->live_records(), 51u);
  }
  EXPECT_EQ(pool->live_records(), 1u);
}

// The map as it was before records were pooled: one member vector per
// entry, copied on every replace. The differential test below holds
// ServerSetMap to it operation by operation.
class ReferenceServerSetMap {
 public:
  [[nodiscard]] const std::vector<int>& members(storage::FileId file) const {
    return file < entries_.size() ? entries_[file].nodes : kEmpty;
  }
  [[nodiscard]] bool contains(storage::FileId file, int node) const {
    const auto& m = members(file);
    return std::find(m.begin(), m.end(), node) != m.end();
  }
  void add(storage::FileId file, int node, SimTime now) {
    Entry& entry = touch(file);
    if (std::find(entry.nodes.begin(), entry.nodes.end(), node) != entry.nodes.end()) return;
    entry.nodes.push_back(node);
    entry.modified = now;
  }
  void remove(storage::FileId file, int node, SimTime now) {
    if (file >= entries_.size()) return;
    Entry& entry = entries_[file];
    const auto pos = std::find(entry.nodes.begin(), entry.nodes.end(), node);
    if (pos == entry.nodes.end()) return;
    entry.nodes.erase(pos);
    entry.modified = now;
  }
  void replace(storage::FileId file, const std::vector<int>& nodes, SimTime now) {
    Entry& entry = touch(file);
    entry.nodes = nodes;
    entry.modified = now;
  }
  [[nodiscard]] SimTime last_modified(storage::FileId file) const {
    return file < entries_.size() ? entries_[file].modified : 0;
  }
  [[nodiscard]] std::size_t tracked_files() const { return tracked_; }
  [[nodiscard]] std::size_t total_members() const {
    std::size_t total = 0;
    for (const Entry& entry : entries_) total += entry.nodes.size();
    return total;
  }
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
  Entry& touch(storage::FileId file) {
    if (file >= entries_.size()) entries_.resize(std::size_t{file} + 1);
    Entry& entry = entries_[file];
    if (!entry.tracked) {
      entry.tracked = true;
      ++tracked_;
    }
    return entry;
  }

  std::vector<Entry> entries_;
  std::size_t tracked_ = 0;
  static inline const std::vector<int> kEmpty{};
};

TEST(ServerSetMap, MatchesReferenceModelOnRandomOperations) {
  constexpr std::size_t kMaps = 3;
  constexpr storage::FileId kFiles = 40;  // ids at and past the largest used
  constexpr int kNodes = 6;
  const auto pool = std::make_shared<ServerSetPool>();
  std::vector<std::unique_ptr<ServerSetMap>> maps;
  std::array<ReferenceServerSetMap, kMaps> ref;
  for (std::size_t i = 0; i < kMaps; ++i) maps.push_back(std::make_unique<ServerSetMap>(pool));

  // Snapshots "in flight": shared by one map, adopted by another later,
  // after the source may have edited the set again.
  struct Snapshot {
    SharedSet set;
    std::vector<int> expected;
    storage::FileId file;
  };
  std::vector<std::unique_ptr<Snapshot>> in_flight;

  Rng rng(20261018);
  auto draw_file = [&rng] {
    // Mostly a small hot range, so sets grow and get shared; sometimes a
    // higher id, so the tables grow mid-run.
    return static_cast<storage::FileId>(rng.next_below(8) < 7 ? rng.next_below(12)
                                                              : rng.next_below(kFiles - 4));
  };
  auto draw_nodes = [&rng] {
    std::vector<int> nodes;
    for (int n = 0; n < kNodes; ++n)
      if (rng.next_below(3) == 0) nodes.push_back(n);
    for (std::size_t i = nodes.size(); i > 1; --i)
      std::swap(nodes[i - 1], nodes[rng.next_below(i)]);
    return nodes;
  };
  auto same_state = [&](int step) {
    for (std::size_t i = 0; i < kMaps; ++i) {
      const ServerSetMap& m = *maps[i];
      ASSERT_EQ(m.tracked_files(), ref[i].tracked_files()) << "step " << step << " map " << i;
      ASSERT_EQ(m.total_members(), ref[i].total_members()) << "step " << step << " map " << i;
      for (storage::FileId f = 0; f < kFiles; ++f) {
        ASSERT_EQ(m.members(f), ref[i].members(f)) << "step " << step << " map " << i;
        ASSERT_EQ(m.last_modified(f), ref[i].last_modified(f)) << "step " << step;
        for (int n = 0; n < kNodes; ++n)
          ASSERT_EQ(m.contains(f, n), ref[i].contains(f, n)) << "step " << step;
      }
    }
    for (const auto& s : in_flight) ASSERT_EQ(s->set.members(), s->expected) << "step " << step;
  };

  constexpr int kSteps = 20000;
  for (int step = 0; step < kSteps; ++step) {
    const auto i = static_cast<std::size_t>(rng.next_below(kMaps));
    const storage::FileId file = draw_file();
    const int node = static_cast<int>(rng.next_below(kNodes));
    const SimTime now = step;
    const auto op = rng.next_below(100);
    if (op < 30) {
      maps[i]->add(file, node, now);
      ref[i].add(file, node, now);
    } else if (op < 50) {
      maps[i]->remove(file, node, now);
      ref[i].remove(file, node, now);
    } else if (op < 58) {
      const std::vector<int> nodes = draw_nodes();
      maps[i]->replace(file, nodes, now);
      ref[i].replace(file, nodes, now);
    } else if (op < 72) {
      // Adopt another map's current membership straight away.
      const auto j = static_cast<std::size_t>(rng.next_below(kMaps));
      maps[i]->adopt(file, maps[j]->share(file), now);
      ref[i].replace(file, ref[j].members(file), now);
      if (i != j) {
        ASSERT_EQ(&maps[i]->members(file), &maps[j]->members(file)) << "step " << step;
      }
    } else if (op < 84) {
      if (in_flight.size() < 6) {
        in_flight.push_back(
            std::make_unique<Snapshot>(Snapshot{maps[i]->share(file), ref[i].members(file), file}));
      }
    } else if (op < 99) {
      if (!in_flight.empty()) {
        // Deliver one in-flight snapshot (in any order) to this map.
        const auto k = static_cast<std::size_t>(rng.next_below(in_flight.size()));
        const Snapshot& s = *in_flight[k];
        maps[i]->adopt(s.file, s.set, now);
        ref[i].replace(s.file, s.expected, now);
        if (rng.next_below(2) == 0) {
          in_flight.erase(in_flight.begin() + static_cast<std::ptrdiff_t>(k));
        }
      }
    } else if (step % 10 == 0) {  // an occasional clear
      maps[i]->clear();
      ref[i].clear();
    }
    ASSERT_NO_FATAL_FAILURE(same_state(step));
  }

  // Every hold accounted for: once the snapshots and maps let go, only
  // the empty set is left.
  in_flight.clear();
  maps.clear();
  EXPECT_EQ(pool->live_records(), 1u);
}

}  // namespace
}  // namespace l2s::policy
