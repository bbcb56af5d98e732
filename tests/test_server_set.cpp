#include <gtest/gtest.h>

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

}  // namespace
}  // namespace l2s::policy
