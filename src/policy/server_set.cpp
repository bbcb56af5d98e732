#include "l2sim/policy/server_set.hpp"

#include <algorithm>

namespace l2s::policy {

const std::vector<int> ServerSetMap::kEmpty{};

ServerSetMap::Entry& ServerSetMap::touch(storage::FileId file) {
  if (file >= entries_.size()) entries_.resize(std::size_t{file} + 1);
  Entry& entry = entries_[file];
  if (!entry.tracked) {
    entry.tracked = true;
    ++tracked_;
  }
  return entry;
}

const std::vector<int>& ServerSetMap::members(storage::FileId file) const {
  const Entry* entry = find(file);
  return entry == nullptr ? kEmpty : entry->nodes;
}

bool ServerSetMap::contains(storage::FileId file, int node) const {
  const auto& m = members(file);
  return std::find(m.begin(), m.end(), node) != m.end();
}

void ServerSetMap::add(storage::FileId file, int node, SimTime now) {
  Entry& entry = touch(file);
  if (std::find(entry.nodes.begin(), entry.nodes.end(), node) != entry.nodes.end()) return;
  entry.nodes.push_back(node);
  entry.modified = now;
}

void ServerSetMap::remove(storage::FileId file, int node, SimTime now) {
  if (file >= entries_.size()) return;
  Entry& entry = entries_[file];
  const auto pos = std::find(entry.nodes.begin(), entry.nodes.end(), node);
  if (pos == entry.nodes.end()) return;
  entry.nodes.erase(pos);
  entry.modified = now;
}

void ServerSetMap::replace(storage::FileId file, const std::vector<int>& nodes, SimTime now) {
  Entry& entry = touch(file);
  entry.nodes = nodes;
  entry.modified = now;
}

SimTime ServerSetMap::last_modified(storage::FileId file) const {
  const Entry* entry = find(file);
  return entry == nullptr ? 0 : entry->modified;
}

std::size_t ServerSetMap::total_members() const {
  std::size_t total = 0;
  for (const Entry& entry : entries_) total += entry.nodes.size();
  return total;
}

}  // namespace l2s::policy
