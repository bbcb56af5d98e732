#include "l2sim/policy/server_set.hpp"

#include <algorithm>
#include <utility>

#include "l2sim/common/error.hpp"

namespace l2s::policy {

ServerSetPool::ServerSetPool() {
  create({});  // record 0, kEmptySet: its one holder is the pool itself
}

ServerSetPool::Handle ServerSetPool::create(const std::vector<int>& nodes) {
  Handle h;
  if (free_.empty()) {
    L2S_REQUIRE(refs_.size() < UINT32_MAX);
    h = static_cast<Handle>(refs_.size());
    if (h % kPageSize == 0) pages_.push_back(std::make_unique<Page>());
    refs_.push_back(1);
  } else {
    h = free_.back();
    free_.pop_back();
    refs_[h] = 1;
  }
  edit(h) = nodes;
  return h;
}

void ServerSetPool::unref(Handle h) {
  if (--refs_[h] == 0) free_.push_back(h);
}

SharedSet::SharedSet(std::shared_ptr<ServerSetPool> pool, ServerSetPool::Handle h)
    : pool_(std::move(pool)), handle_(h) {
  pool_->ref(handle_);
}

ServerSetMap::ServerSetMap() : ServerSetMap(std::make_shared<ServerSetPool>()) {}

ServerSetMap::ServerSetMap(std::shared_ptr<ServerSetPool> pool) : pool_(std::move(pool)) {
  L2S_REQUIRE(pool_ != nullptr);
}

ServerSetMap::Handle& ServerSetMap::touch(storage::FileId file) {
  if (file >= handles_.size()) {
    handles_.resize(std::size_t{file} + 1, kUntracked);
    modified_.resize(std::size_t{file} + 1, 0);
  }
  Handle& h = handles_[file];
  if (h == kUntracked) {
    h = ServerSetPool::kEmptySet;
    pool_->ref(h);
    ++tracked_;
  }
  return h;
}

std::vector<int>& ServerSetMap::writable(storage::FileId file) {
  Handle& h = touch(file);
  if (pool_->holders(h) > 1) {
    const Handle own = pool_->create(pool_->members(h));
    pool_->unref(h);
    h = own;
  }
  return pool_->edit(h);
}

bool ServerSetMap::contains(storage::FileId file, int node) const {
  const auto& m = members(file);
  return std::find(m.begin(), m.end(), node) != m.end();
}

void ServerSetMap::add(storage::FileId file, int node, SimTime now) {
  if (contains(file, node)) return;
  writable(file).push_back(node);
  modified_[file] = now;
}

void ServerSetMap::remove(storage::FileId file, int node, SimTime now) {
  const auto& m = members(file);
  const auto pos = std::find(m.begin(), m.end(), node);
  if (pos == m.end()) return;
  const auto index = pos - m.begin();
  std::vector<int>& nodes = writable(file);
  nodes.erase(nodes.begin() + index);
  modified_[file] = now;
}

void ServerSetMap::replace(storage::FileId file, const std::vector<int>& nodes, SimTime now) {
  writable(file) = nodes;
  modified_[file] = now;
}

void ServerSetMap::adopt(storage::FileId file, const SharedSet& set, SimTime now) {
  L2S_REQUIRE(set.pool_ == pool_);
  Handle& h = touch(file);
  pool_->ref(set.handle_);
  pool_->unref(h);
  h = set.handle_;
  modified_[file] = now;
}

std::size_t ServerSetMap::total_members() const {
  std::size_t total = 0;
  for (const Handle h : handles_) {
    if (h != kUntracked) total += pool_->members(h).size();
  }
  return total;
}

void ServerSetMap::clear() {
  for (const Handle h : handles_) {
    if (h != kUntracked) pool_->unref(h);
  }
  handles_.clear();
  modified_.clear();
  tracked_ = 0;
}

}  // namespace l2s::policy
