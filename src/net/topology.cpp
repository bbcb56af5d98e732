#include "l2sim/net/topology.hpp"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>

#include "l2sim/common/error.hpp"

namespace l2s::net {

namespace {

/// Shared completion state of one segmented multi-hop transfer: the
/// delivery callback fires once, after the last segment clears the final
/// capacitated hop.
struct Pending {
  std::uint64_t remaining = 0;
  des::EventFn deliver;
};

std::uint64_t segment_count(Bytes bytes, Bytes segment) {
  if (bytes == 0) return 1;
  return (bytes + segment - 1) / segment;
}

Bytes segment_size(Bytes bytes, Bytes segment, std::uint64_t index,
                   std::uint64_t segments) {
  if (index + 1 < segments) return segment;
  return bytes - (segments - 1) * segment;  // the (possibly short) tail
}

}  // namespace

// --- TopologyConfig ---------------------------------------------------------

void TopologyConfig::validate(int nodes) const {
  if (segment_bytes == 0) throw_error("topology: segment_bytes must be >= 1");
  switch (kind) {
    case TopologyKind::kSingleSwitch:
      return;
    case TopologyKind::kRackAware: {
      if (racks < 1)
        throw_error("topology: rack-aware needs racks >= 1, got " +
                    std::to_string(racks));
      if (nodes % racks != 0)
        throw_error("topology: " + std::to_string(nodes) +
                    " nodes are not divisible into " + std::to_string(racks) +
                    " racks");
      if (oversubscription <= 0.0)
        throw_error("topology: oversubscription must be > 0");
      return;
    }
    case TopologyKind::kFatTree: {
      if (fat_tree_k < 2 || fat_tree_k % 2 != 0)
        throw_error("topology: fat-tree arity must be even and >= 2, got " +
                    std::to_string(fat_tree_k));
      const int capacity = fat_tree_k * fat_tree_k * fat_tree_k / 4;
      if (nodes > capacity)
        throw_error("topology: " + std::to_string(nodes) +
                    " nodes exceed the k=" + std::to_string(fat_tree_k) +
                    " fat-tree capacity of " + std::to_string(capacity) +
                    " hosts");
      return;
    }
  }
  throw_error("topology: unknown kind");
}

const char* TopologyConfig::kind_name() const {
  switch (kind) {
    case TopologyKind::kSingleSwitch: return "single-switch";
    case TopologyKind::kRackAware: return "rack-aware";
    case TopologyKind::kFatTree: return "fat-tree";
  }
  return "unknown";
}

// --- Topology ---------------------------------------------------------------

void Topology::path_links(int /*src*/, int /*dst*/,
                          std::vector<std::size_t>& /*out*/) const {}

void Topology::reset_stats() {
  traversals_ = 0;
  for (auto& l : links_) l->reset_stats();
}

std::unique_ptr<Topology> Topology::make(const TopologyConfig& config,
                                         des::Scheduler& sched,
                                         const NetParams& params, int nodes) {
  switch (config.kind) {
    case TopologyKind::kSingleSwitch:
      return std::make_unique<SingleSwitch>(sched, params, nodes);
    case TopologyKind::kRackAware:
      return std::make_unique<RackAware>(sched, params, nodes, config);
    case TopologyKind::kFatTree:
      return std::make_unique<FatTree>(sched, params, nodes, config);
  }
  throw_error("topology: unknown kind");
}

// --- SingleSwitch -----------------------------------------------------------

SingleSwitch::SingleSwitch(des::Scheduler& sched, const NetParams& params,
                           int nodes)
    : Topology(sched, params), nodes_(nodes), latency_(params.switch_latency()) {
  L2S_REQUIRE(nodes >= 1);
}

void SingleSwitch::traverse(int /*src*/, int /*dst*/, Bytes /*bytes*/,
                            des::EventFn deliver) {
  // Exactly the pre-refactor SwitchFabric::traverse: one scheduled event,
  // no payload dependence — the golden digests depend on this.
  ++traversals_;
  sched_.after(latency_, std::move(deliver));
}

// --- RackAware --------------------------------------------------------------

RackAware::RackAware(des::Scheduler& sched, const NetParams& params, int nodes,
                     const TopologyConfig& config)
    : Topology(sched, params),
      nodes_(nodes),
      racks_(config.racks),
      span_(nodes / std::max(1, config.racks)),
      tor_latency_(params.switch_latency()),
      core_latency_(seconds_to_simtime(config.core_latency_s)),
      segment_(config.segment_bytes) {
  L2S_REQUIRE(nodes >= 1);
  L2S_REQUIRE(racks_ >= 1 && nodes % racks_ == 0);
  L2S_REQUIRE(config.oversubscription > 0.0);
  const double trunk_bits =
      params.link_bits_per_s * span_ / config.oversubscription;
  links_.reserve(2 * static_cast<std::size_t>(racks_));
  for (int r = 0; r < racks_; ++r) {
    links_.push_back(std::make_unique<Link>(
        sched, "rack" + std::to_string(r) + ".up", trunk_bits));
    links_.push_back(std::make_unique<Link>(
        sched, "rack" + std::to_string(r) + ".down", trunk_bits));
  }
}

void RackAware::traverse(int src, int dst, Bytes bytes, des::EventFn deliver) {
  ++traversals_;
  const int sr = rack_of(src);
  const int dr = rack_of(dst);
  if (sr == dr) {
    // Same rack: one contention-free ToR hop, like the paper's switch.
    sched_.after(tor_latency_, std::move(deliver));
    return;
  }
  Link& up = uplink(sr);
  Link& down = downlink(dr);
  const std::uint64_t segs = segment_count(bytes, segment_);
  auto pending = std::make_shared<Pending>();
  pending->remaining = segs;
  pending->deliver = std::move(deliver);
  // src ToR hop, then each segment store-and-forwards uplink -> core ->
  // downlink independently (FIFO links preserve order); the dst ToR hop is
  // charged once, after the last segment lands.
  sched_.after(tor_latency_, [this, &up, &down, bytes, segs, pending]() {
    for (std::uint64_t i = 0; i < segs; ++i) {
      const Bytes seg = segment_size(bytes, segment_, i, segs);
      up.transfer(seg, [this, &down, seg, pending]() {
        sched_.after(core_latency_, [this, &down, seg, pending]() {
          down.transfer(seg, [this, pending]() {
            if (--pending->remaining == 0)
              sched_.after(tor_latency_, std::move(pending->deliver));
          });
        });
      });
    }
  });
}

void RackAware::path_links(int src, int dst,
                           std::vector<std::size_t>& out) const {
  const int sr = rack_of(src);
  const int dr = rack_of(dst);
  if (sr == dr) return;
  out.push_back(2 * static_cast<std::size_t>(sr));       // uplink
  out.push_back(2 * static_cast<std::size_t>(dr) + 1);   // downlink
}

// --- FatTree ----------------------------------------------------------------
//
// Flat link layout, with E = total edge switches = pods * k/2 (and the
// aggregation-switch count equal to E):
//   [0,            E*k/2)   edge -> agg uplinks      edge_up(e, a)
//   [E*k/2,      2*E*k/2)   agg  -> edge downlinks   edge_down(e, a)
//   [2*E*k/2,    3*E*k/2)   agg  -> core uplinks     agg_up(p, a, r)
//   [3*E*k/2,    4*E*k/2)   core -> agg downlinks    agg_down(p, a, r)

FatTree::FatTree(des::Scheduler& sched, const NetParams& params, int nodes,
                 const TopologyConfig& config)
    : Topology(sched, params),
      nodes_(nodes),
      k_(config.fat_tree_k),
      half_k_(config.fat_tree_k / 2),
      edges_(config.fat_tree_k * (config.fat_tree_k / 2)),
      switch_latency_(params.switch_latency()),
      core_latency_(seconds_to_simtime(config.core_latency_s)),
      segment_(config.segment_bytes) {
  L2S_REQUIRE(nodes >= 1);
  L2S_REQUIRE(k_ >= 2 && k_ % 2 == 0);
  L2S_REQUIRE(nodes <= k_ * k_ * k_ / 4);
  const std::size_t tier = static_cast<std::size_t>(edges_) *
                           static_cast<std::size_t>(half_k_);
  links_.reserve(4 * tier);
  for (int e = 0; e < edges_; ++e)
    for (int a = 0; a < half_k_; ++a)
      links_.push_back(std::make_unique<Link>(
          sched, "ft.e" + std::to_string(e) + ".a" + std::to_string(a) + ".up",
          params.link_bits_per_s));
  for (int e = 0; e < edges_; ++e)
    for (int a = 0; a < half_k_; ++a)
      links_.push_back(std::make_unique<Link>(
          sched, "ft.e" + std::to_string(e) + ".a" + std::to_string(a) + ".down",
          params.link_bits_per_s));
  for (int p = 0; p < k_; ++p)
    for (int a = 0; a < half_k_; ++a)
      for (int r = 0; r < half_k_; ++r)
        links_.push_back(std::make_unique<Link>(
            sched,
            "ft.p" + std::to_string(p) + ".a" + std::to_string(a) + ".c" +
                std::to_string(r) + ".up",
            params.link_bits_per_s));
  for (int p = 0; p < k_; ++p)
    for (int a = 0; a < half_k_; ++a)
      for (int r = 0; r < half_k_; ++r)
        links_.push_back(std::make_unique<Link>(
            sched,
            "ft.p" + std::to_string(p) + ".a" + std::to_string(a) + ".c" +
                std::to_string(r) + ".down",
            params.link_bits_per_s));
}

std::size_t FatTree::edge_up(int edge, int agg) const {
  return static_cast<std::size_t>(edge) * static_cast<std::size_t>(half_k_) +
         static_cast<std::size_t>(agg);
}

std::size_t FatTree::edge_down(int edge, int agg) const {
  const std::size_t tier = static_cast<std::size_t>(edges_) *
                           static_cast<std::size_t>(half_k_);
  return tier + edge_up(edge, agg);
}

std::size_t FatTree::agg_up(int pod, int agg, int core_row) const {
  const std::size_t tier = static_cast<std::size_t>(edges_) *
                           static_cast<std::size_t>(half_k_);
  return 2 * tier +
         (static_cast<std::size_t>(pod) * static_cast<std::size_t>(half_k_) +
          static_cast<std::size_t>(agg)) *
             static_cast<std::size_t>(half_k_) +
         static_cast<std::size_t>(core_row);
}

std::size_t FatTree::agg_down(int pod, int agg, int core_row) const {
  const std::size_t tier = static_cast<std::size_t>(edges_) *
                           static_cast<std::size_t>(half_k_);
  return tier + agg_up(pod, agg, core_row);
}

std::uint32_t FatTree::route_hash(int src, int dst) const {
  // splitmix64-style finalizer over the (src, dst) pair: a pure function
  // of message identity, so routing is deterministic (ECMP stand-in).
  std::uint64_t x =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 32) |
      static_cast<std::uint32_t>(dst);
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDULL;
  x ^= x >> 33;
  x *= 0xC4CEB9FE1A85EC53ULL;
  x ^= x >> 33;
  return static_cast<std::uint32_t>(x);
}

int FatTree::hops(int src, int dst) const {
  if (edge_of(src) == edge_of(dst)) return 1;
  if (pod_of(src) == pod_of(dst)) return 3;
  return 5;
}

SimTime FatTree::min_latency(int src, int dst) const {
  if (edge_of(src) == edge_of(dst)) return switch_latency_;
  if (pod_of(src) == pod_of(dst)) return 3 * switch_latency_;
  return 4 * switch_latency_ + core_latency_;
}

void FatTree::traverse(int src, int dst, Bytes bytes, des::EventFn deliver) {
  ++traversals_;
  const int se = edge_of(src);
  const int de = edge_of(dst);
  if (se == de) {
    // Same edge switch: one contention-free hop.
    sched_.after(switch_latency_, std::move(deliver));
    return;
  }
  const std::uint32_t h = route_hash(src, dst);
  const int agg = static_cast<int>(h % static_cast<std::uint32_t>(half_k_));
  const std::uint64_t segs = segment_count(bytes, segment_);
  auto pending = std::make_shared<Pending>();
  pending->remaining = segs;
  pending->deliver = std::move(deliver);
  auto finish = [this, pending]() {
    if (--pending->remaining == 0)
      sched_.after(switch_latency_, std::move(pending->deliver));
  };
  if (pod_of(src) == pod_of(dst)) {
    // edge -> agg -> edge: two capacitated hops around the pod's chosen
    // aggregation switch.
    Link& up = link(edge_up(se, agg));
    Link& down = link(edge_down(de, agg));
    sched_.after(switch_latency_, [this, &up, &down, bytes, segs, finish]() {
      for (std::uint64_t i = 0; i < segs; ++i) {
        const Bytes seg = segment_size(bytes, segment_, i, segs);
        up.transfer(seg, [this, &down, seg, finish]() {
          sched_.after(switch_latency_, [&down, seg, finish]() {
            down.transfer(seg, finish);
          });
        });
      }
    });
    return;
  }
  // Cross-pod: edge -> agg -> core -> agg -> edge.
  const int row = static_cast<int>((h / static_cast<std::uint32_t>(half_k_)) %
                                   static_cast<std::uint32_t>(half_k_));
  Link& up1 = link(edge_up(se, agg));
  Link& up2 = link(agg_up(pod_of(src), agg, row));
  Link& down2 = link(agg_down(pod_of(dst), agg, row));
  Link& down1 = link(edge_down(de, agg));
  sched_.after(switch_latency_, [this, &up1, &up2, &down2, &down1, bytes, segs,
                                 finish]() {
    for (std::uint64_t i = 0; i < segs; ++i) {
      const Bytes seg = segment_size(bytes, segment_, i, segs);
      up1.transfer(seg, [this, &up2, &down2, &down1, seg, finish]() {
        sched_.after(switch_latency_, [this, &up2, &down2, &down1, seg,
                                       finish]() {
          up2.transfer(seg, [this, &down2, &down1, seg, finish]() {
            sched_.after(core_latency_, [this, &down2, &down1, seg, finish]() {
              down2.transfer(seg, [this, &down1, seg, finish]() {
                sched_.after(switch_latency_, [&down1, seg, finish]() {
                  down1.transfer(seg, finish);
                });
              });
            });
          });
        });
      });
    }
  });
}

void FatTree::path_links(int src, int dst,
                         std::vector<std::size_t>& out) const {
  const int se = edge_of(src);
  const int de = edge_of(dst);
  if (se == de) return;
  const std::uint32_t h = route_hash(src, dst);
  const int agg = static_cast<int>(h % static_cast<std::uint32_t>(half_k_));
  out.push_back(edge_up(se, agg));
  if (pod_of(src) != pod_of(dst)) {
    const int row = static_cast<int>((h / static_cast<std::uint32_t>(half_k_)) %
                                     static_cast<std::uint32_t>(half_k_));
    out.push_back(agg_up(pod_of(src), agg, row));
    out.push_back(agg_down(pod_of(dst), agg, row));
  }
  out.push_back(edge_down(de, agg));
}

}  // namespace l2s::net
