// Pluggable cluster interconnect topologies.
//
// The paper simulates one very fast, contention-free switch — which is
// exactly why its cluster stops at 16 nodes. Topology carves that
// hard-wired path into an interface the VIA layer routes through:
//
//   SingleSwitch  the paper's fabric: one pure-latency element, no links,
//                 no contention. Bit-identical to the pre-refactor
//                 SwitchFabric path (the golden-digest suite pins it).
//   RackAware     hosts grouped into racks behind ToR switches; same-rack
//                 traffic pays one ToR hop (contention-free, like the
//                 paper's switch), cross-rack traffic crosses capacitated,
//                 oversubscribed uplink/downlink Links and a core switch.
//   FatTree       the k-ary fat-tree: k pods of (k/2) edge and (k/2)
//                 aggregation switches, (k/2)^2 cores, k^3/4 hosts; full
//                 bisection bandwidth but per-path Link contention, with
//                 deterministic hash-based path selection.
//
// Every topology exposes:
//   * traverse(src, dst, bytes, deliver) — the message-mode path: switch
//     hops are latency events, capacitated hops queue store-and-forward
//     segments (segment_bytes) through Link FIFOs;
//   * min_latency(src, dst) — a guaranteed lower bound on traverse for any
//     payload and congestion: the sum of the path's switch latencies;
//   * rack_of(node) — the locality coordinate;
//   * the Link set, for flow-level bandwidth sharing (flow.hpp) and
//     per-link utilization telemetry.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "l2sim/common/units.hpp"
#include "l2sim/des/scheduler.hpp"
#include "l2sim/net/link.hpp"
#include "l2sim/net/params.hpp"

namespace l2s::net {

enum class TopologyKind { kSingleSwitch, kRackAware, kFatTree };

/// Topology selection + geometry, embedded in core::SimConfig. Defaults
/// reproduce the paper's single switch exactly.
struct TopologyConfig {
  TopologyKind kind = TopologyKind::kSingleSwitch;

  // kRackAware geometry: `racks` must divide the node count. Uplink and
  // downlink capacity per rack is (hosts_per_rack * link rate) /
  // oversubscription — oversubscription 1.0 is full bisection, the
  // classic 4.0 means the rack can only push a quarter of its aggregate
  // host bandwidth into the core.
  int racks = 4;
  double oversubscription = 4.0;
  /// Core-switch traversal latency (rack-aware core, fat-tree core tier).
  double core_latency_s = 1e-6;

  /// kFatTree: the arity; even, >= 2; capacity k^3/4 hosts.
  int fat_tree_k = 4;

  /// Store-and-forward unit on capacitated hops: message-mode bulk
  /// payloads are segmented into frames of this size so a big transfer
  /// pays per-frame event cost (the cost flow-level mode removes).
  /// SingleSwitch never segments — it has no capacitated hops.
  Bytes segment_bytes = 16 * 1024;

  /// Route bulk transfers (ViaNetwork::bulk — request forwarding replies,
  /// cache-fill payloads) through the flow-level max-min bandwidth-sharing
  /// network instead of per-segment events. Control messages always stay
  /// message-mode.
  bool flow_level = false;

  /// Throws l2s::Error on inconsistent geometry (e.g. nodes not divisible
  /// by racks, odd fat-tree arity, nodes beyond fat-tree capacity).
  void validate(int nodes) const;

  [[nodiscard]] const char* kind_name() const;
};

class Topology {
 public:
  Topology(des::Scheduler& sched, const NetParams& params)
      : sched_(sched), params_(params) {}
  virtual ~Topology() = default;

  Topology(const Topology&) = delete;
  Topology& operator=(const Topology&) = delete;

  [[nodiscard]] virtual const char* name() const = 0;
  [[nodiscard]] virtual int nodes() const = 0;
  [[nodiscard]] virtual int racks() const = 0;
  [[nodiscard]] virtual int rack_of(int node) const = 0;
  /// Switch traversals on the src -> dst path (1 for one shared switch).
  [[nodiscard]] virtual int hops(int src, int dst) const = 0;
  /// Guaranteed lower bound on traverse(src, dst, ...) delivery delay for
  /// any payload size and any congestion: the path's switch latencies.
  [[nodiscard]] virtual SimTime min_latency(int src, int dst) const = 0;
  /// Message-mode delivery: schedule `deliver` after the path's switch
  /// hops and (store-and-forward, segmented) capacitated link transfers.
  virtual void traverse(int src, int dst, Bytes bytes, des::EventFn deliver) = 0;
  /// Append the indices of the capacitated links on the src -> dst path
  /// (empty for contention-free paths). Used by the flow network.
  virtual void path_links(int src, int dst, std::vector<std::size_t>& out) const;

  [[nodiscard]] std::size_t link_count() const { return links_.size(); }
  [[nodiscard]] Link& link(std::size_t i) { return *links_[i]; }
  [[nodiscard]] const Link& link(std::size_t i) const { return *links_[i]; }

  /// Messages routed through the topology (one per traverse call).
  [[nodiscard]] std::uint64_t traversals() const { return traversals_; }
  virtual void reset_stats();

  /// Build the configured topology over `nodes` hosts. Geometry problems
  /// surface via TopologyConfig::validate (call it first for friendly
  /// errors); construction itself only hard-requires what it cannot
  /// tolerate. `params` must outlive the topology.
  [[nodiscard]] static std::unique_ptr<Topology> make(const TopologyConfig& config,
                                                      des::Scheduler& sched,
                                                      const NetParams& params,
                                                      int nodes);

 protected:
  des::Scheduler& sched_;
  const NetParams& params_;  // NOLINT(*-avoid-const-or-ref-data-members)
  std::vector<std::unique_ptr<Link>> links_;
  std::uint64_t traversals_ = 0;
};

/// The paper's fabric: a pure latency element shared by every node pair,
/// explicitly contention-free. traverse schedules exactly one event —
/// the same event, in the same order, as the pre-refactor SwitchFabric —
/// so the golden digests are preserved bit-for-bit.
class SingleSwitch final : public Topology {
 public:
  SingleSwitch(des::Scheduler& sched, const NetParams& params, int nodes);

  [[nodiscard]] const char* name() const override { return "single-switch"; }
  [[nodiscard]] int nodes() const override { return nodes_; }
  [[nodiscard]] int racks() const override { return 1; }
  [[nodiscard]] int rack_of(int /*node*/) const override { return 0; }
  [[nodiscard]] int hops(int /*src*/, int /*dst*/) const override { return 1; }
  [[nodiscard]] SimTime min_latency(int /*src*/, int /*dst*/) const override {
    return latency_;
  }
  void traverse(int src, int dst, Bytes bytes, des::EventFn deliver) override;
  [[nodiscard]] SimTime latency() const { return latency_; }

 private:
  int nodes_;
  SimTime latency_;
};

/// Hosts in racks behind ToR switches; racks joined by one core switch
/// over capacitated, oversubscribed uplink/downlink Links. Same-rack
/// traffic is contention-free (one ToR hop, like the paper's switch);
/// cross-rack traffic pays ToR -> uplink -> core -> downlink -> ToR with
/// store-and-forward segmentation on both links.
class RackAware final : public Topology {
 public:
  RackAware(des::Scheduler& sched, const NetParams& params, int nodes,
            const TopologyConfig& config);

  [[nodiscard]] const char* name() const override { return "rack-aware"; }
  [[nodiscard]] int nodes() const override { return nodes_; }
  [[nodiscard]] int racks() const override { return racks_; }
  [[nodiscard]] int rack_of(int node) const override { return node / span_; }
  [[nodiscard]] int hops(int src, int dst) const override {
    return rack_of(src) == rack_of(dst) ? 1 : 3;
  }
  [[nodiscard]] SimTime min_latency(int src, int dst) const override {
    return rack_of(src) == rack_of(dst) ? tor_latency_
                                        : 2 * tor_latency_ + core_latency_;
  }
  void traverse(int src, int dst, Bytes bytes, des::EventFn deliver) override;
  void path_links(int src, int dst, std::vector<std::size_t>& out) const override;

  [[nodiscard]] Link& uplink(int rack) { return link(2 * static_cast<std::size_t>(rack)); }
  [[nodiscard]] Link& downlink(int rack) {
    return link(2 * static_cast<std::size_t>(rack) + 1);
  }

 private:
  int nodes_;
  int racks_;
  int span_;  ///< hosts per rack
  SimTime tor_latency_;
  SimTime core_latency_;
  Bytes segment_;
};

/// The k-ary fat-tree (Al-Fahoum/Leiserson form): k pods, each with k/2
/// edge and k/2 aggregation switches; (k/2)^2 core switches; k/2 hosts per
/// edge switch. Full bisection bandwidth, but individual paths contend on
/// their edge<->agg and agg<->core Links; the path (which aggregation
/// column, which core) is a deterministic hash of (src, dst), standing in
/// for ECMP.
class FatTree final : public Topology {
 public:
  FatTree(des::Scheduler& sched, const NetParams& params, int nodes,
          const TopologyConfig& config);

  [[nodiscard]] const char* name() const override { return "fat-tree"; }
  [[nodiscard]] int nodes() const override { return nodes_; }
  [[nodiscard]] int racks() const override { return edges_; }
  [[nodiscard]] int rack_of(int node) const override { return node / half_k_; }
  [[nodiscard]] int hops(int src, int dst) const override;
  [[nodiscard]] SimTime min_latency(int src, int dst) const override;
  void traverse(int src, int dst, Bytes bytes, des::EventFn deliver) override;
  void path_links(int src, int dst, std::vector<std::size_t>& out) const override;

  [[nodiscard]] int k() const { return k_; }

 private:
  [[nodiscard]] int edge_of(int node) const { return node / half_k_; }
  [[nodiscard]] int pod_of(int node) const { return edge_of(node) / half_k_; }
  /// Deterministic ECMP stand-in: which aggregation column / core row the
  /// (src, dst) pair hashes to.
  [[nodiscard]] std::uint32_t route_hash(int src, int dst) const;

  // Flat link indexing (see topology.cpp for the layout).
  [[nodiscard]] std::size_t edge_up(int edge, int agg) const;
  [[nodiscard]] std::size_t edge_down(int edge, int agg) const;
  [[nodiscard]] std::size_t agg_up(int pod, int agg, int core_row) const;
  [[nodiscard]] std::size_t agg_down(int pod, int agg, int core_row) const;

  int nodes_;
  int k_;
  int half_k_;
  int edges_;  ///< total edge switches = pods * k/2
  SimTime switch_latency_;
  SimTime core_latency_;
  Bytes segment_;
};

}  // namespace l2s::net
