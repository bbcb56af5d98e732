// M-VIA-style user-level messaging over the cluster network.
//
// A point-to-point message charges: 3 us sender CPU, 6 us + payload/1Gbit/s
// sender NIC, the topology path (1 us for the paper's single switch; ToR /
// core hops and capacitated link transfers for the multi-switch
// topologies), 6 us + payload/1Gbit/s receiver NIC, 3 us receiver CPU —
// 19 us one-way for a 4-byte message on the single switch, matching the
// paper's M-VIA measurements. Broadcasts are implemented as N-1
// point-to-point messages, exactly as the paper's simulator does — each
// one charged along its own topology path, so a cross-rack destination
// pays its real hop count.
//
// Each message in flight is one record from a pool the network owns
// (stable addresses, recycled through a free list). The record carries
// src, dst, bytes, the NIC transfer time and the delivery continuation, so
// every stage event captures only `[this, record]` and stays inside
// InlineEvent's buffer. A broadcast stores its callback once, in a pooled,
// reference-counted fan-out record; each of its N-1 messages points at it
// and carries only its own destination. Records return to their pools on
// every outcome, a fault-model drop included.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "l2sim/des/resource.hpp"
#include "l2sim/net/nic.hpp"
#include "l2sim/net/params.hpp"
#include "l2sim/net/topology.hpp"

namespace l2s::net {

class FlowNetwork;

/// What the (optional) fault model decided for one message. Defaults are a
/// healthy link. Duplicates are suppressed at the receiver: the copy burns
/// NIC service time, the delivery handler still fires exactly once.
struct LinkFault {
  bool drop = false;
  bool duplicate = false;
  SimTime extra_delay = 0;
};

/// Per-message fault oracle, installed by the fault layer. The interface
/// lives here (not in l2sim/fault) so net/ has no dependency on the fault
/// subsystem; fault::FaultRuntime implements it.
class LinkFaultModel {
 public:
  virtual ~LinkFaultModel() = default;
  [[nodiscard]] virtual LinkFault on_message(int src, int dst) = 0;
};

class ViaNetwork {
 public:
  struct Endpoint {
    des::Resource* cpu = nullptr;
    Nic* nic = nullptr;
  };

  ViaNetwork(des::Scheduler& sched, Topology& topology, const NetParams& params);
  ~ViaNetwork();

  ViaNetwork(const ViaNetwork&) = delete;
  ViaNetwork& operator=(const ViaNetwork&) = delete;

  /// Register a node's CPU and NIC; returns its endpoint id.
  int add_endpoint(Endpoint ep);

  /// Wire-level transfer only (sender NIC -> topology path -> receiver
  /// NIC); the caller accounts for CPU time itself (used for request
  /// hand-offs whose CPU cost is the policy's forwarding cost, not the VIA
  /// send overhead).
  void transmit(int src, int dst, Bytes bytes, des::EventFn on_delivered);

  /// Bulk data transfer (request-forwarding replies, cache-fill payloads).
  /// Identical to transmit() unless a flow network is attached
  /// (set_flow_network), in which case the payload rides the flow-level
  /// max-min bandwidth sharing instead of per-segment NIC/link events.
  void bulk(int src, int dst, Bytes bytes, des::EventFn on_delivered);

  /// Full VIA send including both CPU overheads.
  void send(int src, int dst, Bytes bytes, des::EventFn on_delivered);

  /// N-1 point-to-point sends; `on_delivered(dst)` fires per destination.
  /// The callable is stored once per broadcast, not once per message.
  template <typename F>
    requires std::is_invocable_v<std::remove_cvref_t<F>&, int>
  void broadcast(int src, Bytes bytes, F&& on_delivered);

  /// Install (or clear, with nullptr) the per-message fault oracle. The
  /// model must outlive the network or be cleared before it dies.
  void set_fault_model(LinkFaultModel* model) { fault_model_ = model; }

  /// Attach (or clear) the flow-level bulk-transfer network; it must
  /// outlive the VIA network or be cleared first.
  void set_flow_network(FlowNetwork* flow) { flow_ = flow; }

  [[nodiscard]] const Topology& topology() const { return topo_; }

  [[nodiscard]] std::uint64_t messages_sent() const { return messages_; }
  /// Records each pool has ever created. Records are recycled, so once a
  /// workload reaches its peak number of messages (and broadcasts) in
  /// flight, these stop growing.
  struct PoolSizes {
    std::size_t messages = 0;
    std::size_t fanouts = 0;
  };
  [[nodiscard]] PoolSizes pool_sizes() const { return {msgs_.size(), fans_.size()}; }
  [[nodiscard]] std::uint64_t messages_dropped() const { return dropped_; }
  [[nodiscard]] std::uint64_t messages_duplicated() const { return duplicated_; }
  [[nodiscard]] std::uint64_t messages_delayed() const { return delayed_; }
  [[nodiscard]] std::uint64_t messages_delivered() const { return delivered_; }
  /// Messages sent but neither dropped nor yet handed to the receiver NIC —
  /// the telemetry probe samples this. Clamped at 0 because a mid-flight
  /// warm-up reset can make the counters momentarily inconsistent.
  [[nodiscard]] std::uint64_t in_flight() const {
    const std::uint64_t settled = dropped_ + delivered_;
    return settled >= messages_ ? 0 : messages_ - settled;
  }
  [[nodiscard]] int endpoints() const { return static_cast<int>(endpoints_.size()); }

  /// Zero every counter, including the fault-layer ones. (This used to
  /// clear only messages_, which made warm-up drops bleed into measured
  /// statistics once the fault layer landed.)
  void reset_stats() {
    messages_ = 0;
    dropped_ = 0;
    duplicated_ = 0;
    delayed_ = 0;
    delivered_ = 0;
  }

 private:
  /// One broadcast's callback, shared by its N-1 messages and destroyed
  /// when the last of them is delivered or dropped.
  struct Fanout {
    static constexpr std::size_t kSize = 48;
    static constexpr std::size_t kAlign = 16;
    alignas(kAlign) unsigned char fn[kSize];  ///< the callable, constructed in place
    void (*invoke)(void* fn, int dst) = nullptr;
    void (*destroy)(void* fn) noexcept = nullptr;  ///< nullptr while the record is free
    int refs = 0;
  };

  /// One message in flight.
  struct Msg {
    int src = 0;
    int dst = 0;
    Bytes bytes = 0;
    SimTime xfer = 0;   ///< NIC transfer time, paid at both ends
    SimTime extra = 0;  ///< fault: delay before the receiver NIC
    bool dup = false;   ///< fault: a suppressed copy burns receiver NIC time
    bool cpu = false;   ///< send(): charge the destination CPU before delivery
    Fanout* fan = nullptr;  ///< broadcast member: deliver through fan
    des::EventFn done;      ///< point-to-point continuation (fan == nullptr)
  };

  void check_pair(int src, int dst) const;
  Msg* acquire_msg(int src, int dst, Bytes bytes);
  /// Return `m` to the pool, destroying its continuation or dropping its
  /// fan-out reference.
  void release(Msg* m);
  Fanout* acquire_fanout(int src);
  void unref(Fanout* fan);
  /// Post one message per peer of `src`, each referencing `fan`.
  void fan_out(int src, Bytes bytes, Fanout* fan);

  // The stages of a message, in order. send() enters at cpu_send,
  // transmit() at nic_send.
  void cpu_send(Msg* m);
  void nic_send(Msg* m);
  void wire_done(Msg* m);
  void arrive(Msg* m);
  void nic_received(Msg* m);
  void deliver(Msg* m);

  des::Scheduler& sched_;
  Topology& topo_;
  const NetParams& params_;
  std::vector<Endpoint> endpoints_;
  LinkFaultModel* fault_model_ = nullptr;
  FlowNetwork* flow_ = nullptr;
  std::uint64_t messages_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t duplicated_ = 0;
  std::uint64_t delayed_ = 0;
  std::uint64_t delivered_ = 0;
  std::deque<Msg> msgs_;
  std::vector<Msg*> free_msgs_;
  std::deque<Fanout> fans_;
  std::vector<Fanout*> free_fans_;
};

template <typename F>
  requires std::is_invocable_v<std::remove_cvref_t<F>&, int>
void ViaNetwork::broadcast(int src, Bytes bytes, F&& on_delivered) {
  using Fn = std::remove_cvref_t<F>;
  static_assert(sizeof(Fn) <= Fanout::kSize && alignof(Fn) <= Fanout::kAlign,
                "broadcast callable does not fit the fan-out record");
  Fanout* fan = acquire_fanout(src);
  ::new (static_cast<void*>(fan->fn)) Fn(std::forward<F>(on_delivered));
  fan->invoke = [](void* p, int dst) { (*static_cast<Fn*>(p))(dst); };
  fan->destroy = [](void* p) noexcept { static_cast<Fn*>(p)->~Fn(); };
  fan_out(src, bytes, fan);
}

}  // namespace l2s::net
