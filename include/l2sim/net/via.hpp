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
// (stable addresses, recycled through a free list). The record embeds a
// des::Job, so it is itself the queue node at every resource it visits:
// each stage re-points the job's `fire` at the next stage's handler and
// submits the same record (cpu -> tx NIC -> topology -> rx NIC -> cpu).
// Only the topology hop schedules a callable, and it captures just
// `[this, record]`. A point-to-point continuation waits in a side pool; a
// broadcast stores its callback once, in a pooled, reference-counted
// fan-out record. The fan-out record also embeds the broadcast's
// sender-CPU job: one job with `repeat = N-2` stands for the N-1 CPU
// charges, and each run takes a message record for the next destination
// (ascending, skipping the sender) and hands it to the sender NIC. A
// broadcast queued behind a busy CPU therefore holds one record, not N-1.
// Records return to their pools on every outcome, a fault-model drop
// included.
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
  /// flight, these stop growing. A fan-out record is also its broadcast's
  /// sender-CPU batch: a broadcast that has not left the sender CPU holds
  /// one fan-out record and no message records for its unsent part.
  struct PoolSizes {
    std::size_t messages = 0;
    std::size_t fanouts = 0;
    std::size_t continuations = 0;  ///< point-to-point delivery callables
  };
  [[nodiscard]] PoolSizes pool_sizes() const {
    return {msgs_.size(), fans_.size(), conts_.size()};
  }
  [[nodiscard]] std::uint64_t messages_dropped() const { return dropped_; }
  [[nodiscard]] std::uint64_t messages_duplicated() const { return duplicated_; }
  [[nodiscard]] std::uint64_t messages_delayed() const { return delayed_; }
  [[nodiscard]] std::uint64_t messages_delivered() const { return delivered_; }
  /// Messages sent but neither dropped nor yet handed to the receiver NIC —
  /// the telemetry probe samples this. A live count: reset_stats() leaves
  /// it alone, so messages in flight across the warm-up reset still count.
  [[nodiscard]] std::uint64_t in_flight() const { return in_flight_; }
  [[nodiscard]] int endpoints() const { return static_cast<int>(endpoints_.size()); }

  /// Zero every counter, including the fault-layer ones. (This used to
  /// clear only messages_, which made warm-up drops bleed into measured
  /// statistics once the fault layer landed.) in_flight() is a state, not
  /// a counter, and is kept.
  void reset_stats() {
    messages_ = 0;
    dropped_ = 0;
    duplicated_ = 0;
    delayed_ = 0;
    delivered_ = 0;
  }

 private:
  /// One broadcast: its callback, shared by its N-1 messages and destroyed
  /// when the last of them is delivered or dropped, and its sender-CPU job,
  /// which runs once per destination and holds a reference until its last
  /// run.
  struct Fanout : des::Job {
    int src = 0;
    int next_dst = 0;  ///< destination of the next sender-CPU run
    int refs = 0;
    ViaNetwork* net = nullptr;
    Bytes bytes = 0;
    static constexpr std::size_t kSize = 48;
    static constexpr std::size_t kAlign = 16;
    alignas(kAlign) unsigned char fn[kSize];  ///< the callable, constructed in place
    void (*invoke)(void* fn, int dst) = nullptr;
    void (*destroy)(void* fn) noexcept = nullptr;  ///< nullptr while the record is free
  };
  static_assert(sizeof(Fanout) <= 128, "a queued broadcast costs one 128-byte record");

  /// One message in flight; `service` holds the NIC transfer time from the
  /// sender NIC until the receiver NIC is done with it.
  struct Msg : des::Job {
    int src = 0;
    int dst = 0;
    bool cpu = false;  ///< send(): charge the destination CPU before delivery
    bool dup = false;  ///< fault: a suppressed copy burns receiver NIC time
    bool bcast = false;  ///< which member of the union below is live
    ViaNetwork* net = nullptr;
    Bytes bytes = 0;
    SimTime extra = 0;  ///< fault: delay before the receiver NIC
    union {
      Fanout* fan = nullptr;  ///< broadcast member: deliver through fan
      des::EventFn* done;     ///< point-to-point continuation (side pool)
    };
  };
  static_assert(sizeof(Msg) <= 80, "a queued message costs at most 80 bytes");

  void check_pair(int src, int dst) const;
  Msg* acquire_msg(int src, int dst, Bytes bytes);
  /// Park a point-to-point continuation in the side pool.
  des::EventFn* acquire_cont(des::EventFn fn);
  /// Return `m` to the pool, destroying its continuation or dropping its
  /// fan-out reference.
  void release(Msg* m);
  Fanout* acquire_fanout(int src);
  void unref(Fanout* fan);
  /// Queue the broadcast's sender-CPU job: one run per peer of `src`.
  void fan_out(int src, Bytes bytes, Fanout* fan);

  // The stages of a message, in order. send() enters at cpu_send,
  // transmit() at nic_send; a broadcast enters at fan_sent.
  void cpu_send(Msg* m);
  static void fan_sent(des::Job* job);
  static void cpu_sent(des::Job* job);
  void nic_send(Msg* m);
  static void tx_done(des::Job* job);
  void wire_done(Msg* m);
  void arrive(Msg* m);
  static void rx_done(des::Job* job);
  void nic_received(Msg* m);
  static void cpu_received(des::Job* job);
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
  std::uint64_t in_flight_ = 0;
  // Free message and fan-out records are linked through their job's
  // `next`, which no resource holds while the record is free.
  std::deque<Msg> msgs_;
  Msg* free_msgs_ = nullptr;
  std::deque<Fanout> fans_;
  Fanout* free_fans_ = nullptr;
  std::deque<des::EventFn> conts_;
  std::vector<des::EventFn*> free_conts_;
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
