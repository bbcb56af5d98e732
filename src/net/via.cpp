#include "l2sim/net/via.hpp"

#include "l2sim/common/error.hpp"
#include "l2sim/net/flow.hpp"

namespace l2s::net {

ViaNetwork::ViaNetwork(des::Scheduler& sched, Topology& topology,
                       const NetParams& params)
    : sched_(sched), topo_(topology), params_(params) {}

ViaNetwork::~ViaNetwork() {
  // Broadcasts still in flight (a run cut short) own live callables.
  for (Fanout& fan : fans_) {
    if (fan.destroy != nullptr) fan.destroy(fan.fn);
  }
}

int ViaNetwork::add_endpoint(Endpoint ep) {
  L2S_REQUIRE(ep.cpu != nullptr && ep.nic != nullptr);
  endpoints_.push_back(ep);
  return static_cast<int>(endpoints_.size()) - 1;
}

void ViaNetwork::check_pair(int src, int dst) const {
  L2S_REQUIRE(src >= 0 && src < endpoints());
  L2S_REQUIRE(dst >= 0 && dst < endpoints());
  L2S_REQUIRE(src != dst);
}

ViaNetwork::Msg* ViaNetwork::acquire_msg(int src, int dst, Bytes bytes) {
  Msg* m;
  if (free_msgs_.empty()) {
    m = &msgs_.emplace_back();
  } else {
    m = free_msgs_.back();
    free_msgs_.pop_back();
  }
  // A free record has no fan-out reference and no continuation; nic_send
  // sets the transfer time and fault fields.
  m->src = src;
  m->dst = dst;
  m->bytes = bytes;
  m->cpu = false;
  return m;
}

void ViaNetwork::release(Msg* m) {
  if (m->fan != nullptr) {
    unref(m->fan);
    m->fan = nullptr;
  } else {
    m->done = nullptr;
  }
  free_msgs_.push_back(m);
}

ViaNetwork::Fanout* ViaNetwork::acquire_fanout(int src) {
  L2S_REQUIRE(src >= 0 && src < endpoints());
  if (free_fans_.empty()) return &fans_.emplace_back();
  Fanout* fan = free_fans_.back();
  free_fans_.pop_back();
  return fan;
}

void ViaNetwork::unref(Fanout* fan) {
  if (--fan->refs > 0) return;
  fan->destroy(fan->fn);
  fan->destroy = nullptr;
  free_fans_.push_back(fan);
}

void ViaNetwork::fan_out(int src, Bytes bytes, Fanout* fan) {
  fan->refs = 1;  // this loop's own hold, dropped once every message is posted
  for (int dst = 0; dst < endpoints(); ++dst) {
    if (dst == src) continue;
    Msg* m = acquire_msg(src, dst, bytes);
    m->fan = fan;
    ++fan->refs;
    cpu_send(m);
  }
  unref(fan);
}

void ViaNetwork::transmit(int src, int dst, Bytes bytes, des::EventFn on_delivered) {
  check_pair(src, dst);
  Msg* m = acquire_msg(src, dst, bytes);
  m->done = std::move(on_delivered);
  nic_send(m);
}

void ViaNetwork::send(int src, int dst, Bytes bytes, des::EventFn on_delivered) {
  check_pair(src, dst);
  Msg* m = acquire_msg(src, dst, bytes);
  m->done = std::move(on_delivered);
  cpu_send(m);
}

void ViaNetwork::cpu_send(Msg* m) {
  m->cpu = true;
  endpoints_[static_cast<std::size_t>(m->src)].cpu->submit(params_.cpu_msg_time(),
                                                           [this, m]() { nic_send(m); });
}

void ViaNetwork::nic_send(Msg* m) {
  ++messages_;
  des::Resource& tx = endpoints_[static_cast<std::size_t>(m->src)].nic->tx();
  m->xfer = params_.nic_transfer_time(m->bytes);

  LinkFault fault;
  if (fault_model_ != nullptr) fault = fault_model_->on_message(m->src, m->dst);
  if (fault.drop) {
    // The sender still pushes the bytes out; they die in the network.
    ++dropped_;
    tx.submit(m->xfer, []() {});
    release(m);
    return;
  }
  if (fault.duplicate) ++duplicated_;
  if (fault.extra_delay > 0) ++delayed_;
  m->dup = fault.duplicate;
  m->extra = fault.extra_delay;
  tx.submit(m->xfer, [this, m]() {
    topo_.traverse(m->src, m->dst, m->bytes, [this, m]() { wire_done(m); });
  });
}

void ViaNetwork::wire_done(Msg* m) {
  if (m->extra > 0) {
    sched_.after(m->extra, [this, m]() { arrive(m); });
  } else {
    arrive(m);
  }
}

void ViaNetwork::arrive(Msg* m) {
  ++delivered_;
  des::Resource& rx = endpoints_[static_cast<std::size_t>(m->dst)].nic->rx();
  rx.submit(m->xfer, [this, m]() { nic_received(m); });
  // Receiver-side dedup: the copy costs NIC time, nothing fires.
  if (m->dup) rx.submit(m->xfer, []() {});
}

void ViaNetwork::nic_received(Msg* m) {
  if (m->cpu) {
    endpoints_[static_cast<std::size_t>(m->dst)].cpu->submit(params_.cpu_msg_time(),
                                                             [this, m]() { deliver(m); });
  } else {
    deliver(m);
  }
}

void ViaNetwork::deliver(Msg* m) {
  if (m->fan != nullptr) {
    m->fan->invoke(m->fan->fn, m->dst);
  } else {
    m->done();
  }
  release(m);
}

void ViaNetwork::bulk(int src, int dst, Bytes bytes, des::EventFn on_delivered) {
  if (flow_ == nullptr) {
    // Message mode: bulk is byte-for-byte a transmit (the single-switch
    // golden digests depend on this equivalence).
    transmit(src, dst, bytes, std::move(on_delivered));
    return;
  }
  check_pair(src, dst);
  ++messages_;
  LinkFault fault;
  if (fault_model_ != nullptr) fault = fault_model_->on_message(src, dst);
  if (fault.drop) {
    // Flow mode abstracts the NIC queues away, so a dropped bulk transfer
    // burns nothing; it just never arrives (the fault oracle was consulted
    // so replay stays aligned with message mode).
    ++dropped_;
    return;
  }
  if (fault.duplicate) ++duplicated_;  // receiver-side dedup: counted only
  const SimTime extra = fault.extra_delay;
  if (extra > 0) ++delayed_;
  flow_->start(src, dst, bytes,
               [this, extra, done = std::move(on_delivered)]() mutable {
                 auto deliver = [this, done = std::move(done)]() mutable {
                   ++delivered_;
                   done();
                 };
                 if (extra > 0) {
                   sched_.after(extra, std::move(deliver));
                 } else {
                   deliver();
                 }
               });
}

}  // namespace l2s::net
