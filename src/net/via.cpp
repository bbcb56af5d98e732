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
  Msg* m = free_msgs_;
  if (m == nullptr) {
    m = &msgs_.emplace_back();
    m->net = this;
  } else {
    free_msgs_ = static_cast<Msg*>(m->next);
  }
  // The caller sets the fan-out or continuation; nic_send sets the
  // transfer time and fault fields.
  m->src = src;
  m->dst = dst;
  m->bytes = bytes;
  m->cpu = false;
  m->bcast = false;
  return m;
}

des::EventFn* ViaNetwork::acquire_cont(des::EventFn fn) {
  des::EventFn* cont;
  if (free_conts_.empty()) {
    cont = &conts_.emplace_back();
  } else {
    cont = free_conts_.back();
    free_conts_.pop_back();
  }
  *cont = std::move(fn);
  return cont;
}

void ViaNetwork::release(Msg* m) {
  if (m->bcast) {
    unref(m->fan);
  } else {
    *m->done = nullptr;
    free_conts_.push_back(m->done);
  }
  m->next = free_msgs_;
  free_msgs_ = m;
}

ViaNetwork::Fanout* ViaNetwork::acquire_fanout(int src) {
  L2S_REQUIRE(src >= 0 && src < endpoints());
  Fanout* fan = free_fans_;
  if (fan == nullptr) {
    fan = &fans_.emplace_back();
    fan->net = this;
    fan->fire = &ViaNetwork::fan_sent;
  } else {
    free_fans_ = static_cast<Fanout*>(fan->next);
  }
  return fan;
}

void ViaNetwork::unref(Fanout* fan) {
  if (--fan->refs > 0) return;
  fan->destroy(fan->fn);
  fan->destroy = nullptr;
  fan->next = free_fans_;
  free_fans_ = fan;
}

void ViaNetwork::fan_out(int src, Bytes bytes, Fanout* fan) {
  fan->refs = 1;  // the sender-CPU job's hold, dropped after its last run
  if (endpoints() == 1) {
    unref(fan);  // no peers: nothing to send
    return;
  }
  fan->src = src;
  fan->next_dst = src == 0 ? 1 : 0;
  fan->bytes = bytes;
  fan->service = params_.cpu_msg_time();
  fan->repeat = static_cast<std::uint32_t>(endpoints() - 2);
  endpoints_[static_cast<std::size_t>(src)].cpu->submit(fan);
}

void ViaNetwork::transmit(int src, int dst, Bytes bytes, des::EventFn on_delivered) {
  check_pair(src, dst);
  Msg* m = acquire_msg(src, dst, bytes);
  m->done = acquire_cont(std::move(on_delivered));
  nic_send(m);
}

void ViaNetwork::send(int src, int dst, Bytes bytes, des::EventFn on_delivered) {
  check_pair(src, dst);
  Msg* m = acquire_msg(src, dst, bytes);
  m->done = acquire_cont(std::move(on_delivered));
  cpu_send(m);
}

void ViaNetwork::cpu_send(Msg* m) {
  m->cpu = true;
  m->service = params_.cpu_msg_time();
  m->fire = &ViaNetwork::cpu_sent;
  endpoints_[static_cast<std::size_t>(m->src)].cpu->submit(m);
}

void ViaNetwork::fan_sent(des::Job* job) {
  auto* fan = static_cast<Fanout*>(job);
  ViaNetwork& net = *fan->net;
  const int dst = fan->next_dst;
  fan->next_dst = dst + 1 == fan->src ? dst + 2 : dst + 1;
  Msg* m = net.acquire_msg(fan->src, dst, fan->bytes);
  m->bcast = true;
  m->fan = fan;
  m->cpu = true;
  ++fan->refs;
  net.nic_send(m);
  if (fan->next_dst >= net.endpoints()) net.unref(fan);  // that was the last run
}

void ViaNetwork::cpu_sent(des::Job* job) {
  auto* m = static_cast<Msg*>(job);
  m->net->nic_send(m);
}

void ViaNetwork::nic_send(Msg* m) {
  ++messages_;
  des::Resource& tx = endpoints_[static_cast<std::size_t>(m->src)].nic->tx();
  m->service = params_.nic_transfer_time(m->bytes);

  LinkFault fault;
  if (fault_model_ != nullptr) fault = fault_model_->on_message(m->src, m->dst);
  if (fault.drop) {
    // The sender still pushes the bytes out; they die in the network.
    ++dropped_;
    tx.submit(m->service, []() {});
    release(m);
    return;
  }
  ++in_flight_;
  if (fault.duplicate) ++duplicated_;
  if (fault.extra_delay > 0) ++delayed_;
  m->dup = fault.duplicate;
  m->extra = fault.extra_delay;
  m->fire = &ViaNetwork::tx_done;
  tx.submit(m);
}

void ViaNetwork::tx_done(des::Job* job) {
  auto* m = static_cast<Msg*>(job);
  ViaNetwork* net = m->net;
  net->topo_.traverse(m->src, m->dst, m->bytes, [net, m]() { net->wire_done(m); });
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
  --in_flight_;
  des::Resource& rx = endpoints_[static_cast<std::size_t>(m->dst)].nic->rx();
  m->fire = &ViaNetwork::rx_done;
  rx.submit(m);
  // Receiver-side dedup: the copy costs NIC time, nothing fires.
  if (m->dup) rx.submit(m->service, []() {});
}

void ViaNetwork::rx_done(des::Job* job) {
  auto* m = static_cast<Msg*>(job);
  m->net->nic_received(m);
}

void ViaNetwork::nic_received(Msg* m) {
  if (m->cpu) {
    m->service = params_.cpu_msg_time();
    m->fire = &ViaNetwork::cpu_received;
    endpoints_[static_cast<std::size_t>(m->dst)].cpu->submit(m);
  } else {
    deliver(m);
  }
}

void ViaNetwork::cpu_received(des::Job* job) {
  auto* m = static_cast<Msg*>(job);
  m->net->deliver(m);
}

void ViaNetwork::deliver(Msg* m) {
  if (m->bcast) {
    m->fan->invoke(m->fan->fn, m->dst);
  } else {
    (*m->done)();
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
  ++in_flight_;
  if (fault.duplicate) ++duplicated_;  // receiver-side dedup: counted only
  const SimTime extra = fault.extra_delay;
  if (extra > 0) ++delayed_;
  flow_->start(src, dst, bytes,
               [this, extra, done = std::move(on_delivered)]() mutable {
                 auto deliver = [this, done = std::move(done)]() mutable {
                   ++delivered_;
                   --in_flight_;
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
