#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "l2sim/common/error.hpp"
#include "l2sim/des/resource.hpp"
#include "l2sim/net/via.hpp"

namespace l2s::net {
namespace {

struct ViaFixture {
  des::Scheduler sched;
  NetParams params;
  SingleSwitch fabric{sched, params, 64};
  ViaNetwork via{sched, fabric, params};
  std::vector<std::unique_ptr<des::Resource>> cpus;
  std::vector<std::unique_ptr<Nic>> nics;

  explicit ViaFixture(int nodes) {
    for (int i = 0; i < nodes; ++i) {
      cpus.push_back(std::make_unique<des::Resource>(sched, "cpu" + std::to_string(i)));
      nics.push_back(std::make_unique<Nic>(sched, "node" + std::to_string(i)));
      via.add_endpoint({cpus.back().get(), nics.back().get()});
    }
  }
};

TEST(Via, SendTakes19usOneWayForTinyMessage) {
  ViaFixture f(2);
  SimTime delivered = 0;
  f.via.send(0, 1, 4, [&] { delivered = f.sched.now(); });
  f.sched.run();
  EXPECT_NEAR(simtime_to_seconds(delivered), 19e-6, 0.1e-6);
}

TEST(Via, TransmitSkipsCpuOverheads) {
  ViaFixture f(2);
  SimTime delivered = 0;
  f.via.transmit(0, 1, 4, [&] { delivered = f.sched.now(); });
  f.sched.run();
  // 6us + wire each NIC + 1us switch = ~13us.
  EXPECT_NEAR(simtime_to_seconds(delivered), 13e-6, 0.2e-6);
}

TEST(Via, PayloadAddsTransferTime) {
  ViaFixture f(2);
  SimTime small = 0;
  SimTime large = 0;
  f.via.transmit(0, 1, 4, [&] { small = f.sched.now(); });
  f.sched.run();
  ViaFixture g(2);
  g.via.transmit(0, 1, 125000, [&] { large = g.sched.now(); });
  g.sched.run();
  // 125000 bytes = 1 ms on the wire, paid at both NICs.
  EXPECT_NEAR(simtime_to_seconds(large - small), 2e-3, 1e-5);
}

TEST(Via, BroadcastReachesAllOthers) {
  ViaFixture f(4);
  std::vector<int> arrived;
  f.via.broadcast(1, 16, [&](int dst) { arrived.push_back(dst); });
  f.sched.run();
  std::sort(arrived.begin(), arrived.end());
  EXPECT_EQ(arrived, (std::vector<int>{0, 2, 3}));
  EXPECT_EQ(f.via.messages_sent(), 3u);
}

TEST(Via, HealthyBroadcastUsesNoArenaBlocks) {
  // Every stage event of every message captures only the network and the
  // message record, so a broadcast schedules nothing that spills.
  ViaFixture f(16);
  std::vector<int> arrived;
  arrived.reserve(16);
  const des::EventArena::Stats before = des::EventArena::stats();
  f.via.broadcast(3, 16, [&arrived](int dst) { arrived.push_back(dst); });
  f.sched.run();
  const des::EventArena::Stats after = des::EventArena::stats();
  EXPECT_EQ(arrived.size(), 15u);
  EXPECT_EQ(f.via.in_flight(), 0u);
  EXPECT_EQ(after.fresh_blocks, before.fresh_blocks);
  EXPECT_EQ(after.reused_blocks, before.reused_blocks);
}

TEST(Via, MessagesShareCpuWithOtherWork) {
  ViaFixture f(2);
  // Occupy the sender's CPU; the VIA send must wait its turn.
  f.cpus[0]->submit(seconds_to_simtime(1e-3), [] {});
  SimTime delivered = 0;
  f.via.send(0, 1, 4, [&] { delivered = f.sched.now(); });
  f.sched.run();
  EXPECT_NEAR(simtime_to_seconds(delivered), 1e-3 + 19e-6, 1e-6);
}

TEST(Via, SelfTransmitRejected) {
  ViaFixture f(2);
  EXPECT_THROW(f.via.transmit(1, 1, 4, [] {}), l2s::Error);
}

TEST(Via, BadEndpointRejected) {
  ViaFixture f(2);
  EXPECT_THROW(f.via.transmit(0, 5, 4, [] {}), l2s::Error);
  EXPECT_THROW(f.via.send(-1, 0, 4, [] {}), l2s::Error);
  EXPECT_THROW(f.via.add_endpoint({nullptr, nullptr}), l2s::Error);
}

TEST(Via, StatsCountAndReset) {
  ViaFixture f(3);
  f.via.send(0, 1, 4, [] {});
  f.via.send(1, 2, 4, [] {});
  f.sched.run();
  EXPECT_EQ(f.via.messages_sent(), 2u);
  f.via.reset_stats();
  EXPECT_EQ(f.via.messages_sent(), 0u);
}

TEST(Via, QueuedBroadcastHoldsOneRecord) {
  // Behind a busy sender CPU, a broadcast is one fan-out record whose
  // sender-CPU job stands for all N-1 CPU charges; each message record is
  // taken only when its charge has been served.
  ViaFixture f(8);
  const SimTime busy = seconds_to_simtime(1e-3);
  f.cpus[2]->submit(busy, [] {});
  std::vector<int> arrived;
  f.via.broadcast(2, 16, [&arrived](int dst) { arrived.push_back(dst); });
  EXPECT_EQ(f.via.pool_sizes().fanouts, 1u);
  EXPECT_EQ(f.via.pool_sizes().messages, 0u);
  EXPECT_EQ(f.cpus[2]->queue_length(), 7u);

  f.sched.run_until(busy + f.params.cpu_msg_time());
  EXPECT_EQ(f.via.messages_sent(), 1u);
  EXPECT_EQ(f.via.pool_sizes().messages, 1u);
  EXPECT_EQ(f.cpus[2]->queue_length(), 5u);  // the sixth run is in service

  f.sched.run();
  EXPECT_EQ(arrived, (std::vector<int>{0, 1, 3, 4, 5, 6, 7}));
  EXPECT_EQ(f.cpus[2]->jobs_completed(), 8u);
  EXPECT_EQ(f.cpus[2]->busy_time(), busy + 7 * f.params.cpu_msg_time());
  EXPECT_EQ(f.via.pool_sizes().fanouts, 1u);
  EXPECT_EQ(f.via.pool_sizes().continuations, 0u);
  EXPECT_EQ(f.via.in_flight(), 0u);
}

TEST(Via, InFlightSurvivesStatsReset) {
  // The warm-up reset zeroes the counters while messages are on the wire;
  // in_flight() must still count them, and count them down as they land.
  ViaFixture f(3);
  f.via.transmit(0, 1, 4, [] {});
  f.via.transmit(0, 2, 4, [] {});
  f.sched.run_until(seconds_to_simtime(1e-6));  // both queued at the sender NIC
  EXPECT_EQ(f.via.in_flight(), 2u);
  f.via.reset_stats();
  EXPECT_EQ(f.via.messages_sent(), 0u);
  EXPECT_EQ(f.via.in_flight(), 2u);
  f.via.transmit(1, 2, 4, [] {});
  EXPECT_EQ(f.via.in_flight(), 3u);
  // 0 -> 1 lands at ~7 us and 1 -> 2 at ~8 us; 0 -> 2 waited for the
  // sender NIC and lands at ~13 us.
  f.sched.run_until(seconds_to_simtime(10e-6));
  EXPECT_EQ(f.via.messages_delivered(), 2u);
  EXPECT_EQ(f.via.in_flight(), 1u);
  f.sched.run();
  EXPECT_EQ(f.via.in_flight(), 0u);
}

TEST(Via, TeardownWithMessagesQueuedAtBothEnds) {
  // The network dies first, while its records still sit in CPU queues: a
  // broadcast's sender-CPU job behind a busy sender, broadcast and
  // point-to-point messages behind a busy receiver. Every callable dies with
  // the network; the resources and the scheduler die after it without
  // touching the records.
  auto token = std::make_shared<int>(0);
  {
    des::Scheduler sched;
    NetParams params;
    SingleSwitch fabric{sched, params, 4};
    std::vector<std::unique_ptr<des::Resource>> cpus;
    std::vector<std::unique_ptr<Nic>> nics;
    auto via = std::make_unique<ViaNetwork>(sched, fabric, params);
    for (int i = 0; i < 4; ++i) {
      cpus.push_back(std::make_unique<des::Resource>(sched, "cpu" + std::to_string(i)));
      nics.push_back(std::make_unique<Nic>(sched, "node" + std::to_string(i)));
      via->add_endpoint({cpus.back().get(), nics.back().get()});
    }
    const SimTime busy = seconds_to_simtime(1e-3);
    cpus[0]->submit(busy, [] {});
    cpus[1]->submit(busy, [] {});
    via->broadcast(0, 16, [token](int) {});
    via->broadcast(2, 16, [token](int) {});
    via->send(3, 1, 16, [token] {});
    sched.run_until(seconds_to_simtime(100e-6));
    EXPECT_EQ(cpus[0]->queue_length(), 4u);  // 3 batch runs + 1 message from 2
    EXPECT_EQ(cpus[1]->queue_length(), 2u);  // from 2 (broadcast) and 3 (send)
    EXPECT_EQ(via->pool_sizes().continuations, 1u);
    EXPECT_EQ(token.use_count(), 4);
    via.reset();
    EXPECT_EQ(token.use_count(), 1);
  }
  EXPECT_EQ(token.use_count(), 1);
}

}  // namespace
}  // namespace l2s::net
