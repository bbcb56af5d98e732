#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "l2sim/core/simulation.hpp"
#include "l2sim/policy/l2s.hpp"
#include "l2sim/trace/synthetic.hpp"
#include "policy_fixture.hpp"

namespace l2s::policy {
namespace {

using testing::PolicyFixture;

TEST(L2sPolicy, RoundRobinDnsFrontDoor) {
  PolicyFixture f(4);
  L2sPolicy p;
  p.attach(f.ctx);
  for (std::uint64_t seq = 0; seq < 8; ++seq)
    EXPECT_EQ(p.entry_node(seq, PolicyFixture::request_for(0)), static_cast<int>(seq % 4));
}

TEST(L2sPolicy, FirstRequestServedAtEntry) {
  PolicyFixture f(4);
  L2sPolicy p;
  p.attach(f.ctx);
  EXPECT_EQ(p.select_service_node(2, PolicyFixture::request_for(5)), 2);
  EXPECT_EQ(p.server_set_of(2, 5), std::vector<int>{2});
}

TEST(L2sPolicy, FirstRequestAtOverloadedEntryGoesElsewhere) {
  PolicyFixture f(4);
  L2sPolicy p;  // T = 20
  p.attach(f.ctx);
  f.set_load(1, 25);
  const int chosen = p.select_service_node(1, PolicyFixture::request_for(5));
  EXPECT_NE(chosen, 1);
  EXPECT_TRUE(std::find(p.server_set_of(1, 5).begin(), p.server_set_of(1, 5).end(),
                        chosen) != p.server_set_of(1, 5).end());
}

TEST(L2sPolicy, SetChangesBroadcastToAllNodes) {
  PolicyFixture f(4);
  L2sPolicy p;
  p.attach(f.ctx);
  (void)p.select_service_node(2, PolicyFixture::request_for(5));
  EXPECT_TRUE(p.server_set_of(2, 5) == std::vector<int>{2});
  // Other nodes have not heard yet.
  EXPECT_TRUE(p.server_set_of(0, 5).empty());
  f.drain();  // deliver the locality broadcast
  for (int n = 0; n < 4; ++n) EXPECT_EQ(p.server_set_of(n, 5), std::vector<int>{2});
}

TEST(L2sPolicy, ForwardsToCachingNode) {
  PolicyFixture f(4);
  L2sPolicy p;
  p.attach(f.ctx);
  (void)p.select_service_node(2, PolicyFixture::request_for(5));
  f.drain();
  // A later request entering at node 0 is forwarded to the caching node.
  EXPECT_EQ(p.select_service_node(0, PolicyFixture::request_for(5)), 2);
}

TEST(L2sPolicy, ServesLocallyWhenEntryCaches) {
  PolicyFixture f(4);
  L2sPolicy p;
  p.attach(f.ctx);
  (void)p.select_service_node(2, PolicyFixture::request_for(5));
  f.drain();
  f.set_load(2, 10);  // loaded but under T and within local bias of itself
  EXPECT_EQ(p.select_service_node(2, PolicyFixture::request_for(5)), 2);
}

TEST(L2sPolicy, GrowsSetWhenCachingNodeOverloaded) {
  PolicyFixture f(4);
  L2sPolicy p;  // T = 20
  p.attach(f.ctx);
  (void)p.select_service_node(2, PolicyFixture::request_for(5));
  f.drain();
  f.set_load(2, 30);           // caching node overloaded
  p.on_complete(2, PolicyFixture::request_for(5));  // trigger load broadcast
  f.drain();
  // Entry 0 is idle: it should take the file itself (replication).
  const int chosen = p.select_service_node(0, PolicyFixture::request_for(5));
  EXPECT_EQ(chosen, 0);
  EXPECT_GE(p.counters().get("set_grow"), 1u);
  f.drain();
  EXPECT_TRUE(p.server_set_of(3, 5) == p.server_set_of(0, 5));
}

TEST(L2sPolicy, NoGrowthWhenWholeClusterSaturated) {
  PolicyFixture f(4);
  L2sPolicy p;
  p.attach(f.ctx);
  (void)p.select_service_node(2, PolicyFixture::request_for(5));
  f.drain();
  // Everyone overloaded: spare capacity nowhere, so the request stays with
  // the caching node (replication would only thrash).
  for (int n = 0; n < 4; ++n) {
    f.set_load(n, 25);
    p.on_complete(n, PolicyFixture::request_for(5));
  }
  f.drain();
  const auto grows_before = p.counters().get("set_grow");
  EXPECT_EQ(p.select_service_node(0, PolicyFixture::request_for(5)), 2);
  EXPECT_EQ(p.counters().get("set_grow"), grows_before);
}

TEST(L2sPolicy, ExtremeOverloadForcesGrowth) {
  PolicyFixture f(4);
  L2sPolicy p;  // 2T = 40
  p.attach(f.ctx);
  (void)p.select_service_node(2, PolicyFixture::request_for(5));
  f.drain();
  for (int n = 0; n < 4; ++n) f.set_load(n, 25);
  f.set_load(2, 45);  // the caching node is beyond 2T
  for (int n = 0; n < 4; ++n) p.on_complete(n, PolicyFixture::request_for(5));
  f.drain();
  const int chosen = p.select_service_node(0, PolicyFixture::request_for(5));
  EXPECT_NE(chosen, 2);
  EXPECT_GE(p.counters().get("set_grow"), 1u);
}

TEST(L2sPolicy, LoadBroadcastsThrottledByDelta) {
  PolicyFixture f(3);
  L2sPolicy p;  // delta = 4
  p.attach(f.ctx);
  f.set_load(1, 3);
  p.on_complete(1, PolicyFixture::request_for(0));
  f.drain();
  EXPECT_EQ(p.view_of(0, 1), 0);  // drift 3 < 4: no broadcast
  f.set_load(1, 4);
  p.on_service_start(1, PolicyFixture::request_for(0));
  f.drain();
  EXPECT_EQ(p.view_of(0, 1), 4);  // drift 4: broadcast
  EXPECT_EQ(p.view_of(2, 1), 4);
  EXPECT_GE(p.counters().get("load_broadcasts"), 1u);
}

TEST(L2sPolicy, ShrinkPrunesStableReplicatedSets) {
  L2sParams params;
  params.set_shrink_seconds = 0.001;
  PolicyFixture f(4);
  L2sPolicy p(params);
  p.attach(f.ctx);
  // Build a 2-member set for file 5.
  (void)p.select_service_node(2, PolicyFixture::request_for(5));
  f.drain();
  f.set_load(2, 30);
  p.on_complete(2, PolicyFixture::request_for(5));
  f.drain();
  (void)p.select_service_node(0, PolicyFixture::request_for(5));
  f.drain();
  ASSERT_EQ(p.server_set_of(0, 5).size(), 2u);
  // Let the shrink window elapse, with every node underloaded (< t).
  f.set_load(2, 0);
  p.on_complete(2, PolicyFixture::request_for(5));
  f.sched.run_until(f.sched.now() + seconds_to_simtime(0.01));
  (void)p.select_service_node(0, PolicyFixture::request_for(5));
  EXPECT_EQ(p.server_set_of(0, 5).size(), 1u);
  EXPECT_GE(p.counters().get("set_shrink"), 1u);
}

TEST(L2sPolicy, ForwardCostIsMuF) {
  PolicyFixture f(2);
  L2sPolicy p;
  p.attach(f.ctx);
  EXPECT_EQ(p.forward_cpu_time(0), seconds_to_simtime(1.0 / 10000.0));
}

TEST(L2sPolicy, RejectsBadParams) {
  L2sParams bad;
  bad.overload_threshold = 5;
  bad.underload_threshold = 10;
  EXPECT_THROW(L2sPolicy{bad}, l2s::Error);
  bad = L2sParams{};
  bad.broadcast_delta = 0;
  EXPECT_THROW(L2sPolicy{bad}, l2s::Error);
}

TEST(L2sPolicy, OptimisticViewBumpOnForward) {
  PolicyFixture f(3);
  L2sPolicy p;
  p.attach(f.ctx);
  (void)p.select_service_node(1, PolicyFixture::request_for(9));
  f.drain();
  EXPECT_EQ(p.view_of(0, 1), 0);
  (void)p.select_service_node(0, PolicyFixture::request_for(9));  // forwards to 1
  EXPECT_EQ(p.view_of(0, 1), 1);  // node 0 counts its own hand-off
  EXPECT_EQ(p.view_of(2, 1), 0);  // node 2 knows nothing
}

TEST(L2sPolicy, ReplicasShareOneRecordPerSet) {
  constexpr int kNodes = 4;
  PolicyFixture f(kNodes);
  L2sPolicy p;
  p.attach(f.ctx);
  (void)p.select_service_node(2, PolicyFixture::request_for(5));  // node 2 creates {2}
  f.drain();
  for (int a = 0; a < kNodes; ++a)
    for (int b = 0; b < kNodes; ++b) EXPECT_EQ(&p.server_set_of(a, 5), &p.server_set_of(b, 5));

  // Node 2 is overloaded, so a request entering there grows the set onto
  // the least-loaded node (0). Until that broadcast lands, the peers keep
  // the old membership, still shared among themselves.
  f.set_load(2, 30);
  EXPECT_EQ(p.select_service_node(2, PolicyFixture::request_for(5)), 0);
  EXPECT_EQ(p.server_set_of(2, 5), (std::vector<int>{2, 0}));
  for (const int peer : {0, 1, 3}) {
    EXPECT_EQ(p.server_set_of(peer, 5), std::vector<int>{2});
    EXPECT_EQ(&p.server_set_of(peer, 5), &p.server_set_of(0, 5));
    EXPECT_NE(&p.server_set_of(peer, 5), &p.server_set_of(2, 5));
  }
  f.drain();
  for (int a = 0; a < kNodes; ++a) {
    EXPECT_EQ(p.server_set_of(a, 5), (std::vector<int>{2, 0}));
    EXPECT_EQ(&p.server_set_of(a, 5), &p.server_set_of(2, 5));
  }
}

// Locality broadcasts own a hold on their membership record. The VIA
// network that carries them outlives the policy (ClusterSimulation destroys
// its policy first), so the record pool must survive the policy.
TEST(L2sPolicy, PolicyDestroyedWithBroadcastsInFlight) {
  PolicyFixture f(8);
  {
    L2sPolicy p;
    p.attach(f.ctx);
    for (storage::FileId file = 0; file < 24; ++file)
      (void)p.select_service_node(static_cast<int>(file % 8), PolicyFixture::request_for(file));
    for (int i = 0; i < 200; ++i) ASSERT_TRUE(f.sched.step());  // some deliveries land
  }
  EXPECT_GT(f.sched.pending(), 0u);
}

TEST(L2sPolicy, SimulationDestroyedWithBroadcastsInFlight) {
  trace::SyntheticSpec spec;
  spec.name = "teardown";
  spec.files = 50;
  spec.requests = 100;
  spec.seed = 5;
  const trace::Trace tr = trace::generate(spec);
  core::SimConfig cfg;
  cfg.nodes = 8;
  core::ClusterSimulation sim(cfg, tr, std::make_unique<L2sPolicy>());
  for (storage::FileId file = 0; file < 24; ++file)
    (void)sim.policy().select_service_node(static_cast<int>(file % 8),
                                           PolicyFixture::request_for(file));
  for (int i = 0; i < 200; ++i) ASSERT_TRUE(sim.scheduler().step());
  EXPECT_GT(sim.scheduler().pending(), 0u);
}

}  // namespace
}  // namespace l2s::policy
