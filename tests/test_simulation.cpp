#include <gtest/gtest.h>

#include "l2sim/core/experiment.hpp"
#include "l2sim/core/simulation.hpp"
#include "l2sim/policy/l2s.hpp"
#include "l2sim/policy/lard.hpp"
#include "l2sim/policy/traditional.hpp"
#include "l2sim/trace/synthetic.hpp"

namespace l2s::core {
namespace {

trace::Trace tiny_trace(std::uint64_t requests = 2000, std::uint64_t files = 200) {
  trace::SyntheticSpec spec;
  spec.name = "tiny";
  spec.files = files;
  spec.avg_file_kb = 12.0;
  spec.requests = requests;
  spec.avg_request_kb = 10.0;
  spec.alpha = 0.9;
  spec.seed = 77;
  return trace::generate(spec);
}

SimConfig small_config(int nodes) {
  SimConfig cfg;
  cfg.nodes = nodes;
  cfg.node.cache_bytes = 2 * kMiB;
  return cfg;
}

TEST(Simulation, CompletesEveryRequest) {
  const auto tr = tiny_trace();
  ClusterSimulation sim(small_config(4), tr, std::make_unique<policy::TraditionalPolicy>());
  const auto r = sim.run();
  EXPECT_EQ(r.completed, tr.request_count());
  EXPECT_GT(r.throughput_rps, 0.0);
  EXPECT_GT(r.elapsed_seconds, 0.0);
}

TEST(Simulation, ConnectionsAllClosedAtEnd) {
  const auto tr = tiny_trace();
  ClusterSimulation sim(small_config(4), tr, std::make_unique<policy::L2sPolicy>());
  (void)sim.run();
  for (int n = 0; n < 4; ++n) EXPECT_EQ(sim.node(n).open_connections(), 0);
}

TEST(Simulation, HitPlusMissEqualsLookups) {
  const auto tr = tiny_trace();
  ClusterSimulation sim(small_config(4), tr, std::make_unique<policy::TraditionalPolicy>());
  const auto r = sim.run();
  // Every completed request makes exactly one cache lookup (at its service
  // node), so rates are complementary.
  EXPECT_NEAR(r.hit_rate + r.miss_rate, 1.0, 1e-12);
}

TEST(Simulation, TraditionalNeverForwards) {
  const auto tr = tiny_trace();
  ClusterSimulation sim(small_config(4), tr, std::make_unique<policy::TraditionalPolicy>());
  const auto r = sim.run();
  EXPECT_EQ(r.forwarded, 0u);
  EXPECT_EQ(r.via_messages, 0u);
}

TEST(Simulation, LardForwardsEverythingOnMultiNode) {
  const auto tr = tiny_trace();
  ClusterSimulation sim(small_config(4), tr, std::make_unique<policy::LardPolicy>());
  const auto r = sim.run();
  EXPECT_DOUBLE_EQ(r.forwarded_fraction, 1.0);
}

TEST(Simulation, L2sForwardsLessThanLard) {
  const auto tr = tiny_trace();
  ClusterSimulation l2s_sim(small_config(4), tr, std::make_unique<policy::L2sPolicy>());
  const auto r = l2s_sim.run();
  EXPECT_LT(r.forwarded_fraction, 1.0);
  EXPECT_GT(r.forwarded_fraction, 0.0);
}

TEST(Simulation, SingleNodeDegeneratesForAllPolicies) {
  const auto tr = tiny_trace(1000);
  double throughput[3];
  int i = 0;
  for (auto kind : {PolicyKind::kTraditional, PolicyKind::kLard, PolicyKind::kL2s}) {
    const auto r = run_once(tr, small_config(1), kind);
    EXPECT_EQ(r.forwarded, 0u) << policy_kind_name(kind);
    throughput[i++] = r.throughput_rps;
  }
  // All three reduce to the same sequential server.
  EXPECT_NEAR(throughput[0], throughput[1], throughput[0] * 0.02);
  EXPECT_NEAR(throughput[0], throughput[2], throughput[0] * 0.02);
}

TEST(Simulation, DeterministicAcrossRuns) {
  const auto tr = tiny_trace();
  ClusterSimulation a(small_config(4), tr, std::make_unique<policy::L2sPolicy>());
  ClusterSimulation b(small_config(4), tr, std::make_unique<policy::L2sPolicy>());
  const auto ra = a.run();
  const auto rb = b.run();
  EXPECT_EQ(ra.completed, rb.completed);
  EXPECT_DOUBLE_EQ(ra.throughput_rps, rb.throughput_rps);
  EXPECT_DOUBLE_EQ(ra.hit_rate, rb.hit_rate);
  EXPECT_EQ(ra.forwarded, rb.forwarded);
  EXPECT_EQ(ra.via_messages, rb.via_messages);
}

TEST(Simulation, WarmupImprovesHitRate) {
  const auto tr = tiny_trace(4000);
  SimConfig warm = small_config(2);
  SimConfig cold = small_config(2);
  cold.warmup = false;
  const auto rw =
      ClusterSimulation(warm, tr, std::make_unique<policy::TraditionalPolicy>()).run();
  const auto rc =
      ClusterSimulation(cold, tr, std::make_unique<policy::TraditionalPolicy>()).run();
  EXPECT_GT(rw.hit_rate, rc.hit_rate);
}

TEST(Simulation, UtilizationWithinBounds) {
  const auto tr = tiny_trace();
  ClusterSimulation sim(small_config(4), tr, std::make_unique<policy::L2sPolicy>());
  const auto r = sim.run();
  EXPECT_GE(r.cpu_idle_fraction, 0.0);
  EXPECT_LE(r.cpu_idle_fraction, 1.0);
  ASSERT_EQ(r.node_cpu_utilization.size(), 4u);
  for (const double u : r.node_cpu_utilization) {
    EXPECT_GE(u, 0.0);
    EXPECT_LE(u, 1.0 + 1e-9);
  }
}

TEST(Simulation, ResponseTimesPositive) {
  const auto tr = tiny_trace();
  ClusterSimulation sim(small_config(2), tr, std::make_unique<policy::TraditionalPolicy>());
  const auto r = sim.run();
  EXPECT_GT(r.mean_response_ms, 0.0);
  EXPECT_GE(r.max_response_ms, r.mean_response_ms);
}

TEST(Simulation, RunTwiceRejected) {
  const auto tr = tiny_trace(100);
  ClusterSimulation sim(small_config(2), tr, std::make_unique<policy::TraditionalPolicy>());
  (void)sim.run();
  EXPECT_THROW(sim.run(), Error);
}

TEST(Simulation, ConfigValidation) {
  const auto tr = tiny_trace(100);
  SimConfig bad = small_config(0);
  EXPECT_THROW(ClusterSimulation(bad, tr, std::make_unique<policy::TraditionalPolicy>()),
               Error);
  bad = small_config(2);
  bad.admission.buffer_slots_per_node = 0;
  EXPECT_THROW(ClusterSimulation(bad, tr, std::make_unique<policy::TraditionalPolicy>()),
               Error);
  EXPECT_THROW(ClusterSimulation(small_config(2), tr, nullptr), Error);
  // Only the serial engine exists: any engine.shards but 0 is rejected.
  bad = small_config(2);
  bad.engine.shards = 1;
  EXPECT_THROW(bad.validate(), Error);
}

TEST(Simulation, EmptyTraceRejected) {
  const trace::Trace empty;
  EXPECT_THROW(
      ClusterSimulation(small_config(2), empty, std::make_unique<policy::TraditionalPolicy>()),
      Error);
}

TEST(Simulation, ResultCarriesMetadata) {
  const auto tr = tiny_trace(500);
  const auto r = run_once(tr, small_config(3), PolicyKind::kL2s);
  EXPECT_EQ(r.policy, "l2s");
  EXPECT_EQ(r.trace, "tiny");
  EXPECT_EQ(r.nodes, 3);
  EXPECT_FALSE(r.describe().empty());
}

}  // namespace
}  // namespace l2s::core
