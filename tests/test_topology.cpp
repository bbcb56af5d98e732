// Topology substrate tests (`ctest -L topo`): geometry validation, the
// per-pair latency/hop contracts of the three interconnects, message-mode
// store-and-forward traversal, flow-level bulk transfers, and the topology
// axis of the golden-digest net: rack-aware / fat-tree / flow-level
// digests pinned.
//
// Regenerating the topology digests (only after an *intentional*
// behaviour change):
//   L2SIM_GOLDEN_PRINT=1 ./build/tests/l2sim_topo_tests
//       --gtest_filter='TopologyGolden.*' 2>&1 | grep GOLDEN
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "l2sim/common/cli_args.hpp"
#include "l2sim/common/error.hpp"
#include "l2sim/core/experiment.hpp"
#include "l2sim/core/simulation.hpp"
#include "l2sim/core/spec.hpp"
#include "l2sim/net/flow.hpp"
#include "l2sim/net/topology.hpp"
#include "l2sim/net/via.hpp"
#include "l2sim/obs/link_introspection.hpp"
#include "l2sim/telemetry/registry.hpp"
#include "l2sim/trace/synthetic.hpp"

namespace l2s {
namespace {

using net::Topology;
using net::TopologyConfig;
using net::TopologyKind;

TopologyConfig rack_config(int racks) {
  TopologyConfig cfg;
  cfg.kind = TopologyKind::kRackAware;
  cfg.racks = racks;
  return cfg;
}

TopologyConfig fat_tree_config(int k) {
  TopologyConfig cfg;
  cfg.kind = TopologyKind::kFatTree;
  cfg.fat_tree_k = k;
  return cfg;
}

// --- geometry validation ----------------------------------------------------

TEST(TopologyConfig_, RejectsIndivisibleRacks) {
  try {
    rack_config(3).validate(4);
    FAIL() << "expected a geometry error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("not divisible"), std::string::npos);
  }
}

TEST(TopologyConfig_, RejectsBadFatTreeGeometry) {
  EXPECT_THROW(fat_tree_config(3).validate(4), Error);   // odd arity
  EXPECT_THROW(fat_tree_config(0).validate(1), Error);   // degenerate arity
  EXPECT_THROW(fat_tree_config(2).validate(4), Error);   // beyond k^3/4 = 2
  fat_tree_config(4).validate(16);                       // at capacity: fine
}

TEST(TopologyConfig_, RejectsZeroSegmentBytes) {
  TopologyConfig cfg;
  cfg.segment_bytes = 0;
  EXPECT_THROW(cfg.validate(4), Error);
}

TEST(TopologyConfig_, SimConfigValidateReportsGeometry) {
  trace::SyntheticSpec spec;
  spec.files = 10;
  spec.requests = 20;
  const auto tr = trace::generate(spec);
  core::SimConfig cfg;
  cfg.nodes = 4;
  cfg.topology = rack_config(3);  // 4 nodes, 3 racks: inconsistent
  EXPECT_THROW(core::run_once(tr, cfg, core::PolicyKind::kTraditional), Error);
}

// --- CLI pass-through -------------------------------------------------------

TEST(TopologyCli, ParsesEveryFlag) {
  const char* argv[] = {"l2sim",          "--topology",      "rack",
                        "--racks",        "2",               "--oversub",
                        "2.5",            "--fat-tree-k",    "8",
                        "--segment-bytes", "4096",           "--flow-level"};
  const CliArgs args(static_cast<int>(std::size(argv)), argv);
  core::ExperimentSpec spec;
  core::apply_topology_cli(args, spec);
  EXPECT_EQ(spec.sim.topology.kind, TopologyKind::kRackAware);
  EXPECT_EQ(spec.sim.topology.racks, 2);
  EXPECT_DOUBLE_EQ(spec.sim.topology.oversubscription, 2.5);
  EXPECT_EQ(spec.sim.topology.fat_tree_k, 8);
  EXPECT_EQ(spec.sim.topology.segment_bytes, 4096u);
  EXPECT_TRUE(spec.sim.topology.flow_level);
}

TEST(TopologyCli, RejectsUnknownKind) {
  const char* argv[] = {"l2sim", "--topology", "mesh"};
  const CliArgs args(static_cast<int>(std::size(argv)), argv);
  core::ExperimentSpec spec;
  try {
    core::apply_topology_cli(args, spec);
    FAIL() << "expected an error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("--topology"), std::string::npos);
  }
}

// --- per-topology latency / hop / traversal contracts -----------------------

TEST(SingleSwitchTopo, IsThePaperFabric) {
  des::Scheduler sched;
  net::NetParams params;
  const auto topo = Topology::make(TopologyConfig{}, sched, params, 8);
  EXPECT_STREQ(topo->name(), "single-switch");
  EXPECT_EQ(topo->racks(), 1);
  EXPECT_EQ(topo->rack_of(7), 0);
  EXPECT_EQ(topo->hops(0, 7), 1);
  EXPECT_EQ(topo->min_latency(0, 7), params.switch_latency());
  EXPECT_EQ(topo->link_count(), 0u);  // contention-free: no Links at all

  SimTime delivered = 0;
  topo->traverse(0, 7, 1 << 20, [&] { delivered = sched.now(); });
  sched.run();
  // Payload-independent pure latency — the golden digests pin this.
  EXPECT_EQ(delivered, params.switch_latency());
  EXPECT_EQ(topo->traversals(), 1u);
}

struct RackFixture {
  des::Scheduler sched;
  net::NetParams params;
  std::unique_ptr<Topology> topo;

  explicit RackFixture(int nodes = 8, int racks = 2) {
    topo = Topology::make(rack_config(racks), sched, params, nodes);
  }
};

TEST(RackAwareTopo, GeometryAndLatencyTiers) {
  RackFixture f;
  EXPECT_STREQ(f.topo->name(), "rack-aware");
  EXPECT_EQ(f.topo->racks(), 2);
  EXPECT_EQ(f.topo->rack_of(3), 0);
  EXPECT_EQ(f.topo->rack_of(4), 1);
  EXPECT_EQ(f.topo->hops(0, 3), 1);
  EXPECT_EQ(f.topo->hops(0, 4), 3);
  EXPECT_EQ(f.topo->min_latency(0, 3), f.params.switch_latency());
  const SimTime core = seconds_to_simtime(rack_config(2).core_latency_s);
  EXPECT_EQ(f.topo->min_latency(0, 4), 2 * f.params.switch_latency() + core);
  // 2 links per rack: up + down.
  EXPECT_EQ(f.topo->link_count(), 4u);
}

TEST(RackAwareTopo, SameRackTraverseIsOneContentionFreeHop) {
  RackFixture f;
  SimTime delivered = 0;
  f.topo->traverse(0, 3, 1 << 20, [&] { delivered = f.sched.now(); });
  f.sched.run();
  EXPECT_EQ(delivered, f.params.switch_latency());  // payload-independent
  EXPECT_EQ(f.topo->link(0).transfers(), 0u);       // uplink untouched
}

TEST(RackAwareTopo, CrossRackTraversePaysLinksAndSwitches) {
  // Trunk capacity: 4 hosts/rack * 1 Gbit/s / oversubscription 4 = 1 Gbit/s,
  // so 1000 bytes take 8 us per capacitated hop. Path: ToR (1us) ->
  // uplink (8us) -> core (1us) -> downlink (8us) -> ToR (1us) = 19 us.
  RackFixture f;
  SimTime delivered = 0;
  f.topo->traverse(0, 4, 1000, [&] { delivered = f.sched.now(); });
  f.sched.run();
  EXPECT_EQ(delivered, 19'000);
  EXPECT_EQ(f.topo->link(0).transfers(), 1u);  // rack0.up
  EXPECT_EQ(f.topo->link(3).transfers(), 1u);  // rack1.down
  EXPECT_EQ(f.topo->link(0).bytes_carried(), 1000u);
}

TEST(RackAwareTopo, BulkTransfersSegmentStoreAndForward) {
  // 40960 bytes = 16KiB + 16KiB + 8KiB segments. The downlink stays busy
  // from the first segment's arrival, so delivery = ToR + first segment's
  // uplink time + core + all three downlink times + ToR:
  //   1000 + 131072 + 1000 + (131072 + 131072 + 65536) + 1000 = 461752 ns.
  RackFixture f;
  SimTime delivered = 0;
  f.topo->traverse(0, 4, 40'960, [&] { delivered = f.sched.now(); });
  f.sched.run();
  EXPECT_EQ(delivered, 461'752);
  EXPECT_EQ(f.topo->link(0).transfers(), 3u);
  EXPECT_EQ(f.topo->link(0).bytes_carried(), 40'960u);
}

TEST(RackAwareTopo, ConcurrentCrossRackTransfersQueueOnTheUplink) {
  RackFixture f;
  SimTime first = 0;
  SimTime second = 0;
  f.topo->traverse(0, 4, 1000, [&] { first = f.sched.now(); });
  f.topo->traverse(1, 5, 1000, [&] { second = f.sched.now(); });
  f.sched.run();
  EXPECT_EQ(first, 19'000);
  EXPECT_EQ(second, 27'000);  // 8 us behind on the shared uplink FIFO
}

TEST(RackAwareTopo, PathLinksNamesTheCapacitatedHops) {
  RackFixture f;
  std::vector<std::size_t> path;
  f.topo->path_links(0, 3, path);
  EXPECT_TRUE(path.empty());  // same rack: contention-free
  f.topo->path_links(0, 4, path);
  ASSERT_EQ(path.size(), 2u);
  EXPECT_EQ(f.topo->link(path[0]).name(), "rack0.up");
  EXPECT_EQ(f.topo->link(path[1]).name(), "rack1.down");
}

struct FatTreeFixture {
  des::Scheduler sched;
  net::NetParams params;
  std::unique_ptr<Topology> topo;

  explicit FatTreeFixture(int k = 4) {
    topo = Topology::make(fat_tree_config(k), sched, params, k * k * k / 4);
  }
};

TEST(FatTreeTopo, HopAndLatencyTiers) {
  FatTreeFixture f;  // k = 4: 16 hosts, 2 per edge, 4 per pod
  EXPECT_STREQ(f.topo->name(), "fat-tree");
  EXPECT_EQ(f.topo->racks(), 8);  // 8 edge switches
  const SimTime sl = f.params.switch_latency();
  const SimTime core = seconds_to_simtime(fat_tree_config(4).core_latency_s);
  EXPECT_EQ(f.topo->hops(0, 1), 1);  // same edge
  EXPECT_EQ(f.topo->hops(0, 2), 3);  // same pod, different edge
  EXPECT_EQ(f.topo->hops(0, 4), 5);  // cross pod
  EXPECT_EQ(f.topo->min_latency(0, 1), sl);
  EXPECT_EQ(f.topo->min_latency(0, 2), 3 * sl);
  EXPECT_EQ(f.topo->min_latency(0, 4), 4 * sl + core);
}

TEST(FatTreeTopo, TraverseChargesEveryTier) {
  FatTreeFixture f;
  SimTime same_pod = 0;
  SimTime cross_pod = 0;
  // 1000 bytes = 8 us per capacitated hop at the 1 Gbit/s line rate.
  f.topo->traverse(0, 2, 1000, [&] { same_pod = f.sched.now(); });
  f.sched.run();
  EXPECT_EQ(same_pod, 19'000);  // 3 switches + 2 link hops

  FatTreeFixture g;
  g.topo->traverse(0, 4, 1000, [&] { cross_pod = g.sched.now(); });
  g.sched.run();
  EXPECT_EQ(cross_pod, 37'000);  // 4 switches + core + 4 link hops
}

TEST(FatTreeTopo, RoutingIsDeterministicPerPair) {
  FatTreeFixture f;
  std::vector<std::size_t> a;
  std::vector<std::size_t> b;
  f.topo->path_links(0, 12, a);
  f.topo->path_links(0, 12, b);
  EXPECT_EQ(a, b);
  ASSERT_EQ(a.size(), 4u);  // cross-pod: edge-up, agg-up, agg-down, edge-down
  for (const std::size_t id : a) EXPECT_LT(id, f.topo->link_count());

  std::vector<std::size_t> same_edge;
  f.topo->path_links(0, 1, same_edge);
  EXPECT_TRUE(same_edge.empty());
  std::vector<std::size_t> same_pod;
  f.topo->path_links(0, 2, same_pod);
  EXPECT_EQ(same_pod.size(), 2u);
}

// --- flow-level bulk transfers ----------------------------------------------

TEST(FlowLevel, SingleFlowRunsAtTheBottleneckRatePlusLatencyFloor) {
  RackFixture f;
  net::FlowNetwork flow(f.sched, *f.topo, f.params);
  SimTime delivered = 0;
  flow.start(0, 4, 1 << 20, [&] { delivered = f.sched.now(); });
  f.sched.run();
  // 8388608 bits at the 1 Gbit/s bottleneck + 3 us cross-rack floor.
  EXPECT_NEAR(static_cast<double>(delivered), 8'388'608.0 + 3'000.0, 16.0);
  EXPECT_EQ(flow.flows_completed(), 1u);
  // One recompute at start; the finish leaves no flows to re-share.
  EXPECT_EQ(flow.rate_recomputes(), 1u);
  EXPECT_GT(f.topo->link(0).flow_bits(), 8'388'000.0);
}

TEST(FlowLevel, CompetingFlowsShareTheUplinkMaxMin) {
  RackFixture f;
  net::FlowNetwork flow(f.sched, *f.topo, f.params);
  SimTime first = 0;
  SimTime second = 0;
  flow.start(0, 4, 1 << 20, [&] { first = f.sched.now(); });
  flow.start(1, 5, 1 << 20, [&] { second = f.sched.now(); });
  f.sched.run();
  // Both flows cross rack0.up: max-min gives each half the trunk, so both
  // finish at ~2x the solo transmission time.
  EXPECT_NEAR(static_cast<double>(first), 16'777'216.0 + 3'000.0, 32.0);
  EXPECT_NEAR(static_cast<double>(second), 16'777'216.0 + 3'000.0, 32.0);
  EXPECT_EQ(flow.max_concurrent(), 2u);
  EXPECT_EQ(flow.flows_completed(), 2u);
}

TEST(FlowLevel, ViaBulkIsTransmitWhenNoFlowNetworkIsAttached) {
  // bulk() == transmit() without a flow network — the single-switch golden
  // digests depend on this equivalence.
  des::Scheduler s1;
  net::NetParams params;
  net::SingleSwitch t1{s1, params, 2};
  net::ViaNetwork v1{s1, t1, params};
  des::Scheduler s2;
  net::SingleSwitch t2{s2, params, 2};
  net::ViaNetwork v2{s2, t2, params};
  std::vector<std::unique_ptr<des::Resource>> cpus;
  std::vector<std::unique_ptr<net::Nic>> nics;
  struct Rig {
    des::Scheduler* sched;
    net::ViaNetwork* via;
  };
  for (const Rig rig : {Rig{&s1, &v1}, Rig{&s2, &v2}}) {
    for (int i = 0; i < 2; ++i) {
      cpus.push_back(std::make_unique<des::Resource>(*rig.sched, "cpu"));
      nics.push_back(std::make_unique<net::Nic>(*rig.sched, "node"));
      rig.via->add_endpoint({cpus.back().get(), nics.back().get()});
    }
  }
  SimTime bulk_done = 0;
  SimTime transmit_done = 0;
  v1.bulk(0, 1, 20'000, [&] { bulk_done = s1.now(); });
  s1.run();
  v2.transmit(0, 1, 20'000, [&] { transmit_done = s2.now(); });
  s2.run();
  EXPECT_EQ(bulk_done, transmit_done);
}

TEST(FlowLevel, ViaBulkRidesTheFlowNetworkWhenAttached) {
  des::Scheduler sched;
  net::NetParams params;
  const auto topo = Topology::make(rack_config(2), sched, params, 8);
  net::ViaNetwork via{sched, *topo, params};
  std::vector<std::unique_ptr<des::Resource>> cpus;
  std::vector<std::unique_ptr<net::Nic>> nics;
  for (int i = 0; i < 8; ++i) {
    cpus.push_back(std::make_unique<des::Resource>(sched, "cpu"));
    nics.push_back(std::make_unique<net::Nic>(sched, "node"));
    via.add_endpoint({cpus.back().get(), nics.back().get()});
  }
  net::FlowNetwork flow(sched, *topo, params);
  via.set_flow_network(&flow);
  SimTime delivered = 0;
  via.bulk(0, 4, 1 << 20, [&] { delivered = sched.now(); });
  sched.run();
  EXPECT_EQ(flow.flows_completed(), 1u);
  EXPECT_EQ(via.messages_delivered(), 1u);
  EXPECT_GT(delivered, 8'388'608);  // paid the fluid transmission time
}

// --- broadcast rides per-destination topology paths -------------------------

TEST(Broadcast, IsHopAccuratePerTopologyPath) {
  des::Scheduler sched;
  net::NetParams params;
  const auto topo = Topology::make(rack_config(2), sched, params, 4);
  net::ViaNetwork via{sched, *topo, params};
  std::vector<std::unique_ptr<des::Resource>> cpus;
  std::vector<std::unique_ptr<net::Nic>> nics;
  for (int i = 0; i < 4; ++i) {
    cpus.push_back(std::make_unique<des::Resource>(sched, "cpu"));
    nics.push_back(std::make_unique<net::Nic>(sched, "node"));
    via.add_endpoint({cpus.back().get(), nics.back().get()});
  }
  std::vector<SimTime> delivered(4, 0);
  via.broadcast(0, 16, [&](int dst) { delivered[static_cast<std::size_t>(dst)] = sched.now(); });
  sched.run();
  EXPECT_EQ(via.messages_sent(), 3u);
  EXPECT_EQ(topo->traversals(), 3u);  // one per-destination path, each charged
  // Node 1 shares node 0's rack (one ToR hop); nodes 2 and 3 cross the
  // oversubscribed core. The same-rack copy lands first even though the
  // sender NIC serialized it first/earlier copies.
  EXPECT_GT(delivered[1], 0);
  EXPECT_LT(delivered[1], delivered[2]);
  EXPECT_LT(delivered[2], delivered[3]);  // shared uplink FIFO ordering
}

// --- link introspection -----------------------------------------------------

TEST(LinkIntrospection, ExportsGaugesAndCounters) {
  RackFixture f;
  SimTime done = 0;
  f.topo->traverse(0, 4, 1000, [&] { done = f.sched.now(); });
  f.sched.run();
  ASSERT_GT(done, 0);
  telemetry::Registry registry;
  obs::export_link_utilization(registry, *f.topo, f.sched.now());
  const auto snap = registry.snapshot();
  const auto* traversals = snap.find("net.traversals");
  ASSERT_NE(traversals, nullptr);
  EXPECT_EQ(traversals->count, 1u);
  const auto* util = snap.find("net.link.utilization", {{"link", "rack0.up"}});
  ASSERT_NE(util, nullptr);
  EXPECT_GT(util->value, 0.0);
  const auto* bytes = snap.find("net.link.bytes", {{"link", "rack1.down"}});
  ASSERT_NE(bytes, nullptr);
  EXPECT_EQ(bytes->count, 1000u);
}

TEST(LinkIntrospection, ReportRendersLinkTableAndRackMatrix) {
  RackFixture f;
  f.topo->traverse(0, 4, 1000, [] {});
  f.sched.run();
  std::ostringstream out;
  obs::write_topology_report(out, *f.topo, f.sched.now());
  const std::string report = out.str();
  EXPECT_NE(report.find("rack-aware"), std::string::npos);
  EXPECT_NE(report.find("rack0.up"), std::string::npos);
  EXPECT_NE(report.find("rack\\rack"), std::string::npos);
}

TEST(LinkIntrospection, ClusterRunExportsLinkGaugesIntoTelemetry) {
  trace::SyntheticSpec spec;
  spec.files = 30;
  spec.requests = 120;
  const auto tr = trace::generate(spec);
  core::SimConfig cfg;
  cfg.nodes = 4;
  cfg.topology = rack_config(2);
  cfg.persistence.mean_requests_per_connection = 4.0;
  cfg.persistence.mode = core::PersistentMode::kBackendForwarding;
  cfg.telemetry.enabled = true;
  const auto r = core::run_once(tr, cfg, core::PolicyKind::kLard);
  ASSERT_NE(r.telemetry, nullptr);
  EXPECT_NE(r.telemetry->find("net.traversals"), nullptr);
  EXPECT_NE(r.telemetry->find("net.link.utilization", {{"link", "rack0.up"}}),
            nullptr);
}

// --- the topology golden-digest axis ----------------------------------------

struct TopoCell {
  std::string name;
  core::SimConfig cfg;
  core::PolicyKind kind;
};

trace::Trace topo_golden_trace() {
  trace::SyntheticSpec spec;
  spec.name = "golden";
  spec.files = 250;
  spec.avg_file_kb = 8.0;
  spec.requests = 3000;
  spec.avg_request_kb = 6.0;
  spec.alpha = 0.9;
  spec.seed = 2024;
  return trace::generate(spec);
}

std::vector<TopoCell> topology_matrix() {
  struct Policy {
    const char* tag;
    core::PolicyKind kind;
  };
  struct Topo {
    const char* tag;
    TopologyConfig cfg;
  };
  TopologyConfig rack = rack_config(2);
  TopologyConfig rackflow = rack_config(2);
  rackflow.flow_level = true;
  const std::vector<Policy> policies = {{"trad", core::PolicyKind::kTraditional},
                                        {"lard", core::PolicyKind::kLard},
                                        {"l2s", core::PolicyKind::kL2s}};
  const std::vector<Topo> topos = {
      {"rack", rack}, {"fattree", fat_tree_config(4)}, {"rackflow", rackflow}};

  std::vector<TopoCell> cells;
  for (const auto& p : policies) {
    for (const auto& t : topos) {
      for (const bool crash : {false, true}) {
        TopoCell c;
        c.kind = p.kind;
        c.name = std::string(p.tag) + "|" + t.tag + (crash ? "|crash" : "|nofault");
        c.cfg.nodes = 4;
        c.cfg.node.cache_bytes = 2 * kMiB;
        c.cfg.persistence.mean_requests_per_connection = 4.0;
        c.cfg.persistence.mode = core::PersistentMode::kBackendForwarding;
        c.cfg.topology = t.cfg;
        if (crash) c.cfg.fault_plan.crashes.push_back({1, 0.15});
        cells.push_back(std::move(c));
      }
    }
  }
  return cells;
}

// Digests recorded at the topology substrate's introduction; the rack and
// fat-tree cells extend the 36-cell single-switch net (which is pinned,
// unchanged, in test_golden_results.cpp) with a topology axis.
// Note the traditional-policy cells reproduce the single-switch backend
// digests from test_golden_results.cpp bit-for-bit: a traditional server
// never forwards between nodes, so no message ever crosses the fabric and
// the topology cannot perturb it. LARD and L2S forward constantly, so
// their digests move with the interconnect.
const std::vector<std::pair<std::string, std::string>> kTopoGolden = {
    {"trad|rack|nofault", "f81a1d14a59747f6"},
    {"trad|rack|crash", "83fefe0734008b30"},
    {"trad|fattree|nofault", "f81a1d14a59747f6"},
    {"trad|fattree|crash", "83fefe0734008b30"},
    {"trad|rackflow|nofault", "f81a1d14a59747f6"},
    {"trad|rackflow|crash", "83fefe0734008b30"},
    {"lard|rack|nofault", "3456f1ace5729135"},
    {"lard|rack|crash", "353fc14e95428c42"},
    {"lard|fattree|nofault", "11f14e5407ff7b7f"},
    {"lard|fattree|crash", "52080e48b0a6d290"},
    {"lard|rackflow|nofault", "9ca3ff4254acd326"},
    {"lard|rackflow|crash", "7ef3f05f1b878c5d"},
    {"l2s|rack|nofault", "15d9ad7e5580cafb"},
    {"l2s|rack|crash", "36fd24245f17290c"},
    {"l2s|fattree|nofault", "83dd37528ec29bd6"},
    {"l2s|fattree|crash", "8a4a78dc067af53e"},
    {"l2s|rackflow|nofault", "b184f65f71ebe76c"},
    {"l2s|rackflow|crash", "e5abe1c7ed657393"},
};

TEST(TopologyGolden, MatrixMatchesRecordedDigests) {
  const auto tr = topo_golden_trace();
  const auto cells = topology_matrix();
  const bool print = std::getenv("L2SIM_GOLDEN_PRINT") != nullptr;

  std::vector<std::pair<std::string, std::string>> got;
  for (const auto& c : cells) {
    const auto r = core::run_once(tr, c.cfg, c.kind);
    got.emplace_back(c.name, core::result_digest_hex(r));
  }
  if (print) {
    for (const auto& [name, d] : got)
      std::printf("GOLDEN    {\"%s\", \"%s\"},\n", name.c_str(), d.c_str());
    return;
  }
  ASSERT_EQ(got.size(), kTopoGolden.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].first, kTopoGolden[i].first);
    EXPECT_EQ(got[i].second, kTopoGolden[i].second) << got[i].first;
  }
}

TEST(TopologyGolden, OneRackRackAwareMatchesTheSingleSwitch) {
  // A one-rack rack-aware fabric routes everything through the same
  // contention-free ToR hop the paper's switch models, so its digest must
  // equal the default single-switch run — the identity that anchors the
  // topology axis to the 36 pinned golden cells.
  const auto tr = topo_golden_trace();
  core::SimConfig base;
  base.nodes = 4;
  base.node.cache_bytes = 2 * kMiB;
  base.persistence.mean_requests_per_connection = 4.0;
  base.persistence.mode = core::PersistentMode::kBackendForwarding;
  const auto single = core::run_once(tr, base, core::PolicyKind::kLard);

  core::SimConfig one_rack = base;
  one_rack.topology = rack_config(1);
  const auto racked = core::run_once(tr, one_rack, core::PolicyKind::kLard);
  EXPECT_EQ(core::result_digest_hex(single), core::result_digest_hex(racked));
}

}  // namespace
}  // namespace l2s
