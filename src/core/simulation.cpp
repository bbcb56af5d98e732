#include "l2sim/core/simulation.hpp"

#include <algorithm>

#include "l2sim/common/error.hpp"
#include "l2sim/core/engine/admission.hpp"
#include "l2sim/core/engine/arrival.hpp"
#include "l2sim/core/engine/dispatch.hpp"
#include "l2sim/core/engine/metrics_collector.hpp"
#include "l2sim/core/engine/overload.hpp"
#include "l2sim/core/engine/persistent_path.hpp"
#include "l2sim/core/engine/retry.hpp"
#include "l2sim/core/engine/service_path.hpp"
#include "l2sim/obs/link_introspection.hpp"
#include "l2sim/obs/recorder.hpp"
#include "l2sim/telemetry/sim_telemetry.hpp"

namespace l2s::core {

namespace {

/// Build the interconnect for the run. Validates the topology geometry
/// first so a bad --racks / --fat-tree-k reports through the config error
/// path instead of tripping a constructor invariant. Takes the *member*
/// config (whose NetParams the topology keeps a reference to for its
/// lifetime), never the constructor parameter.
std::unique_ptr<net::Topology> make_topology(const SimConfig& config,
                                             des::Scheduler& sched) {
  const int nodes = std::max(1, config.nodes);
  config.topology.validate(nodes);
  return net::Topology::make(config.topology, sched, config.net, nodes);
}

}  // namespace

ClusterSimulation::ClusterSimulation(SimConfig config, const trace::Trace& trace,
                                     std::unique_ptr<policy::Policy> policy)
    : config_(config),
      trace_(trace),
      topo_(make_topology(config_, sched_)),
      router_(sched_, config_.net),
      via_(sched_, *topo_, config_.net),
      policy_(std::move(policy)),
      rng_(config.seed) {
  config_.validate();
  L2S_REQUIRE(policy_ != nullptr);
  if (trace_.request_count() == 0) throw_error("ClusterSimulation: empty trace");
  if (config_.topology.flow_level) {
    flow_ = std::make_unique<net::FlowNetwork>(sched_, *topo_, config_.net);
    via_.set_flow_network(flow_.get());
  }

  policy::ClusterContext pctx;
  pctx.sched = &sched_;
  pctx.via = &via_;
  pctx.control_msg_bytes = config_.control_msg_bytes;
  for (int i = 0; i < config_.nodes; ++i) {
    const double speed = config_.node_speed_factors.empty()
                             ? 1.0
                             : config_.node_speed_factors[static_cast<std::size_t>(i)];
    nodes_.push_back(std::make_unique<cluster::Node>(sched_, i, config_.node, speed));
    nodes_.back()->set_rack(topo_->rack_of(i));
    via_.add_endpoint({&nodes_.back()->cpu(), &nodes_.back()->nic()});
    pctx.nodes.push_back(nodes_.back().get());
  }
  policy_->attach(pctx);

  // Wire the engine: every component reaches its collaborators through
  // ctx_, and every lifecycle event fans out to the metrics collector.
  ctx_.config = &config_;
  ctx_.trace = &trace_;
  ctx_.sched = &sched_;
  ctx_.router = &router_;
  ctx_.via = &via_;
  ctx_.topology = topo_.get();
  ctx_.flow = flow_.get();
  ctx_.policy = policy_.get();
  ctx_.nodes = &nodes_;
  ctx_.rng = &rng_;
  ctx_.observers = &fanout_;
  admission_ = std::make_unique<engine::AdmissionController>(ctx_);
  arrival_ = std::make_unique<engine::ArrivalSource>(ctx_);
  dispatcher_ = std::make_unique<engine::Dispatcher>(ctx_);
  retry_ = std::make_unique<engine::RetryManager>(ctx_);
  service_ = std::make_unique<engine::ServicePath>(ctx_);
  persistent_ = std::make_unique<engine::PersistentPath>(ctx_);
  overload_ = std::make_unique<engine::OverloadController>(ctx_);
  metrics_ = std::make_unique<engine::MetricsCollector>(ctx_);
  ctx_.admission = admission_.get();
  ctx_.arrival = arrival_.get();
  ctx_.dispatcher = dispatcher_.get();
  ctx_.retry = retry_.get();
  ctx_.service = service_.get();
  ctx_.persistent = persistent_.get();
  ctx_.overload = overload_.get();
  fanout_.add(metrics_.get());
  if (config_.telemetry.enabled) {
    telemetry_ = std::make_unique<telemetry::SimTelemetry>(ctx_, config_.telemetry);
    fanout_.add(telemetry_.get());
  }
  if (config_.obs.active()) {
    recorder_ = std::make_unique<obs::FlightRecorder>(ctx_, config_.obs);
    fanout_.add(recorder_.get());
  }
}

ClusterSimulation::~ClusterSimulation() = default;

SimResult ClusterSimulation::run() {
  L2S_REQUIRE(!ran_);
  ran_ = true;

  int pass = 0;
  if (config_.warmup) {
    // Warm-up replays at nominal stationary load with every chaos source
    // quiet — no faults (armed below), no arrival shaping, no overload
    // defenses (ctx_.measured_pass gates them) — so measurement starts
    // from the warm steady state the chaos is supposed to disrupt.
    policy_->on_pass_start(pass++);
    replay_trace();
    reset_statistics();
  }
  ctx_.measured_pass = true;
  const SimTime measure_start = sched_.now();
  policy_->on_pass_start(pass);
  metrics_->begin_measurement(measure_start);
  if (telemetry_) telemetry_->begin_measurement(measure_start);
  arm_faults(measure_start);
  replay_trace();
  SimResult result = metrics_->collect(measure_start, detector_.get());
  if (telemetry_) {
    // Passive read of the interconnect's link accounting — registered just
    // before the snapshot so per-link gauges ride in it (digest-inert).
    obs::export_link_utilization(telemetry_->registry(), *topo_,
                                 sched_.now() - measure_start);
    result.telemetry =
        std::make_shared<const telemetry::Snapshot>(telemetry_->snapshot());
  }
  if (recorder_ && config_.obs.enabled) {
    result.decisions = std::make_shared<const obs::DecisionTrace>(recorder_->trace());
  }
  return result;
}

void ClusterSimulation::replay_trace() {
  admission_->open();
  overload_->begin_pass();
  arrival_->start();
  overload_->start();
  metrics_->start_sampling();
  sched_.run();
  L2S_REQUIRE(admission_->drained());
}

void ClusterSimulation::arm_faults(SimTime measure_start) {
  const SimTime detect_delay = seconds_to_simtime(config_.failure_detection_seconds);
  const bool heartbeats = config_.detection.heartbeats;

  if (!config_.fault_plan.empty()) {
    fault::FaultRuntime::Hooks hooks;
    hooks.on_crash = [this, detect_delay, heartbeats](int node, SimTime at) {
      fanout_.on_node_crashed(node, at);
      if (heartbeats) return;  // the heartbeat detector notices by itself
      sched_.after(detect_delay, [this, node]() {
        policy_->on_node_failed(node);
        fanout_.on_node_detected(node, sched_.now());
      });
    };
    hooks.on_recover = [this, detect_delay, heartbeats](int node, SimTime at) {
      fanout_.on_node_repaired(node, at);
      if (heartbeats) return;
      sched_.after(detect_delay, [this, node]() {
        policy_->on_node_recovered(node);
        fanout_.on_node_readmitted(node, sched_.now());
      });
    };
    std::vector<cluster::Node*> ptrs;
    for (const auto& n : nodes_) ptrs.push_back(n.get());
    // The fault Rng is derived from the seed without touching rng_, so
    // adding message faults never perturbs the trace-side random streams.
    fault_runtime_ = std::make_unique<fault::FaultRuntime>(
        sched_, std::move(ptrs), config_.fault_plan,
        Rng(config_.seed ^ 0xFA17'5EED'0000'0001ULL));
    via_.set_fault_model(fault_runtime_.get());
    fault_runtime_->arm(measure_start, std::move(hooks));
  }

  if (heartbeats) {
    std::vector<cluster::Node*> ptrs;
    for (const auto& n : nodes_) ptrs.push_back(n.get());
    detector_ = std::make_unique<fault::FailureDetector>(
        sched_, via_, std::move(ptrs), config_.detection, config_.control_msg_bytes);
    detector_->start(
        [this]() { return admission_->active() && !admission_->drained(); },
        [this](int node, SimTime at) {
          policy_->on_node_suspected(node);
          fanout_.on_node_detected(node, at);
        },
        [this](int node, SimTime at) {
          policy_->on_node_recovered(node);
          fanout_.on_node_readmitted(node, at);
        });
  }
}

void ClusterSimulation::reset_statistics() {
  for (auto& n : nodes_) n->reset_stats();
  router_.resource().reset_stats();
  topo_->reset_stats();
  if (flow_) flow_->reset_stats();
  via_.reset_stats();
  policy_->reset_counters();
  metrics_->reset();
  if (telemetry_) telemetry_->reset();
  // The recorder deliberately survives this reset: warm-up decisions stay
  // in the log (tagged pass = 0) unless the config asked to drop them —
  // a divergence between two runs usually begins during warm-up, and the
  // diff debugger wants to see it there.
  if (recorder_ && !config_.obs.include_warmup) recorder_->clear();
}

}  // namespace l2s::core
