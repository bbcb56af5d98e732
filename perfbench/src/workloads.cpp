#include "workloads.hpp"

#include <array>

#include "l2sim/trace/synthetic.hpp"

namespace l2s::perfbench {

namespace {

// Digests are pinned at kDefaultSeed; README.md says why each workload exists.
constexpr std::array<Workload, 3> kWorkloads{{
    {"l2s-bcast-64", core::PolicyKind::kL2s, 64, 0.05, 1.0, 0.0, false, 0x6ce250339e02e521},
    {"trad-miss-16", core::PolicyKind::kTraditional, 16, 0.5, 1.0, 0.0, false,
     0xaa0daa6c417eb99e},
    {"lard-http11-obs", core::PolicyKind::kLard, 16, 0.3, 4.0, 2000.0, true,
     0xbae9997c19bef645},
}};

}  // namespace

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads)
    if (name == w.name) return &w;
  return nullptr;
}

std::string workload_names() {
  std::string names;
  for (const Workload& w : kWorkloads) {
    if (!names.empty()) names += ", ";
    names += w.name;
  }
  return names;
}

core::TraceSpec trace_spec(const Workload& w, std::uint64_t seed) {
  trace::SyntheticSpec s = trace::paper_trace_spec("clarknet");
  s.requests = static_cast<std::uint64_t>(static_cast<double>(s.requests) * w.scale);
  s.seed = seed;
  return core::TraceSpec::synth(s);
}

core::SimConfig sim_config(const Workload& w, std::uint64_t seed) {
  core::SimConfig c;
  c.nodes = w.nodes;
  c.node.cache_bytes = 32 * kMiB;
  c.seed ^= seed ^ kDefaultSeed;
  c.engine.shards = 0;
  c.persistence.mean_requests_per_connection = w.requests_per_connection;
  c.arrival.open_loop_rate = w.open_loop_rate;
  c.telemetry.enabled = w.observers;
  c.obs.enabled = w.observers;
  return c;
}

double set_shrink_seconds(const Workload& w) { return 20.0 * w.scale; }

}  // namespace l2s::perfbench
