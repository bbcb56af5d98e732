// The benchmark's workloads: which cluster, policy and traffic each one
// runs, and how its inputs are made from the seed.
#pragma once

#include <cstdint>
#include <string>

#include "l2sim/core/config.hpp"
#include "l2sim/core/experiment.hpp"
#include "l2sim/core/spec.hpp"

namespace l2s::perfbench {

struct Workload {
  const char* name;
  core::PolicyKind policy;
  int nodes;
  double scale;                    ///< share of the ClarkNet paper trace
  double requests_per_connection;  ///< 1 = HTTP/1.0
  double open_loop_rate;           ///< connections/s; 0 = saturated replay
  bool observers;                  ///< telemetry + flight recorder on
  std::uint64_t pinned_digest;     ///< result_digest at kDefaultSeed
};

/// The ClarkNet paper trace's own seed: at this seed the benchmark's trace
/// and simulation are the ones `l2sim run --paper clarknet` builds.
inline constexpr std::uint64_t kDefaultSeed = 0xC1A2F1E7;

/// The workload named `name`, or null.
[[nodiscard]] const Workload* find_workload(const std::string& name);
/// Comma-separated workload names, for error messages.
[[nodiscard]] std::string workload_names();

/// The workload's trace: the ClarkNet paper spec, scaled, drawn with `seed`.
[[nodiscard]] core::TraceSpec trace_spec(const Workload& w, std::uint64_t seed);
/// The workload's cluster on the serial engine; the simulation seed moves
/// with `seed` so every random stream of the run comes from it.
[[nodiscard]] core::SimConfig sim_config(const Workload& w, std::uint64_t seed);
/// LARD K / L2S set-decay window, scaled with the trace like `l2sim run`.
[[nodiscard]] double set_shrink_seconds(const Workload& w);

}  // namespace l2s::perfbench
