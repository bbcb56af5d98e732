// Parallel experiment execution: node-count sweeps multiply into dozens of
// completely independent simulations, so they scale across cores. Each job
// builds its own ClusterSimulation (no shared mutable state; the only
// shared structure, the harmonic-number prefix cache, is internally
// synchronized), so results are bit-identical to serial execution.
#pragma once

#include <memory>
#include <vector>

#include "l2sim/core/experiment.hpp"

namespace l2s::telemetry {
struct Snapshot;
}  // namespace l2s::telemetry

namespace l2s::core {

struct SimJob {
  const trace::Trace* trace = nullptr;
  SimConfig sim;
  PolicyKind kind = PolicyKind::kTraditional;
  double set_shrink_seconds = 20.0;
};

/// Workers run_parallel may start for `jobs` single-threaded jobs under a
/// total budget of `budget` threads: the job count clamped to
/// [1, budget] (0 when there are no jobs).
[[nodiscard]] unsigned compute_worker_threads(std::size_t jobs, unsigned budget);

/// Run all jobs and return their results in job order. `threads == 0`
/// uses the process thread budget (L2SIM_THREADS override, else hardware
/// concurrency); `threads == 1` runs inline. If any job
/// throws, the first failure (after all threads join) is rethrown nested
/// inside an Error naming the job: "run_parallel: job i (trace=...,
/// nodes=..., policy=...) failed". Catch as l2s::Error and use
/// std::rethrow_if_nested to reach the original exception.
[[nodiscard]] std::vector<SimResult> run_parallel(const std::vector<SimJob>& jobs,
                                                  unsigned threads = 0);

/// Merge the telemetry snapshots of a batch of results into one aggregate,
/// always iterating in job-index order — each job owns a private registry
/// during the run (no shared mutable state between workers), and the fixed
/// merge order makes the aggregate identical regardless of which worker
/// finished first. Results without telemetry are skipped; returns null when
/// no result carried any.
[[nodiscard]] std::shared_ptr<const telemetry::Snapshot> merge_telemetry(
    const std::vector<SimResult>& results);

/// Parallel variant of run_throughput_figure: identical results, wall
/// clock divided by the usable cores.
[[nodiscard]] FigureSeries run_throughput_figure_parallel(const trace::Trace& trace,
                                                          const ExperimentConfig& cfg,
                                                          unsigned threads = 0);

}  // namespace l2s::core
