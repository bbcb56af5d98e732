#include <gtest/gtest.h>

#include <cstdlib>

#include "l2sim/common/env.hpp"
#include "l2sim/common/error.hpp"
#include "l2sim/core/parallel.hpp"
#include "l2sim/telemetry/registry.hpp"
#include "l2sim/trace/synthetic.hpp"

namespace l2s::core {
namespace {

trace::Trace workload() {
  trace::SyntheticSpec spec;
  spec.name = "par";
  spec.files = 200;
  spec.avg_file_kb = 10.0;
  spec.requests = 3000;
  spec.avg_request_kb = 8.0;
  spec.alpha = 0.9;
  spec.seed = 5;
  return trace::generate(spec);
}

std::vector<SimJob> grid_jobs(const trace::Trace& tr) {
  std::vector<SimJob> jobs;
  for (const int nodes : {1, 2, 4}) {
    for (const auto kind : all_policies()) {
      SimJob job;
      job.trace = &tr;
      job.sim.nodes = nodes;
      job.sim.node.cache_bytes = kMiB;
      job.kind = kind;
      jobs.push_back(job);
    }
  }
  return jobs;
}

TEST(Parallel, MatchesSerialExactly) {
  const auto tr = workload();
  const auto jobs = grid_jobs(tr);
  const auto serial = run_parallel(jobs, 1);
  const auto parallel = run_parallel(jobs, 4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].completed, parallel[i].completed) << i;
    EXPECT_DOUBLE_EQ(serial[i].throughput_rps, parallel[i].throughput_rps) << i;
    EXPECT_DOUBLE_EQ(serial[i].hit_rate, parallel[i].hit_rate) << i;
    EXPECT_EQ(serial[i].forwarded, parallel[i].forwarded) << i;
  }
}

TEST(Parallel, ResultsInJobOrder) {
  const auto tr = workload();
  const auto jobs = grid_jobs(tr);
  const auto results = run_parallel(jobs, 3);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(results[i].nodes, jobs[i].sim.nodes);
    EXPECT_EQ(results[i].policy, make_policy(jobs[i].kind)->name());
  }
}

TEST(Parallel, EmptyJobListIsFine) {
  EXPECT_TRUE(run_parallel({}, 4).empty());
}

TEST(Parallel, NullTraceRejected) {
  std::vector<SimJob> jobs(1);
  EXPECT_THROW((void)run_parallel(jobs, 2), Error);
}

TEST(Parallel, JobErrorsPropagate) {
  const auto tr = workload();
  std::vector<SimJob> jobs = grid_jobs(tr);
  jobs[2].sim.nodes = 0;  // invalid: construction throws inside the worker
  EXPECT_THROW((void)run_parallel(jobs, 4), Error);
}

TEST(Parallel, JobErrorsCarryJobContext) {
  const auto tr = workload();
  std::vector<SimJob> jobs = grid_jobs(tr);
  jobs[2].sim.nodes = 0;  // third job (index 2) fails
  try {
    (void)run_parallel(jobs, 1);  // serial: job 2 is deterministically first
    FAIL() << "expected run_parallel to throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("run_parallel: job 2"), std::string::npos) << what;
    EXPECT_NE(what.find("trace=par"), std::string::npos) << what;
    EXPECT_NE(what.find("nodes=0"), std::string::npos) << what;
    EXPECT_NE(what.find("policy="), std::string::npos) << what;
    // The original failure is nested inside and still reachable.
    bool found_cause = false;
    try {
      std::rethrow_if_nested(e);
    } catch (const Error& cause) {
      found_cause = true;
      EXPECT_EQ(what.find(cause.what()), std::string::npos)
          << "cause should not be duplicated into the context message";
    }
    EXPECT_TRUE(found_cause);
  }
}

std::vector<SimJob> telemetry_jobs(const trace::Trace& tr) {
  auto jobs = grid_jobs(tr);
  for (auto& job : jobs) {
    job.sim.telemetry.enabled = true;
    job.sim.telemetry.span_sample_every = 8;
  }
  return jobs;
}

TEST(Parallel, TelemetryRidesEachJobWithoutSharing) {
  // Each job owns a private registry (no shared mutable state between
  // workers — this test runs under TSan in tools/check.sh), and parallel
  // execution reproduces serial telemetry exactly.
  const auto tr = workload();
  const auto jobs = telemetry_jobs(tr);
  const auto serial = run_parallel(jobs, 1);
  const auto parallel = run_parallel(jobs, 4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_NE(serial[i].telemetry, nullptr) << i;
    ASSERT_NE(parallel[i].telemetry, nullptr) << i;
    EXPECT_EQ(serial[i].telemetry->find("requests.completed")->count,
              parallel[i].telemetry->find("requests.completed")->count)
        << i;
    ASSERT_EQ(serial[i].telemetry->spans.size(), parallel[i].telemetry->spans.size()) << i;
    for (std::size_t j = 0; j < serial[i].telemetry->spans.size(); ++j) {
      EXPECT_TRUE(serial[i].telemetry->spans[j] == parallel[i].telemetry->spans[j]);
    }
  }
}

TEST(Parallel, TelemetryMergeIsDeterministicAcrossSchedules) {
  // merge_telemetry folds per-job snapshots in job-index order, so the
  // aggregate is identical no matter which worker finished first.
  const auto tr = workload();
  const auto jobs = telemetry_jobs(tr);
  const auto serial_merged = merge_telemetry(run_parallel(jobs, 1));
  const auto parallel_merged = merge_telemetry(run_parallel(jobs, 4));
  ASSERT_NE(serial_merged, nullptr);
  ASSERT_NE(parallel_merged, nullptr);

  // Scalars: the merged completed counter is the sum over all jobs.
  const auto results = run_parallel(jobs, 4);
  std::uint64_t total = 0;
  for (const auto& r : results) total += r.completed;
  EXPECT_EQ(serial_merged->find("requests.completed")->count, total);
  EXPECT_EQ(parallel_merged->find("requests.completed")->count, total);

  // Appends: spans concatenate in job-index order, bit-identically.
  ASSERT_EQ(serial_merged->spans.size(), parallel_merged->spans.size());
  for (std::size_t i = 0; i < serial_merged->spans.size(); ++i) {
    EXPECT_TRUE(serial_merged->spans[i] == parallel_merged->spans[i]);
  }
  EXPECT_EQ(serial_merged->spans_recorded, parallel_merged->spans_recorded);
}

TEST(Parallel, MergeTelemetrySkipsJobsWithoutIt) {
  const auto tr = workload();
  auto jobs = telemetry_jobs(tr);
  jobs[1].sim.telemetry.enabled = false;  // mixed batch
  const auto results = run_parallel(jobs, 2);
  const auto merged = merge_telemetry(results);
  ASSERT_NE(merged, nullptr);
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (i != 1) total += results[i].completed;
  }
  EXPECT_EQ(merged->find("requests.completed")->count, total);

  // And a batch with no telemetry at all merges to null.
  EXPECT_EQ(merge_telemetry(run_parallel(grid_jobs(tr), 2)), nullptr);
}

TEST(Parallel, FigureMatchesSerialRunner) {
  const auto tr = workload();
  ExperimentConfig cfg;
  cfg.sim.node.cache_bytes = kMiB;
  cfg.node_counts = {1, 2};
  const auto serial = run_throughput_figure(tr, cfg);
  const auto parallel = run_throughput_figure_parallel(tr, cfg, 4);
  ASSERT_EQ(serial.node_counts, parallel.node_counts);
  for (std::size_t i = 0; i < serial.node_counts.size(); ++i) {
    EXPECT_DOUBLE_EQ(serial.l2s[i].throughput_rps, parallel.l2s[i].throughput_rps);
    EXPECT_DOUBLE_EQ(serial.lard[i].throughput_rps, parallel.lard[i].throughput_rps);
    EXPECT_DOUBLE_EQ(serial.traditional[i].throughput_rps,
                     parallel.traditional[i].throughput_rps);
    EXPECT_DOUBLE_EQ(serial.model_rps[i], parallel.model_rps[i]);
  }
}

TEST(Parallel, WorkerCountRespectsTheSharedThreadBudget) {
  // Each job runs on one thread, so the pool is the budget, capped at the
  // job count.
  EXPECT_EQ(compute_worker_threads(16, 8), 8u);
  EXPECT_EQ(compute_worker_threads(16, 1), 1u);
  // Never more workers than jobs.
  EXPECT_EQ(compute_worker_threads(3, 8), 3u);
  EXPECT_EQ(compute_worker_threads(0, 8), 0u);
  // A zero budget still runs one worker.
  EXPECT_EQ(compute_worker_threads(4, 0), 1u);
}

TEST(ThreadBudget, EnvOverrideAndDefault) {
  ASSERT_EQ(setenv("L2SIM_THREADS", "3", 1), 0);
  EXPECT_EQ(thread_budget(), 3u);
  ASSERT_EQ(setenv("L2SIM_THREADS", "-1", 1), 0);
  EXPECT_THROW((void)thread_budget(), Error);
  ASSERT_EQ(unsetenv("L2SIM_THREADS"), 0);
  EXPECT_GE(thread_budget(), 1u);  // hardware concurrency, floored at 1
}

TEST(Parallel, ThreadBudgetEnvOverrideBoundsTheWorkerPool) {
  // With L2SIM_THREADS=2, an auto-threaded run_parallel over many jobs is
  // still bit-identical to serial (the budget changes scheduling, never
  // results).
  ASSERT_EQ(setenv("L2SIM_THREADS", "2", 1), 0);
  EXPECT_EQ(thread_budget(), 2u);
  const auto tr = workload();
  auto jobs = grid_jobs(tr);
  jobs.resize(4);
  const auto budgeted = run_parallel(jobs, 0);  // 0 = take the budget
  ASSERT_EQ(unsetenv("L2SIM_THREADS"), 0);
  const auto serial = run_parallel(jobs, 1);
  ASSERT_EQ(budgeted.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_DOUBLE_EQ(serial[i].throughput_rps, budgeted[i].throughput_rps);
    EXPECT_EQ(serial[i].completed, budgeted[i].completed);
  }
}

}  // namespace
}  // namespace l2s::core
