// Large-N sanity net (ctest -L largen): a 256-node cluster at heavy
// traffic, driven through the DES scheduler, checked against the
// M/M/infinity ranked-servers asymptotics (Eschenfeldt, Gross & Pippenger;
// see PAPERS.md).
//
// The model: Poisson arrivals at rate lambda, each request dispatched to
// the LOWEST-indexed idle server (ordered hunting) and holding it for the
// network delivery latency plus an exponential service time. In heavy
// traffic with offered load a = lambda * E[holding] servers-worth of work,
// the busy-server count is asymptotically Poisson(a) — the M/G/infinity
// insensitivity result — so the idle-server count is N - Poisson(a), and
// ordered hunting concentrates the idleness in the highest ranks: server
// utilization is non-increasing in rank, near 1 at the low ranks and
// falling off around rank a. The tolerance bands below hold with large
// margin for the configured run length (they are sanity gates on the
// engine's large-N behaviour, not estimator-precision tests).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "l2sim/common/rng.hpp"
#include "l2sim/common/units.hpp"
#include "l2sim/des/scheduler.hpp"

namespace l2s::des {
namespace {

struct RankedClusterResult {
  double mean_busy = 0.0;       ///< time-average busy-server count
  double var_busy = 0.0;        ///< sample variance of the busy count
  double drop_fraction = 0.0;   ///< arrivals finding every server busy
  std::vector<double> utilization;  ///< per-rank busy-time fraction
  std::uint64_t arrivals = 0;
};

/// Simulate the ranked-servers cluster on one scheduler. All randomness
/// comes from one sequential stream, consumed in deterministic event order.
RankedClusterResult run_ranked_cluster(int nodes, double lambda,
                                       double mean_service_s,
                                       double horizon_s, std::uint64_t seed) {
  const SimTime latency = 10'000;  // VIA minimum cross-node latency (10 us)
  const SimTime horizon = seconds_to_simtime(horizon_s);
  const SimTime sample_every = seconds_to_simtime(0.0005);

  Scheduler sched;
  Rng rng(seed);

  std::vector<bool> busy(static_cast<std::size_t>(nodes), false);
  std::vector<SimTime> busy_since(static_cast<std::size_t>(nodes), 0);
  std::vector<SimTime> busy_ns(static_cast<std::size_t>(nodes), 0);
  int busy_count = 0;
  std::uint64_t arrivals = 0;
  std::uint64_t drops = 0;
  double sum = 0.0;
  double sum_sq = 0.0;
  std::uint64_t samples = 0;

  // Periodic busy-count sampler.
  auto sample = [&](auto&& self) -> void {
    sum += busy_count;
    sum_sq += static_cast<double>(busy_count) * busy_count;
    ++samples;
    if (sched.now() + sample_every <= horizon)
      sched.after(sample_every, [self] { self(self); });
  };

  // Poisson arrival source with ordered-hunt dispatch.
  auto arrive = [&](auto&& self) -> void {
    ++arrivals;
    int server = -1;
    for (int i = 0; i < nodes; ++i) {
      if (!busy[static_cast<std::size_t>(i)]) {
        server = i;
        break;
      }
    }
    if (server < 0) {
      ++drops;  // every server busy: heavy-traffic loss, must stay rare
    } else {
      busy[static_cast<std::size_t>(server)] = true;
      busy_since[static_cast<std::size_t>(server)] = sched.now();
      ++busy_count;
      const SimTime hold =
          latency + 1 +
          seconds_to_simtime(rng.next_exponential(1.0 / mean_service_s));
      sched.after(hold, [&busy, &busy_since, &busy_ns, &busy_count, server,
                         release = sched.now() + hold] {
        busy[static_cast<std::size_t>(server)] = false;
        busy_ns[static_cast<std::size_t>(server)] +=
            release - busy_since[static_cast<std::size_t>(server)];
        --busy_count;
      });
    }
    const SimTime gap = 1 + seconds_to_simtime(rng.next_exponential(lambda));
    if (sched.now() + gap <= horizon)
      sched.after(gap, [self] { self(self); });
  };

  sched.at(1, [&sample] { sample(sample); });
  sched.at(1, [&arrive] { arrive(arrive); });
  sched.run();

  RankedClusterResult r;
  r.arrivals = arrivals;
  r.drop_fraction =
      arrivals == 0 ? 0.0 : static_cast<double>(drops) / static_cast<double>(arrivals);
  r.mean_busy = sum / static_cast<double>(samples);
  r.var_busy = sum_sq / static_cast<double>(samples) - r.mean_busy * r.mean_busy;
  const double span = static_cast<double>(sched.now() - 1);
  for (int i = 0; i < nodes; ++i)
    r.utilization.push_back(static_cast<double>(busy_ns[static_cast<std::size_t>(i)]) /
                            span);
  return r;
}

TEST(LargeN, RankedServersMatchHeavyTrafficAsymptotics) {
  constexpr int kNodes = 256;
  constexpr double kLambda = 125'000.0;     // arrivals per second
  constexpr double kMeanService = 0.0016;   // 1.6 ms
  constexpr double kHorizon = 1.0;          // simulated seconds
  // Offered load in servers: lambda * (service + delivery latency).
  const double a = kLambda * (kMeanService + 10e-6);
  ASSERT_LT(a, kNodes * 0.85);  // heavy traffic, but below saturation

  const auto r = run_ranked_cluster(kNodes, kLambda, kMeanService, kHorizon,
                                    /*seed=*/42);

  // ~125k arrivals in the horizon; enough for tight means.
  EXPECT_GT(r.arrivals, 100'000u);

  // M/G/infinity insensitivity: busy-server count ~ Poisson(a).
  EXPECT_NEAR(r.mean_busy, a, 0.05 * a);
  // Poisson: variance == mean (wide band: samples are correlated).
  EXPECT_GT(r.var_busy / r.mean_busy, 0.6);
  EXPECT_LT(r.var_busy / r.mean_busy, 1.6);
  // Loss (all 256 busy) sits ~3.9 sigma out: must be rare.
  EXPECT_LT(r.drop_fraction, 1e-3);

  // Ordered hunting concentrates idleness in the high ranks: block-mean
  // utilization is strictly decreasing, ~1 at the bottom, and the drop-off
  // straddles rank a.
  constexpr int kBlock = 64;
  std::vector<double> block_util;
  for (int b = 0; b < kNodes / kBlock; ++b) {
    double s = 0.0;
    for (int i = b * kBlock; i < (b + 1) * kBlock; ++i)
      s += r.utilization[static_cast<std::size_t>(i)];
    block_util.push_back(s / kBlock);
  }
  for (std::size_t b = 1; b < block_util.size(); ++b)
    EXPECT_LT(block_util[b], block_util[b - 1]) << "block " << b;
  EXPECT_GT(block_util.front(), 0.95);
  EXPECT_LT(block_util.back(), 0.6);

  // The idle-server distribution: mean idle count == N - a.
  EXPECT_NEAR(kNodes - r.mean_busy, kNodes - a, 0.05 * a);
}

}  // namespace
}  // namespace l2s::des
