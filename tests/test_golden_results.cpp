// Golden-digest regression net for the simulation engine.
//
// Every cell of a {policy × arrival mode × persistent mode × fault plan}
// matrix is run on a small synthetic trace and the *entire* SimResult is
// folded into a 64-bit digest (counts and doubles alike, bit-for-bit).
// The digests recorded below pin the engine's behaviour: any refactor
// that reorders a single event or RNG draw changes at least one digest.
//
// Regenerating (only legitimate after an *intentional* behaviour change):
//   L2SIM_GOLDEN_PRINT=1 ./build/tests/l2sim_tests
//       --gtest_filter='GoldenResults.*' 2>&1 | grep GOLDEN
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "l2sim/core/experiment.hpp"
#include "l2sim/core/parallel.hpp"
#include "l2sim/obs/decision.hpp"
#include "l2sim/telemetry/registry.hpp"
#include "l2sim/trace/synthetic.hpp"

namespace l2s::core {
namespace {

// The digest itself lives in core (metrics.cpp) so the parallel-DES bench
// gates on exactly the fold this suite pins.
std::string digest_hex(const SimResult& r) { return result_digest_hex(r); }

trace::Trace golden_trace() {
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

struct Cell {
  std::string name;
  SimConfig cfg;
  PolicyKind kind;
};

std::vector<Cell> matrix() {
  struct Policy {
    const char* tag;
    PolicyKind kind;
  };
  struct Persist {
    const char* tag;
    double rpc;
    PersistentMode mode;
  };
  const std::vector<Policy> policies = {{"trad", PolicyKind::kTraditional},
                                        {"lard", PolicyKind::kLard},
                                        {"l2s", PolicyKind::kL2s}};
  const std::vector<Persist> persists = {
      {"http10", 1.0, PersistentMode::kConnectionHandoff},
      {"handoff", 4.0, PersistentMode::kConnectionHandoff},
      {"backend", 4.0, PersistentMode::kBackendForwarding}};

  std::vector<Cell> cells;
  for (const auto& p : policies) {
    for (const bool open_loop : {false, true}) {
      for (const auto& ps : persists) {
        for (const bool crash : {false, true}) {
          Cell c;
          c.kind = p.kind;
          c.name = std::string(p.tag) + (open_loop ? "|open" : "|replay") + "|" +
                   ps.tag + (crash ? "|crash" : "|nofault");
          c.cfg.nodes = 4;
          c.cfg.node.cache_bytes = 2 * kMiB;
          if (open_loop) c.cfg.arrival.open_loop_rate = 1500.0;
          c.cfg.persistence.mean_requests_per_connection = ps.rpc;
          c.cfg.persistence.mode = ps.mode;
          if (crash) c.cfg.fault_plan.crashes.push_back({1, 0.15});
          cells.push_back(std::move(c));
        }
      }
    }
  }
  return cells;
}

// Recorded on the reference traces at the pre-decomposition engine; the
// composable-engine refactor must reproduce every digest bit-for-bit.
const std::vector<std::pair<std::string, std::string>> kGolden = {
    {"trad|replay|http10|nofault", "26956899c12ac828"},
    {"trad|replay|http10|crash", "efba2e5fa87eea78"},
    {"trad|replay|handoff|nofault", "f81a1d14a59747f6"},
    {"trad|replay|handoff|crash", "83fefe0734008b30"},
    {"trad|replay|backend|nofault", "f81a1d14a59747f6"},
    {"trad|replay|backend|crash", "83fefe0734008b30"},
    {"trad|open|http10|nofault", "64692821822ca713"},
    {"trad|open|http10|crash", "de36d8fdcb525382"},
    {"trad|open|handoff|nofault", "0aff25d563e59686"},
    {"trad|open|handoff|crash", "6bbd63f1b01cc30c"},
    {"trad|open|backend|nofault", "0aff25d563e59686"},
    {"trad|open|backend|crash", "6bbd63f1b01cc30c"},
    {"lard|replay|http10|nofault", "f260cf8e585ce35d"},
    {"lard|replay|http10|crash", "4e03e6a28c5c157a"},
    {"lard|replay|handoff|nofault", "7158bb95f269170c"},
    {"lard|replay|handoff|crash", "1369ca764222e133"},
    {"lard|replay|backend|nofault", "ba8e033be958a791"},
    {"lard|replay|backend|crash", "75084301f10128a4"},
    {"lard|open|http10|nofault", "ae5839e116754fdb"},
    {"lard|open|http10|crash", "9c93baf4665e1f39"},
    {"lard|open|handoff|nofault", "aacd8b3c52df1d2a"},
    {"lard|open|handoff|crash", "55bbaee8543f1214"},
    {"lard|open|backend|nofault", "6c51fc7b6aee5c5d"},
    {"lard|open|backend|crash", "abfcc60e8b75e0fe"},
    {"l2s|replay|http10|nofault", "7036a8bb0c04280c"},
    {"l2s|replay|http10|crash", "5fe77a03b966f3bc"},
    {"l2s|replay|handoff|nofault", "3d1d4e63ad6ed5b5"},
    {"l2s|replay|handoff|crash", "14cab32fbc92c810"},
    {"l2s|replay|backend|nofault", "1b6aa2ad71b06810"},
    {"l2s|replay|backend|crash", "1ba89f36fe76722a"},
    {"l2s|open|http10|nofault", "2bd5717c9dad4a74"},
    {"l2s|open|http10|crash", "b363c69209b5bb58"},
    {"l2s|open|handoff|nofault", "c1c9bfbdd6de4b26"},
    {"l2s|open|handoff|crash", "00b6c1ec9970cdb4"},
    {"l2s|open|backend|nofault", "26ed63791d3de095"},
    {"l2s|open|backend|crash", "ea5fdae4ee70c638"},
};

TEST(GoldenResults, MatrixMatchesRecordedDigests) {
  const auto tr = golden_trace();
  const auto cells = matrix();
  const bool print = std::getenv("L2SIM_GOLDEN_PRINT") != nullptr;

  std::vector<std::pair<std::string, std::string>> got;
  for (const auto& c : cells) {
    const auto r = run_once(tr, c.cfg, c.kind);
    got.emplace_back(c.name, digest_hex(r));
  }
  if (print) {
    for (const auto& [name, d] : got)
      std::printf("GOLDEN    {\"%s\", \"%s\"},\n", name.c_str(), d.c_str());
    return;
  }
  ASSERT_EQ(got.size(), kGolden.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].first, kGolden[i].first);
    EXPECT_EQ(got[i].second, kGolden[i].second) << got[i].first;
  }
}

TEST(GoldenResults, DefaultOverloadConfigIsDigestInert) {
  // The overload-resilience layer (SimConfig::overload, arrival shapes,
  // churn) must be invisible when off: an explicitly default-constructed
  // OverloadConfig and stationary arrival shape reproduce every recorded
  // digest bit-for-bit. This is the contract that lets the resilience
  // subsystem ride inside the engine rather than beside it.
  ASSERT_FALSE(OverloadConfig{}.any_on());
  const auto tr = golden_trace();
  const auto cells = matrix();
  ASSERT_EQ(cells.size(), kGolden.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    SimConfig cfg = cells[i].cfg;
    cfg.overload = OverloadConfig{};
    cfg.arrival.shape = ArrivalShape::kStationary;
    cfg.arrival.churn_period_seconds = 0.0;
    const auto r = run_once(tr, cfg, cells[i].kind);
    EXPECT_EQ(digest_hex(r), kGolden[i].second) << kGolden[i].first;
    EXPECT_EQ(r.failed_shed, 0u);
    EXPECT_EQ(r.hedge_attempts, 0u);
    EXPECT_EQ(r.brownout_transitions, 0u);
  }
}

TEST(GoldenResults, TelemetrySamplingDoesNotPerturbDigests) {
  // Telemetry is a passive observer: it schedules no events and draws no
  // random numbers, so enabling it — span capture, probe, registry and all
  // — must leave every digested quantity bit-for-bit unchanged. Exercised
  // on the densest cells (crash + goodput timeline, both arrival modes).
  const auto tr = golden_trace();
  for (const bool open_loop : {false, true}) {
    Cell c;
    c.kind = PolicyKind::kL2s;
    c.cfg.nodes = 4;
    c.cfg.node.cache_bytes = 2 * kMiB;
    if (open_loop) c.cfg.arrival.open_loop_rate = 1500.0;
    c.cfg.persistence.mean_requests_per_connection = 4.0;
    c.cfg.fault_plan.crashes.push_back({1, 0.15});
    c.cfg.goodput_interval_seconds = 0.1;
    const auto plain = run_once(tr, c.cfg, c.kind);

    SimConfig instrumented = c.cfg;
    instrumented.telemetry.enabled = true;
    instrumented.telemetry.span_sample_every = 1;  // record *every* span
    instrumented.telemetry.span_capacity = 1 << 14;
    const auto traced = run_once(tr, instrumented, c.kind);

    EXPECT_EQ(digest_hex(plain), digest_hex(traced))
        << (open_loop ? "open" : "replay");
    ASSERT_NE(traced.telemetry, nullptr);
    EXPECT_GT(traced.telemetry->spans.size(), 0u);
    EXPECT_EQ(plain.telemetry, nullptr);
  }
}

TEST(GoldenResults, FlightRecorderDoesNotPerturbDigests) {
  // The flight recorder is the same kind of passive tap as telemetry: it
  // rides the lifecycle fan-out, schedules zero events and draws no
  // randomness. Turning it on (warm-up included, generous ring) must
  // reproduce every one of the 36 pinned digests bit-for-bit — the
  // recorder-off bit-identity contract of the observability subsystem.
  // (SimResult::decisions is a shared_ptr deliberately excluded from
  // result_digest, like result.telemetry.)
  const auto tr = golden_trace();
  const auto cells = matrix();
  ASSERT_EQ(cells.size(), kGolden.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    SimConfig cfg = cells[i].cfg;
    cfg.obs.enabled = true;
    cfg.obs.capacity = 0;  // unbounded: retention must not matter either
    const auto r = run_once(tr, cfg, cells[i].kind);
    EXPECT_EQ(digest_hex(r), kGolden[i].second) << kGolden[i].first;
    ASSERT_NE(r.decisions, nullptr) << kGolden[i].first;
    EXPECT_GT(r.decisions->recorded, 0u) << kGolden[i].first;
  }
}

TEST(GoldenResults, RunParallelIsBitIdenticalToSerial) {
  const auto tr = golden_trace();
  const auto cells = matrix();

  std::vector<SimJob> jobs;
  for (const auto& c : cells) {
    SimJob j;
    j.trace = &tr;
    j.sim = c.cfg;
    j.kind = c.kind;
    jobs.push_back(std::move(j));
  }
  const auto parallel = run_parallel(jobs);
  ASSERT_EQ(parallel.size(), cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const auto serial = run_once(tr, cells[i].cfg, cells[i].kind);
    EXPECT_EQ(digest_hex(serial), digest_hex(parallel[i])) << cells[i].name;
  }
}

}  // namespace
}  // namespace l2s::core
