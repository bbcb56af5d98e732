// Digest-divergence debugger: replay two experiment specs with the flight
// recorder on and report the FIRST decision record where their streams
// disagree, with surrounding context from both sides. This turns a
// golden-net failure ("digest mismatch") into a pinpointed event: which
// request, at what simulated time, dispatched/shed/retried differently.
//
// Run A is replayed in full (its decision stream collected via a sink);
// run B streams through a comparator that aborts B's simulation the
// moment a record disagrees — B never runs past the first divergence, so
// diffing a long run with an early divergence costs only the prefix.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "l2sim/core/spec.hpp"
#include "l2sim/obs/decision.hpp"

namespace l2s::obs {

struct DiffOptions {
  std::size_t context = 8;  ///< records shown before the divergence, per side
};

struct DiffReport {
  bool diverged = false;
  /// Global index of the first divergent record. When one stream is a
  /// strict prefix of the other (`length_only`), this is the shorter
  /// stream's length — the first index present on only one side.
  std::uint64_t first_divergence = 0;
  bool length_only = false;
  std::uint64_t records_a = 0;  ///< total records side A emitted
  std::uint64_t records_b = 0;  ///< records side B emitted (stops at divergence)
  /// Trailing context windows ending at (and including) the divergent
  /// record when present; context_a/b[i] share a global index.
  std::vector<DecisionRecord> context_a;
  std::vector<DecisionRecord> context_b;
  std::uint64_t context_start = 0;  ///< global index of context_a[0]

  /// Human-readable report: verdict line plus a side-by-side record table.
  [[nodiscard]] std::string summary() const;
};

/// Replay both specs (recorder on, warm-up included) and compare their
/// decision streams record by record. The specs may differ in any way —
/// seed, policy, overload defenses — and each side realizes
/// its own trace from spec.trace.
[[nodiscard]] DiffReport diff_decisions(const core::ExperimentSpec& a,
                                        const core::ExperimentSpec& b,
                                        const DiffOptions& options = {});

/// Same, with a shared pre-realized trace (sweeps, tests).
[[nodiscard]] DiffReport diff_decisions(const core::ExperimentSpec& a,
                                        const core::ExperimentSpec& b,
                                        const trace::Trace& trace,
                                        const DiffOptions& options = {});

/// One line per record, the format used by DiffReport::summary — handy for
/// logging individual records elsewhere.
[[nodiscard]] std::string format_record(std::uint64_t index, const DecisionRecord& rec);

}  // namespace l2s::obs
