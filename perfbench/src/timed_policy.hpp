// TimedPolicy: a policy::Policy decorator that times every hook call of
// the policy it wraps, for the benchmark's traced run.
//
// It forwards each virtual hook to the inner policy and adds the call's
// wall time (std::chrono::steady_clock) to a per-hook aggregate kept in
// memory; the benchmark prints the aggregates when the run ends. The
// decorator is digest-neutral:
//
//   * every virtual hook forwards, so the inner policy sees exactly the
//     calls it would see unwrapped;
//   * Policy::counters() is not virtual and the engine reads broadcast
//     counts from the *outer* policy, so the decorator mirrors the inner
//     CounterSet into its own after each hook (only changed values are
//     re-added, which keeps the mirror to a few integer compares per call);
//   * Policy::reset_counters() is not virtual either; the warm-up reset
//     clears the mirror, and the next hook call notices the shrunken
//     mirror and resets the inner policy's counters too.
//
// Time spent inside a hook includes the VIA sends the policy issues from
// it (broadcasts are scheduled synchronously), so "policy self time" here
// is the policy layer as seen from the engine.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "l2sim/policy/policy.hpp"

namespace l2s::perfbench {

class TimedPolicy final : public policy::Policy {
 public:
  enum Hook : std::uint8_t {
    kAttach,
    kPassStart,
    kEntryNode,
    kEntryIsDns,
    kSelectServiceNode,
    kDecidesAsync,
    kSelectAsync,
    kForwardCpuTime,
    kServiceStart,
    kComplete,
    kSelectNextInConnection,
    kConnectionMigrated,
    kNodeFailed,
    kNodeSuspected,
    kNodeRecovered,
    kBrownout,
    kHookCount,
  };

  struct HookStats {
    std::uint64_t calls = 0;
    std::uint64_t ns = 0;
  };

  explicit TimedPolicy(std::unique_ptr<policy::Policy> inner);

  [[nodiscard]] static const char* hook_name(Hook h);
  [[nodiscard]] const std::array<HookStats, kHookCount>& hooks() const { return hooks_; }
  [[nodiscard]] std::uint64_t total_calls() const;
  [[nodiscard]] double total_seconds() const;

  [[nodiscard]] const char* name() const override;
  void attach(const policy::ClusterContext& ctx) override;
  void on_pass_start(int pass) override;
  [[nodiscard]] int entry_node(std::uint64_t seq, const trace::Request& r) override;
  [[nodiscard]] bool entry_is_dns() const override;
  [[nodiscard]] int select_service_node(int entry, const trace::Request& r) override;
  [[nodiscard]] bool decides_asynchronously() const override;
  void select_service_node_async(int entry, const trace::Request& r,
                                 std::function<void(int target)> done) override;
  [[nodiscard]] SimTime forward_cpu_time(int entry) const override;
  void on_service_start(int node, const trace::Request& r) override;
  void on_complete(int node, const trace::Request& r) override;
  [[nodiscard]] int select_next_in_connection(int current, const trace::Request& r) override;
  void on_connection_migrated(int from, int to, const trace::Request& r) override;
  void on_node_failed(int node) override;
  void on_node_suspected(int node) override;
  void on_node_recovered(int node) override;
  void on_brownout(int level) override;

 private:
  /// Times `fn()` against hook `h` (const hooks: no counter can move).
  template <typename Fn>
  auto timed(Hook h, Fn&& fn) const;
  /// Times a mutating hook, keeping counters_ in step with the inner
  /// policy's CounterSet on both sides of the call.
  template <typename Fn>
  auto mirrored(Hook h, Fn&& fn);
  /// Bring counters_ up to date with the inner policy's CounterSet.
  void sync_counters();

  std::unique_ptr<policy::Policy> inner_;
  mutable std::array<HookStats, kHookCount> hooks_{};
  /// Inner counter values already added to counters_, in the inner
  /// CounterSet's first-touch order.
  std::vector<std::uint64_t> mirrored_;
};

}  // namespace l2s::perfbench
