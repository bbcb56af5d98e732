#include "timed_policy.hpp"

#include <chrono>
#include <type_traits>
#include <utility>

namespace l2s::perfbench {

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t elapsed_ns(Clock::time_point since) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - since).count());
}

}  // namespace

TimedPolicy::TimedPolicy(std::unique_ptr<policy::Policy> inner) : inner_(std::move(inner)) {}

const char* TimedPolicy::hook_name(Hook h) {
  switch (h) {
    case kAttach: return "attach";
    case kPassStart: return "on_pass_start";
    case kEntryNode: return "entry_node";
    case kEntryIsDns: return "entry_is_dns";
    case kSelectServiceNode: return "select_service_node";
    case kDecidesAsync: return "decides_asynchronously";
    case kSelectAsync: return "select_service_node_async";
    case kForwardCpuTime: return "forward_cpu_time";
    case kServiceStart: return "on_service_start";
    case kComplete: return "on_complete";
    case kSelectNextInConnection: return "select_next_in_connection";
    case kConnectionMigrated: return "on_connection_migrated";
    case kNodeFailed: return "on_node_failed";
    case kNodeSuspected: return "on_node_suspected";
    case kNodeRecovered: return "on_node_recovered";
    case kBrownout: return "on_brownout";
    case kHookCount: break;
  }
  return "?";
}

std::uint64_t TimedPolicy::total_calls() const {
  std::uint64_t calls = 0;
  for (const HookStats& h : hooks_) calls += h.calls;
  return calls;
}

double TimedPolicy::total_seconds() const {
  std::uint64_t ns = 0;
  for (const HookStats& h : hooks_) ns += h.ns;
  return static_cast<double>(ns) * 1e-9;
}

template <typename Fn>
auto TimedPolicy::timed(Hook h, Fn&& fn) const {
  struct Stamp {
    HookStats& stats;
    Clock::time_point start = Clock::now();
    ~Stamp() {
      ++stats.calls;
      stats.ns += elapsed_ns(start);
    }
  } stamp{hooks_[h]};
  return std::forward<Fn>(fn)();
}

template <typename Fn>
auto TimedPolicy::mirrored(Hook h, Fn&& fn) {
  // The engine's warm-up reset cleared counters_ (reset_counters() is not
  // virtual): pass it on before the inner policy counts anything new.
  if (counters_.items().size() < mirrored_.size()) {
    inner_->reset_counters();
    mirrored_.clear();
  }
  if constexpr (std::is_void_v<std::invoke_result_t<Fn>>) {
    timed(h, std::forward<Fn>(fn));
    sync_counters();
  } else {
    auto result = timed(h, std::forward<Fn>(fn));
    sync_counters();
    return result;
  }
}

void TimedPolicy::sync_counters() {
  const auto& inner = inner_->counters().items();
  for (std::size_t i = 0; i < inner.size(); ++i) {
    if (i == mirrored_.size()) mirrored_.push_back(0);
    const std::uint64_t value = inner[i].second;
    if (value != mirrored_[i]) {
      counters_.add(inner[i].first, value - mirrored_[i]);
      mirrored_[i] = value;
    }
  }
}

const char* TimedPolicy::name() const { return inner_->name(); }

void TimedPolicy::attach(const policy::ClusterContext& ctx) {
  mirrored(kAttach, [&] { inner_->attach(ctx); });
}

void TimedPolicy::on_pass_start(int pass) {
  mirrored(kPassStart, [&] { inner_->on_pass_start(pass); });
}

int TimedPolicy::entry_node(std::uint64_t seq, const trace::Request& r) {
  return mirrored(kEntryNode, [&] { return inner_->entry_node(seq, r); });
}

bool TimedPolicy::entry_is_dns() const {
  return timed(kEntryIsDns, [&] { return inner_->entry_is_dns(); });
}

int TimedPolicy::select_service_node(int entry, const trace::Request& r) {
  return mirrored(kSelectServiceNode, [&] { return inner_->select_service_node(entry, r); });
}

bool TimedPolicy::decides_asynchronously() const {
  return timed(kDecidesAsync, [&] { return inner_->decides_asynchronously(); });
}

void TimedPolicy::select_service_node_async(int entry, const trace::Request& r,
                                            std::function<void(int target)> done) {
  // Only the synchronous part is timed; `done` runs later from an event.
  mirrored(kSelectAsync,
           [&] { inner_->select_service_node_async(entry, r, std::move(done)); });
}

SimTime TimedPolicy::forward_cpu_time(int entry) const {
  return timed(kForwardCpuTime, [&] { return inner_->forward_cpu_time(entry); });
}

void TimedPolicy::on_service_start(int node, const trace::Request& r) {
  mirrored(kServiceStart, [&] { inner_->on_service_start(node, r); });
}

void TimedPolicy::on_complete(int node, const trace::Request& r) {
  mirrored(kComplete, [&] { inner_->on_complete(node, r); });
}

int TimedPolicy::select_next_in_connection(int current, const trace::Request& r) {
  return mirrored(kSelectNextInConnection,
                  [&] { return inner_->select_next_in_connection(current, r); });
}

void TimedPolicy::on_connection_migrated(int from, int to, const trace::Request& r) {
  mirrored(kConnectionMigrated, [&] { inner_->on_connection_migrated(from, to, r); });
}

void TimedPolicy::on_node_failed(int node) {
  mirrored(kNodeFailed, [&] { inner_->on_node_failed(node); });
}

void TimedPolicy::on_node_suspected(int node) {
  mirrored(kNodeSuspected, [&] { inner_->on_node_suspected(node); });
}

void TimedPolicy::on_node_recovered(int node) {
  mirrored(kNodeRecovered, [&] { inner_->on_node_recovered(node); });
}

void TimedPolicy::on_brownout(int level) {
  mirrored(kBrownout, [&] { inner_->on_brownout(level); });
}

}  // namespace l2s::perfbench
