// l2sim_perfbench: runs one benchmark workload through the public l2sim
// API on the serial engine, checks the simulated results, and prints every
// metric by name with its unit. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 it holds the end-to-end metrics (untraced runs only); with
// --trace 1 it holds the per-layer metrics, from untraced runs paired with
// runs whose policy is wrapped in the TimedPolicy decorator.
//
//   l2sim_perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// lard-http11-obs writes its telemetry and decision-log exports under
// .bench_build/exports/ in the working directory.
//
// See README.md for the workloads, the metrics and what each should move.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "l2sim/core/metrics.hpp"
#include "l2sim/core/simulation.hpp"
#include "l2sim/core/spec.hpp"
#include "l2sim/des/event.hpp"
#include "l2sim/obs/decision.hpp"
#include "timed_policy.hpp"
#include "workloads.hpp"

namespace l2s::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr const char* kUsage =
    "usage: l2sim_perfbench --workload NAME --seed N --seconds S --trace 0|1\n";
constexpr const char* kExportDir = ".bench_build/exports";
/// Set-up-only samples taken before the runs (each run adds one more).
constexpr int kSetupOnlySamples = 3;
/// Untraced runs at least: two, so a non-default seed can check that a
/// repeated run gives the same digest.
constexpr std::size_t kMinRuns = 2;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// --- command line ----------------------------------------------------------

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
};

[[noreturn]] void usage_error(const std::string& message) {
  std::cerr << "l2sim_perfbench: " << message << '\n' << kUsage;
  std::exit(2);
}

/// A whole decimal number that fits in uint64, digits only.
bool parse_u64(const std::string& text, std::uint64_t& out) {
  if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos) return false;
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), out);
  return ec == std::errc() && end == text.data() + text.size();
}

Options parse_options(int argc, char** argv) {
  Options o;
  bool have_seed = false, have_seconds = false, have_trace = false;
  std::vector<std::string> seen;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag != "--workload" && flag != "--seed" && flag != "--seconds" && flag != "--trace")
      usage_error("unknown argument '" + flag + "'");
    if (std::find(seen.begin(), seen.end(), flag) != seen.end())
      usage_error("duplicate flag " + flag);
    seen.push_back(flag);
    if (i + 1 >= argc) usage_error(flag + " needs a value");
    const std::string value = argv[++i];
    std::uint64_t n = 0;
    if (flag == "--workload") {
      o.workload = find_workload(value);
      if (o.workload == nullptr)
        usage_error("unknown workload '" + value + "' (expected one of: " +
                    workload_names() + ")");
    } else if (flag == "--seed") {
      if (!parse_u64(value, n))
        usage_error("--seed must be a whole number in [0, 2^64), got '" + value + "'");
      o.seed = n;
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!parse_u64(value, n) || n < 1 || n > 3600)
        usage_error("--seconds must be a whole number in [1, 3600], got '" + value + "'");
      o.seconds = static_cast<int>(n);
      have_seconds = true;
    } else {
      if (value != "0" && value != "1") usage_error("--trace must be 0 or 1, got '" + value + "'");
      o.trace = value == "1";
      have_trace = true;
    }
  }
  if (o.workload == nullptr) usage_error("--workload is required");
  if (!have_seed) usage_error("--seed is required");
  if (!have_seconds) usage_error("--seconds is required");
  if (!have_trace) usage_error("--trace is required");
  return o;
}

// --- one run ---------------------------------------------------------------

/// One realize + build + run of the workload, with what each layer
/// reported. Counts come from the measured pass except des.events, which
/// the scheduler accumulates over both passes. It holds plain numbers only,
/// so nothing a run allocated outlives it (see reset_allocators).
struct Sample {
  bool traced = false;
  double realize_s = 0.0;
  double build_s = 0.0;
  double run_s = 0.0;
  double export_s = 0.0;
  std::uint64_t digest = 0;
  std::uint64_t offered = 0;  ///< requests in the trace (one pass)
  // From SimResult.
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  double rps = 0.0;
  double p99_ms = 0.0;
  double mean_ms = 0.0;
  double entry_ms = 0.0;
  double forward_ms = 0.0;
  double disk_ms = 0.0;
  double reply_ms = 0.0;
  double forwarded_fraction = 0.0;
  double cpu_util = 0.0;
  std::uint64_t via_messages = 0;
  std::uint64_t load_broadcasts = 0;
  std::uint64_t locality_broadcasts = 0;
  std::uint64_t migrations = 0;
  // From the components, after the run.
  std::uint64_t events = 0;
  std::uint64_t traversals = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_accesses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t disk_reads = 0;
  double disk_util = 0.0;
  std::uint64_t set_changes = 0;
  std::uint64_t records = 0;
  std::array<TimedPolicy::HookStats, TimedPolicy::kHookCount> hooks{};
  std::uint64_t policy_calls = 0;
  double policy_s = 0.0;
};

core::OutputSpec exports() {
  const std::string dir = kExportDir;
  core::OutputSpec out;
  out.trace_json_path = dir + "/trace.json";
  out.metrics_csv_path = dir + "/metrics.csv";
  out.timeseries_csv_path = dir + "/timeseries.csv";
  out.spans_csv_path = dir + "/spans.csv";
  out.decisions_csv_path = dir + "/decisions.csv";
  return out;
}

/// Start every run from the same allocator state. Free lists that a
/// previous run left behind hand out blocks in scrambled order, and each
/// later run in the process got slower than the one before it. The trim
/// can give memory back only because no allocation of a finished run
/// survives it.
void reset_allocators() {
  des::EventArena::trim();
  malloc_trim(0);
}

/// Realize the trace and build the simulation, then drop both: the set-up
/// cost alone. Returns realize and build seconds.
std::pair<double, double> setup_only(const Workload& w, std::uint64_t seed) {
  reset_allocators();
  const Clock::time_point t0 = Clock::now();
  const trace::Trace trace = trace_spec(w, seed).realize();
  const double realize_s = seconds_since(t0);
  const Clock::time_point t1 = Clock::now();
  const core::ClusterSimulation sim(sim_config(w, seed), trace,
                                    core::make_policy(w.policy, set_shrink_seconds(w)));
  return {realize_s, seconds_since(t1)};
}

Sample run_sample(const Workload& w, std::uint64_t seed, bool traced) {
  reset_allocators();
  Sample s;
  s.traced = traced;
  const Clock::time_point t0 = Clock::now();
  const trace::Trace trace = trace_spec(w, seed).realize();
  s.realize_s = seconds_since(t0);
  s.offered = trace.request_count();

  const Clock::time_point t1 = Clock::now();
  std::unique_ptr<policy::Policy> policy = core::make_policy(w.policy, set_shrink_seconds(w));
  const TimedPolicy* timed = nullptr;
  if (traced) {
    auto wrapped = std::make_unique<TimedPolicy>(std::move(policy));
    timed = wrapped.get();
    policy = std::move(wrapped);
  }
  core::ClusterSimulation sim(sim_config(w, seed), trace, std::move(policy));
  s.build_s = seconds_since(t1);

  const Clock::time_point t2 = Clock::now();
  const core::SimResult r = sim.run();
  s.run_s = seconds_since(t2);

  // With observers off the result carries nothing to export, and this
  // times the off path.
  const Clock::time_point t3 = Clock::now();
  core::export_outputs(exports(), r);
  s.export_s = seconds_since(t3);

  s.digest = core::result_digest(r);
  s.completed = r.completed;
  s.failed = r.failed;
  s.rps = r.throughput_rps;
  s.p99_ms = r.p99_response_ms;
  s.mean_ms = r.mean_response_ms;
  s.entry_ms = r.stage_entry_ms;
  s.forward_ms = r.stage_forward_ms;
  s.disk_ms = r.stage_disk_ms;
  s.reply_ms = r.stage_reply_ms;
  s.forwarded_fraction = r.forwarded_fraction;
  for (const double u : r.node_cpu_utilization) s.cpu_util += u / w.nodes;
  s.via_messages = r.via_messages;
  s.load_broadcasts = r.load_broadcasts;
  s.locality_broadcasts = r.locality_broadcasts;
  s.migrations = r.migrations;
  s.events = sim.scheduler().events_processed();
  s.traversals = sim.topology().traversals();
  const SimTime elapsed = seconds_to_simtime(r.elapsed_seconds);
  double disk_busy = 0.0;
  for (int i = 0; i < w.nodes; ++i) {
    cluster::Node& n = sim.node(i);
    const cache::CacheStats& cs = n.file_cache().stats();
    s.cache_hits += cs.hits;
    s.cache_accesses += cs.accesses();
    s.evictions += cs.evictions;
    s.disk_reads += n.disk().resource().jobs_completed();
    disk_busy += n.disk().resource().utilization(elapsed);
  }
  s.disk_util = disk_busy / w.nodes;
  const stats::CounterSet& counters = sim.policy().counters();
  s.set_changes = counters.get("set_create") + counters.get("set_grow") +
                  counters.get("set_shrink");
  if (r.decisions != nullptr) s.records = r.decisions->recorded;
  if (timed != nullptr) {
    s.hooks = timed->hooks();
    s.policy_calls = timed->total_calls();
    s.policy_s = timed->total_seconds();
  }
  return s;
}

// --- checks ----------------------------------------------------------------

struct Check {
  std::string name;
  bool pass = true;
  std::string detail;
  /// A defect of the simulator that is known and not yet fixed: reported
  /// by name on every run, but not counted as a failed operation.
  bool known_defect = false;
};

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// `reference` is the digest every run must reproduce: the pinned digest
/// at the default seed, else the first untraced run's. `untraced` is the
/// first untraced run's digest, which a traced run must equal.
std::vector<Check> check_sample(const Sample& s, std::uint64_t reference, bool pinned,
                                std::uint64_t untraced) {
  std::vector<Check> checks;
  checks.push_back({pinned ? "digest_pinned" : "digest_repeat", s.digest == reference,
                    hex(s.digest) + (s.digest == reference ? " == " : " != ") + hex(reference)});
  if (s.traced)
    checks.push_back({"digest_traced_equals_untraced", s.digest == untraced,
                      hex(s.digest) + (s.digest == untraced ? " == " : " != ") + hex(untraced)});
  checks.push_back({"flow_balance", s.completed + s.failed == s.offered,
                    std::to_string(s.completed) + " completed + " + std::to_string(s.failed) +
                        " failed vs " + std::to_string(s.offered) + " offered"});
  const double stages = s.entry_ms + s.forward_ms + s.disk_ms + s.reply_ms;
  std::ostringstream sum;
  sum.precision(17);
  sum << "stages " << stages << " ms vs mean " << s.mean_ms << " ms";
  checks.push_back({"stage_sum",
                    std::abs(stages - s.mean_ms) <= 1e-9 * std::max(1.0, std::abs(s.mean_ms)),
                    sum.str()});
  const bool nonnegative =
      s.entry_ms >= 0.0 && s.forward_ms >= 0.0 && s.disk_ms >= 0.0 && s.reply_ms >= 0.0;
  std::ostringstream neg;
  neg << "entry " << s.entry_ms << " forward " << s.forward_ms << " disk " << s.disk_ms
      << " reply " << s.reply_ms << " ms";
  // On persistent connections PersistentPath::continue_connection restamps
  // conn->arrival but not conn->t_decided, so entry = t_decided - arrival
  // goes negative for every request after a connection's first.
  if (!nonnegative) neg << " (persistent-connection restamp of arrival, not t_decided)";
  checks.push_back({"stage_nonnegative", nonnegative, neg.str(), /*known_defect=*/true});
  return checks;
}

// --- output ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;  ///< how it was measured, e.g. "median of 3"
};

std::string number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

std::string samples_note(std::size_t n) { return "median of " + std::to_string(n); }

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

std::vector<double> field(const std::vector<Sample>& v, double Sample::*f) {
  std::vector<double> out;
  for (const Sample& s : v) out.push_back(s.*f);
  return out;
}

std::vector<Metric> end_to_end(const std::vector<Sample>& runs,
                               const std::vector<double>& setups) {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return {
      {"run_s", median(field(runs, &Sample::run_s)), "s", samples_note(runs.size())},
      {"setup_s", median(setups), "s", samples_note(setups.size())},
      {"peak_rss_mib", static_cast<double>(usage.ru_maxrss) / 1024.0, "MiB", "getrusage"},
  };
}

std::vector<Metric> per_layer(const std::vector<Sample>& plain,
                              const std::vector<Sample>& traced, std::size_t stage_negative) {
  const Sample& p = plain.front();
  const Sample& t = traced.front();
  std::vector<Sample> all = plain;
  all.insert(all.end(), traced.begin(), traced.end());
  const double run_s = median(field(plain, &Sample::run_s));
  const double traced_run_s = median(field(traced, &Sample::run_s));
  const double policy_s = median(field(traced, &Sample::policy_s));
  const double requests = static_cast<double>(p.offered);
  const double passes = 2.0;  // the warm-up pass and the measured pass
  const std::string n_plain = samples_note(plain.size());
  const std::string n_traced = samples_note(traced.size());
  const std::string n_all = samples_note(all.size());
  return {
      {"trace.realize_s", median(field(all, &Sample::realize_s)), "s", n_all},
      {"trace.requests", requests, "count", "per pass"},
      {"core.build_s", median(field(all, &Sample::build_s)), "s", n_all},
      {"des.events", static_cast<double>(p.events), "count", "both passes"},
      {"des.events_per_req", ratio(static_cast<double>(p.events), passes * requests),
       "events/req", "per request replayed"},
      {"des.ns_per_event", ratio(run_s * 1e9, static_cast<double>(p.events)), "ns",
       "run_s " + n_plain + " / des.events"},
      {"net.via_messages", static_cast<double>(p.via_messages), "count", "measured pass"},
      {"net.via_per_req", ratio(static_cast<double>(p.via_messages), requests), "msgs/req",
       "measured pass"},
      {"net.load_broadcasts", static_cast<double>(p.load_broadcasts), "count", "measured pass"},
      {"net.locality_broadcasts", static_cast<double>(p.locality_broadcasts), "count",
       "measured pass"},
      {"net.traversals", static_cast<double>(p.traversals), "count", "measured pass"},
      {"policy.calls", static_cast<double>(t.policy_calls), "count", "traced run, both passes"},
      {"policy.self_s", policy_s, "s", "traced, " + n_traced},
      {"policy.share", ratio(policy_s, traced_run_s), "ratio", "policy.self_s / traced run_s"},
      {"policy.ns_per_call", ratio(policy_s * 1e9, static_cast<double>(t.policy_calls)), "ns",
       "traced"},
      {"policy.set_changes", static_cast<double>(p.set_changes), "count", "measured pass"},
      {"policy.forwarded_fraction", p.forwarded_fraction, "ratio", "measured pass"},
      {"cache.hit_ratio",
       ratio(static_cast<double>(p.cache_hits), static_cast<double>(p.cache_accesses)), "ratio",
       "measured pass"},
      {"cache.evictions", static_cast<double>(p.evictions), "count", "measured pass"},
      {"disk.reads", static_cast<double>(p.disk_reads), "count", "measured pass"},
      {"disk.util", p.disk_util, "ratio", "simulated, mean over nodes"},
      {"cpu.util", p.cpu_util, "ratio", "simulated, mean over nodes"},
      {"sim_rps", p.rps, "req/s", "simulated"},
      {"sim_p99_ms", p.p99_ms, "sim_ms", "LogHistogram bucket bound"},
      {"engine.stage_entry_ms", p.entry_ms, "sim_ms", "mean"},
      {"engine.stage_forward_ms", p.forward_ms, "sim_ms", "mean"},
      {"engine.migrations", static_cast<double>(p.migrations), "count", "measured pass"},
      {"obs.records", static_cast<double>(p.records), "count", "DecisionTrace::recorded"},
      {"obs.export_s", median(field(all, &Sample::export_s)), "s", n_all},
      {"traced.overhead", ratio(traced_run_s, run_s) - 1.0, "ratio",
       "traced run_s / run_s - 1"},
      {"check.stage_negative_runs", static_cast<double>(stage_negative), "count",
       "runs failing stage_nonnegative"},
  };
}

void print_sample(std::size_t index, const Sample& s, const std::vector<Check>& checks) {
  std::cout << "run " << index + 1 << (s.traced ? " (traced)" : " (untraced)")
            << ": realize " << s.realize_s << " s, build " << s.build_s << " s, run "
            << s.run_s << " s";
  std::cout << ", export " << s.export_s << " s";
  std::cout << ", " << s.events << " events, digest " << hex(s.digest) << '\n';
  for (const Check& c : checks) {
    std::cout << "  check " << c.name << ": "
              << (c.pass ? "PASS" : c.known_defect ? "FAIL (known defect)" : "FAIL") << " — "
              << c.detail << '\n';
  }
}

/// The last traced run as spans: the phases the benchmark timed around its
/// calls into the library, with the policy hooks as children of run().
void print_spans(const Sample& s) {
  std::cout << "spans of the last traced run:\n"
            << "  realize  " << s.realize_s << " s\n"
            << "  build    " << s.build_s << " s\n"
            << "  run      " << s.run_s << " s (self " << s.run_s - s.policy_s
            << " s: kernel + hardware layers)\n";
  for (int h = 0; h < TimedPolicy::kHookCount; ++h) {
    const TimedPolicy::HookStats& hs = s.hooks[static_cast<std::size_t>(h)];
    if (hs.calls == 0) continue;
    std::cout << "    policy." << TimedPolicy::hook_name(static_cast<TimedPolicy::Hook>(h))
              << "  " << static_cast<double>(hs.ns) * 1e-9 << " s over " << hs.calls
              << " calls\n";
  }
  std::cout << "  export   " << s.export_s << " s\n";
}

int run(const Options& o) {
  const Workload& w = *o.workload;
  const bool pinned = o.seed == kDefaultSeed;
  if (w.observers) std::filesystem::create_directories(kExportDir);
  std::cout << "workload " << w.name << ", seed " << o.seed
            << (pinned ? " (default: digest pinned)" : " (digest checked by repetition)")
            << ", " << o.seconds << " s, trace " << (o.trace ? 1 : 0) << '\n';

  const Clock::time_point deadline = Clock::now() + std::chrono::seconds(o.seconds);
  // Reserved up front so no growth lands between runs (see reset_allocators).
  constexpr std::size_t kReserve = 256;
  std::vector<double> setups;
  setups.reserve(kReserve);
  if (!o.trace) {
    for (int i = 0; i < kSetupOnlySamples; ++i) {
      const auto [realize_s, build_s] = setup_only(w, o.seed);
      setups.push_back(realize_s + build_s);
    }
  }

  // Untraced and traced runs; with --trace 1 they alternate in pairs,
  // swapping which goes first.
  std::vector<Sample> plain, traced;
  std::vector<double> round_s;
  plain.reserve(kReserve);
  traced.reserve(kReserve);
  round_s.reserve(kReserve);
  std::size_t failed = 0, stage_negative = 0, index = 0;
  std::uint64_t reference = pinned ? w.pinned_digest : 0;
  const auto record = [&](Sample s) {
    if (!pinned && plain.empty() && !s.traced) reference = s.digest;
    const std::vector<Check> checks =
        check_sample(s, reference, pinned, plain.empty() ? s.digest : plain.front().digest);
    print_sample(index++, s, checks);
    bool ok = true;
    for (const Check& c : checks) {
      if (c.pass) continue;
      if (c.known_defect) {
        ++stage_negative;  // stage_nonnegative is the only known defect
      } else {
        ok = false;
      }
    }
    if (!ok) ++failed;
    (s.traced ? traced : plain).push_back(std::move(s));
  };
  for (;;) {
    const Clock::time_point t0 = Clock::now();
    if (o.trace) {
      const bool traced_first = round_s.size() % 2 == 1;
      record(run_sample(w, o.seed, traced_first));
      record(run_sample(w, o.seed, !traced_first));
    } else {
      record(run_sample(w, o.seed, false));
    }
    round_s.push_back(seconds_since(t0));
    const bool enough = o.trace || plain.size() >= kMinRuns;
    const auto next = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(median(round_s)));
    if (enough && Clock::now() + next > deadline) break;
  }
  for (const Sample& s : plain) setups.push_back(s.realize_s + s.build_s);

  const std::vector<Metric> metrics =
      o.trace ? per_layer(plain, traced, stage_negative) : end_to_end(plain, setups);
  if (o.trace) print_spans(traced.back());
  for (const Metric& m : metrics)
    std::cout << "metric " << m.name << " = " << number(m.value) << ' ' << m.unit << " ("
              << m.note << ")\n";
  if (!o.trace) {
    // The simulated end-to-end figures, carried in the --trace 1 JSON: both
    // are exact for a seed but move by up to 30% (sim_rps) and 3.7x
    // (sim_p99_ms, a 1.3x histogram bucket bound) from one seed to the
    // next on l2s-bcast-64, so no regression bound can hold them. The
    // digest checks guard them exactly instead.
    std::cout << "metric sim_rps = " << number(plain.front().rps)
              << " req/s (simulated; in the --trace 1 result)\n"
              << "metric sim_p99_ms = " << number(plain.front().p99_ms)
              << " sim_ms (simulated; in the --trace 1 result)\n";
  }
  const std::size_t attempted = plain.size() + traced.size();
  std::cout << "checked runs: " << attempted << ", failed: " << failed
            << ", runs showing the known stage defect: " << stage_negative << '\n';

  std::ostringstream json;
  json << "{\"correct\": " << (failed == 0 ? "true" : "false") << ", \"attempted\": " << attempted
       << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json << (i > 0 ? ", " : "") << '"' << metrics[i].name << "\": {\"value\": "
         << number(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return 0;
}

}  // namespace
}  // namespace l2s::perfbench

int main(int argc, char** argv) {
  const l2s::perfbench::Options options = l2s::perfbench::parse_options(argc, argv);
  try {
    return l2s::perfbench::run(options);
  } catch (const std::exception& e) {
    std::cerr << "l2sim_perfbench: " << e.what() << '\n';
    return 1;
  }
}
