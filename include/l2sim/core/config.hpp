// Simulation configuration, grouped by the engine component that consumes
// it: arrival generation, admission control, client retries and persistent
// connections each have their own sub-config, embedded in SimConfig next
// to the cluster-wide hardware and fault parameters.
//
// Field migration from the flat pre-engine SimConfig:
//   open_loop_arrival_rate        -> arrival.open_loop_rate
//   dns_entry_skew                -> arrival.dns_entry_skew
//   buffer_slots_per_node         -> admission.buffer_slots_per_node
//   mean_requests_per_connection  -> persistence.mean_requests_per_connection
//   persistent_mode               -> persistence.mode
//   retry (SimConfig::RetryParams)-> retry (RetryConfig; alias kept)
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "l2sim/cluster/node.hpp"
#include "l2sim/common/units.hpp"
#include "l2sim/fault/plan.hpp"
#include "l2sim/net/params.hpp"
#include "l2sim/net/topology.hpp"
#include "l2sim/obs/config.hpp"
#include "l2sim/telemetry/config.hpp"

namespace l2s::core {

/// How a persistent (HTTP/1.1-style) connection obtains a file its current
/// node does not cache, following Aron et al.'s two mechanisms:
/// migrate the whole connection to the caching node (hand-off), or have
/// the current node fetch the content from the caching node over the
/// cluster network and reply itself (back-end request forwarding).
enum class PersistentMode { kConnectionHandoff, kBackendForwarding };

/// Time profile of the open-loop arrival rate. kStationary keeps the
/// classic homogeneous Poisson pump; the other shapes modulate the rate
/// over pass time and are realized by Lewis-Shedler thinning against the
/// peak rate, so they stay a single deterministic random stream.
enum class ArrivalShape { kStationary, kFlashCrowd, kDiurnal };

/// How requests enter the cluster (consumed by engine::ArrivalSource).
struct ArrivalConfig {
  /// Open-loop arrival mode: when positive, requests arrive as a Poisson
  /// process at this rate (requests/second) instead of the paper's
  /// saturation replay — the configuration for latency-vs-load studies.
  /// The admission window still caps outstanding work (arrivals finding
  /// it full are dropped and counted as failed), bounding queue blow-up
  /// above saturation.
  double open_loop_rate = 0.0;

  /// DNS-translation caching skew: with this probability a client's
  /// connection ignores the DNS round-robin answer and lands on a node
  /// drawn from a Zipf(1) "cached translation" distribution instead — the
  /// imbalance Section 2 attributes to intermediate name servers caching
  /// translations. Applies only to policies with a DNS front door.
  double dns_entry_skew = 0.0;

  /// Non-stationary shape of the open-loop rate (kStationary reproduces
  /// the exact draw sequence of the pre-overload engine; the golden suite
  /// pins that). Times are seconds relative to the start of each pass,
  /// like the fault plan's schedule.
  ArrivalShape shape = ArrivalShape::kStationary;

  // kFlashCrowd: the rate ramps from open_loop_rate to
  // open_loop_rate * flash_factor starting at flash_at_seconds, holds for
  // flash_hold_seconds, then ramps back down. flash_ramp_seconds == 0 is
  // a step; flash_hold_seconds defaults to "for the rest of the pass".
  double flash_at_seconds = 0.0;
  double flash_factor = 3.0;
  double flash_ramp_seconds = 0.0;
  double flash_hold_seconds = std::numeric_limits<double>::infinity();

  // kDiurnal: rate(t) = open_loop_rate * (1 + amplitude * sin(2*pi*t/T)).
  double diurnal_period_seconds = 10.0;
  double diurnal_amplitude = 0.5;

  /// Popularity churn (any arrival mode, replay included): every
  /// churn_period_seconds the file-popularity ranking rotates by
  /// churn_stride file ids — the hot set moves, deterministically, which
  /// is the miss-rate transient the Olmos non-stationary cache model
  /// predicts. 0 / 0 = off.
  double churn_period_seconds = 0.0;
  std::uint64_t churn_stride = 0;

  /// Rate multiplier at `t` seconds into the pass (1.0 when stationary).
  [[nodiscard]] double shape_multiplier(double t) const;
  /// Instantaneous arrival rate at `t` seconds into the pass.
  [[nodiscard]] double rate_at(double t) const {
    return open_loop_rate * shape_multiplier(t);
  }
  /// Upper bound of shape_multiplier over all t (the thinning envelope).
  [[nodiscard]] double peak_multiplier() const;
  [[nodiscard]] bool churn_enabled() const {
    return churn_period_seconds > 0.0 && churn_stride > 0;
  }
};

/// Which admission-shedding algorithm guards the open-loop front door
/// (engine::OverloadController). kNone admits everything the window holds,
/// reproducing the pre-overload engine exactly.
enum class ShedderKind {
  kNone,       ///< no shedding beyond the finite admission window
  kStaticCap,  ///< hard cap on in-flight admitted requests
  kQueueDelay, ///< shed while the windowed mean sojourn exceeds a target
  kAimd,       ///< goodput-tracking window: multiplicative decrease on failures
};

/// Overload-resilience defenses (l2s::overload — engine::OverloadController,
/// RetryManager hedging/budgets, policy brownout). Every default keeps the
/// defense OFF: a default-constructed OverloadConfig is bit-identical to
/// the pre-overload engine on all 36 golden cells (pinned).
struct OverloadConfig {
  // --- adaptive admission (open-loop arrivals) ---------------------------
  ShedderKind shedder = ShedderKind::kNone;
  /// kStaticCap: maximum in-flight admitted requests.
  std::uint64_t static_cap = 0;
  /// kQueueDelay: shed arrivals while the mean client sojourn observed
  /// over the last delay_window_seconds (terminal failures included) stays
  /// above this target. Mean, not the CoDel min: the hit/miss population
  /// is bimodal and a sub-ms warm hit in every window blinds a min signal
  /// to a disk-bound collapse (see docs/overload.md).
  double target_delay_seconds = 0.05;
  double delay_window_seconds = 0.1;
  /// kAimd: the in-flight cap shrinks multiplicatively on a failure signal
  /// (deadline / retries-exhausted), grows additively each quiet period.
  double aimd_increase = 1.0;        ///< slots added per failure-free period
  double aimd_decrease = 0.7;        ///< cap multiplier on a failure signal
  double aimd_period_seconds = 0.05;
  std::uint64_t aimd_min_window = 4;

  // --- retry budget / hedging (engine::RetryManager) ---------------------
  /// Token-bucket retry budget: every admitted request earns this many
  /// tokens (fractional accrual), every retry or hedge spends one; an
  /// empty bucket suppresses the retry, so retries cannot amplify a storm
  /// beyond burst + ratio * offered. Negative = unlimited (legacy).
  double retry_budget_ratio = -1.0;
  double retry_budget_burst = 16.0;  ///< bucket capacity (also initial fill)
  /// Request hedging: a request still unfinished after this many seconds
  /// is speculatively re-dispatched (the straggler attempt is cancelled —
  /// backup-request-with-cancellation adapted to the one-live-attempt
  /// engine), charged against the retry token bucket. 0 = off.
  double hedge_delay_seconds = 0.0;
  int max_hedges = 1;  ///< hedges per request

  // --- brownout / circuit breaker (policy hooks) -------------------------
  /// Brownout levels driven by the windowed mean client sojourn:
  ///   level 1 (shed forwarding): L2S serves at the entry node, LARD stops
  ///     replicating and migrating — locality is sacrificed for cycles;
  ///   level 2 (shed service): every other open-loop arrival is shed at
  ///     admission on top of the level-1 measures.
  /// Transitions are signalled to the policy (Policy::on_brownout) and the
  /// LifecycleObserver fan-out. Hysteresis: a level drops only once the
  /// delay falls below half the threshold that raised it.
  bool brownout = false;
  double brownout_forward_delay_seconds = 0.05;  ///< level-1 threshold
  double brownout_service_delay_seconds = 0.15;  ///< level-2 threshold

  /// Any admission-side defense on (consulted per open-loop arrival)?
  [[nodiscard]] bool admission_defense() const {
    return shedder != ShedderKind::kNone || brownout;
  }
  /// The retry token bucket is active.
  [[nodiscard]] bool budget_enabled() const { return retry_budget_ratio >= 0.0; }
  [[nodiscard]] bool hedging_enabled() const { return hedge_delay_seconds > 0.0; }
  /// Any defense at all (drives the controller's periodic machinery).
  [[nodiscard]] bool any_on() const {
    return admission_defense() || budget_enabled() || hedging_enabled();
  }
};

/// Bounded in-flight admission window (engine::AdmissionController).
struct AdmissionConfig {
  /// Admission buffer slots per node (total in-flight = nodes * this).
  /// At saturation the average per-node open-connection count equals this
  /// value, so it should sit at or just below the L2S overload threshold
  /// (T = 20): only nodes serving hot files then cross T, which is what
  /// triggers selective replication. Values far above T put every node
  /// permanently over threshold and degrade L2S into full replication.
  std::uint64_t buffer_slots_per_node = 20;
};

/// Client-side robustness (engine::RetryManager). Defaults keep
/// everything off, reproducing the fail-fast client of the original model.
struct RetryConfig {
  int max_retries = 0;  ///< extra attempts after the first (0 = fail fast)
  double initial_backoff_seconds = 0.025;
  double backoff_multiplier = 2.0;
  double max_backoff_seconds = 0.2;
  /// Per-request deadline measured from first arrival; the client gives
  /// up (request fails) when it expires. 0 = none.
  double deadline_seconds = 0.0;
  /// Per-attempt timeout: an attempt that has not completed by then is
  /// abandoned and retried (or failed). Required (or a deadline) for
  /// liveness whenever the fault plan can drop messages. 0 = none.
  double attempt_timeout_seconds = 0.0;
};

/// Persistent-connection behaviour (engine::PersistentPath).
struct PersistenceConfig {
  /// Mean requests served per client connection (geometric distribution);
  /// 1.0 reproduces the paper's HTTP/1.0 setting of one request per
  /// connection. Larger values simulate persistent connections.
  double mean_requests_per_connection = 1.0;
  PersistentMode mode = PersistentMode::kConnectionHandoff;
};

/// Engine selection. One serial des::Scheduler drives every run, so 0 is
/// the only valid `shards` value (validate() rejects any other). The field
/// stays only because the benchmark program (perfbench/src/workloads.cpp)
/// still assigns it.
struct EngineConfig {
  int shards = 0;
};

struct SimConfig {
  int nodes = 16;
  cluster::NodeParams node;  ///< per-node cache (32 MB default), CPU, disk
  net::NetParams net;
  /// Interconnect topology (default kSingleSwitch: the paper's single
  /// crossbar, bit-identical to the pre-topology engine — golden-pinned).
  net::TopologyConfig topology;
  Bytes request_msg_bytes = 256;  ///< client request / hand-off payload
  Bytes control_msg_bytes = 16;   ///< load & locality update payload
  bool warmup = true;
  /// Seed for the simulation's own randomness (connection lengths, DNS
  /// skew, open-loop gaps); the fault layer splits its own stream off it.
  std::uint64_t seed = 0x5EEDC0DE;

  ArrivalConfig arrival;
  AdmissionConfig admission;
  EngineConfig engine;
  RetryConfig retry;
  PersistenceConfig persistence;
  /// Overload-resilience defenses (all off by default; bit-identical to
  /// the pre-overload engine when off — the golden-digest suite pins it).
  OverloadConfig overload;
  /// Back-compat alias: RetryConfig was SimConfig::RetryParams before the
  /// sub-config split.
  using RetryParams = RetryConfig;

  /// Interval at which per-node open-connection counts are sampled to
  /// compute the load-imbalance statistics (0 disables sampling).
  SimTime load_sample_interval = seconds_to_simtime(0.05);
  /// When non-empty, every load sample of the measured pass is appended to
  /// this CSV file (time_s, node0, node1, ...): the per-node load timeline
  /// for plotting balance behaviour over time.
  std::string timeline_csv_path;

  /// Declarative fault schedule for the measured pass (crashes,
  /// recoveries, fail-slow windows, VIA message faults).
  fault::FaultPlan fault_plan;

  /// Heartbeat failure detection (off = fixed-delay detection).
  fault::DetectionParams detection;

  /// Delay until the survivors (policies, DNS) stop using a crashed node
  /// under fixed-delay detection (`detection.heartbeats` false); it also
  /// paces readmission after a recovery on that path.
  double failure_detection_seconds = 0.5;

  /// How long a client waits on a connection to a crashed node before
  /// giving up (its admission slot is held for the duration). Without this
  /// timeout, fail-fast aborts would let a dead node black-hole the whole
  /// trace during the detection window — the classic least-connections
  /// pathology, where the dead node's frozen (minimal) connection count
  /// attracts every new request.
  double failure_client_timeout_seconds = 0.1;

  /// Goodput timeline bucket width for SimResult::goodput_rps (0 = off).
  double goodput_interval_seconds = 0.0;

  /// Observability: metrics registry, span recorder, timeline probe and
  /// exporters (off by default; enabling it must not change results — the
  /// golden-digest suite pins that).
  telemetry::TelemetryConfig telemetry;
  /// Flight recorder: bounded decision log with cause codes (off by
  /// default; recording is digest-inert — pinned like telemetry).
  obs::ObsConfig obs;
  /// Per-node CPU speed factors (empty = homogeneous cluster, the paper's
  /// assumption). When set, the vector length must equal `nodes`.
  std::vector<double> node_speed_factors;

  void validate() const;
};

}  // namespace l2s::core
