// l2sim — command-line front end to the library.
//
//   l2sim model point --hit-rate 0.6 --size 16 [--nodes 16] [--replication 0]
//   l2sim model latency --hit-rate 0.8 --size 16 [--conscious]
//   l2sim model --analytic-cache --trace t.l2st [--nodes N] [--cache MB]
//               (hit rate from the Che cache level — no measured axis)
//   l2sim plan --trace t.l2st [--nodes 1,2,4,8] [--cache-mib 2,8,32] [--top K]
//   l2sim trace gen --out t.l2st [--paper calgary | --files N --avg-file KB
//                    --requests N --avg-req KB --alpha A] [--scale S]
//   l2sim trace info --in t.l2st            (or --clf access.log)
//   l2sim trace convert --clf access.log --out t.l2st
//   l2sim run --trace t.l2st|--paper calgary --policy l2s|lard|trad|rr
//             [--nodes N] [--cache MB] [--scale S] [--rate R] [--rpc K]
//             [--fail NODE@SECONDS] [--threads T for sweeps]
//   l2sim figure --paper calgary [--scale S] [--csv DIR] [--threads T]
//
// Every command prints a human-readable table; figures can also emit CSV.
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "l2sim/common/cli_args.hpp"
#include "l2sim/l2sim.hpp"
#include "l2sim/core/parallel.hpp"
#include "l2sim/policy/round_robin.hpp"

namespace {

using namespace l2s;

using Args = l2s::CliArgs;

int usage() {
  std::cerr <<
      "usage: l2sim <command> [options]\n"
      "  model point    --hit-rate H --size KB [--nodes N] [--replication R]\n"
      "  model latency  --hit-rate H --size KB [--conscious] [--points P]\n"
      "  model          --analytic-cache (--trace FILE | --paper NAME)\n"
      "                 [--nodes N] [--cache MB] [--rate R] [--policy P]\n"
      "                 [--replication R] [--transient-samples K]\n"
      "                 [overload flags: --arrival/--flash-*/--diurnal-*/\n"
      "                  --churn-*]   hit rates predicted, not supplied\n"
      "  plan           (--trace FILE | --paper NAME [--scale S])\n"
      "                 [--nodes N1,N2,...] [--cache-mib C1,C2,...]\n"
      "                 [--top K] [--replication R] [--knee W]\n"
      "                 [--crossover W] [--uncertainty W] [--policy P]\n"
      "                 [--rate R]   rank a sweep grid by predicted\n"
      "                 interest and emit the top-K cells as run commands\n"
      "  trace gen      --out FILE (--paper NAME | --files N --avg-file KB\n"
      "                 --requests N --avg-req KB --alpha A) [--scale S]\n"
      "                 [--temporal P]\n"
      "  trace info     (--in FILE | --clf LOG | --paper NAME [--scale S])\n"
      "  trace convert  --clf LOG --out FILE\n"
      "  run            (--trace FILE | --paper NAME [--scale S]) [--policy P]\n"
      "                 [--nodes N] [--cache MB] [--rate R] [--rpc K]\n"
      "                 [--gdsf] [--fail NODE@SEC] [--skew S] [--shrink SEC]\n"
      "                 [--trace-out T.json] [--metrics-out M.csv]\n"
      "                 [--timeseries-out TS.csv] [--spans-out S.csv]\n"
      "                 [--span-sample N] [--decisions-out D.csv]\n"
      "                 [--arrival stationary|flash|diurnal] [--chaos-seed N]\n"
      "                 [--flash-at S --flash-factor F --flash-ramp S\n"
      "                  --flash-hold S] [--diurnal-period S --diurnal-amp A]\n"
      "                 [--churn-period S --churn-stride K]\n"
      "                 [--shedder none|static|codel|aimd] [--static-cap N]\n"
      "                 [--target-delay S] [--retry-budget R --retry-burst B]\n"
      "                 [--hedge-delay S --max-hedges K] [--brownout]\n"
      "                 [--topology single|rack|fattree] [--racks N]\n"
      "                 [--oversub X] [--fat-tree-k K] [--segment-bytes N]\n"
      "                 [--flow-level]\n"
      "  figure         --paper NAME [--scale S] [--csv DIR] [--threads T]\n"
      "  diff           (--trace FILE | --paper NAME [--scale S]) [run flags]\n"
      "                 [--seed-a N] [--seed-b N] [--policy-a P] [--policy-b P]\n"
      "                 [--context N]   replay both sides with the flight\n"
      "                 recorder on and report the first divergent decision\n"
      "                 record (exit 0 identical, 3 diverged)\n";
  return 2;
}

trace::Trace load_trace(const Args& args) {
  if (args.has("trace") || args.has("in")) {
    return trace::read_binary_file(args.get("trace", args.get("in")));
  }
  if (args.has("clf")) {
    std::ifstream in(args.get("clf"));
    if (!in) throw Error("cannot open " + args.get("clf"));
    return trace::read_clf(in, args.get("clf"));
  }
  if (args.has("paper")) {
    auto spec = trace::paper_trace_spec(args.get("paper"));
    const double scale = args.get_double("scale", 0.1);
    spec.requests =
        static_cast<std::uint64_t>(static_cast<double>(spec.requests) * scale);
    if (args.has("temporal")) spec.temporal_locality = args.get_double("temporal", 0.0);
    return trace::generate(spec);
  }
  throw Error("no trace source: pass --trace, --clf or --paper");
}

core::PolicyKind policy_kind_by_name(const std::string& name) {
  if (name == "l2s") return core::PolicyKind::kL2s;
  if (name == "lard") return core::PolicyKind::kLard;
  if (name == "trad" || name == "traditional") return core::PolicyKind::kTraditional;
  throw Error("policy must be l2s, lard or trad");
}

// model --analytic-cache: run_model with the Che cache level — the hit
// rate is predicted from the trace's popularity profile instead of being
// passed on the command line.
int cmd_model_analytic(const Args& args) {
  const auto tr = load_trace(args);
  core::ExperimentSpec spec;
  spec.name = tr.name();
  spec.sim.nodes = args.get_int("nodes", 16);
  spec.sim.node.cache_bytes = static_cast<Bytes>(
      args.get_double("cache", 32.0) * static_cast<double>(kMiB));
  spec.sim.arrival.open_loop_rate = args.get_double("rate", 0.0);
  spec.model_replication = args.get_double("replication", 0.15);
  spec.policy = policy_kind_by_name(args.get("policy", "l2s"));
  core::apply_overload_cli(args, spec);  // --arrival/--flash-*/--churn-*
  spec.analytic.cache = true;
  spec.analytic.transient_samples = args.get_int("transient-samples", 64);
  const core::ModelResult r = core::run_model(spec, tr);

  TextTable t({"metric", "value"});
  t.cell("hit rate (%)").cell(r.hit_rate * 100.0, 2).end_row();
  t.cell("forwarded (%)").cell(r.forwarded_fraction * 100.0, 2).end_row();
  t.cell("max throughput (req/s)").cell(r.throughput_rps, 1).end_row();
  t.cell("served (req/s)").cell(r.served_rate_rps, 1).end_row();
  if (r.mean_response_seconds > 0.0)
    t.cell("mean response (ms)").cell(r.mean_response_seconds * 1e3, 2).end_row();
  t.cell("bottleneck").cell(r.bottleneck).end_row();
  t.cell("solver iterations").cell(static_cast<long long>(r.iterations)).end_row();
  t.print(std::cout);

  TextTable nodes({"node", "hit rate (%)"});
  for (std::size_t i = 0; i < r.per_node_hit.size(); ++i)
    nodes.cell(static_cast<long long>(i)).cell(r.per_node_hit[i] * 100.0, 2).end_row();
  nodes.print(std::cout);
  return 0;
}

int cmd_model(const Args& args) {
  if (args.has("analytic-cache")) return cmd_model_analytic(args);
  model::ModelParams params;
  params.nodes = args.get_int("nodes", 16);
  params.replication = args.get_double("replication", 0.0);
  if (args.has("cache")) params.cache_bytes = static_cast<Bytes>(
      args.get_double("cache", 128.0) * static_cast<double>(kMiB));
  const model::ClusterModel m(params);
  // --hit-rate is the manual override (the paper's measured axis); --hlo
  // is the historical spelling. `model --analytic-cache` predicts it.
  const double hlo = args.get_double("hit-rate", args.get_double("hlo", 0.6));
  const double size = args.get_double("size", 16.0);

  const std::string sub = args.positional().empty() ? "point" : args.positional()[0];
  if (sub == "latency") {
    const bool conscious = args.has("conscious");
    const auto curve = model::latency_curve(m, conscious, hlo, size,
                                            args.get_int("points", 12), 0.95);
    TextTable t({"load (%)", "req/s", "mean response (ms)"});
    for (const auto& p : curve)
      t.cell(p.utilization * 100.0, 0).cell(p.arrival_rate, 0)
          .cell(p.mean_response_s * 1e3, 2).end_row();
    t.print(std::cout);
    return 0;
  }
  const auto lo = m.oblivious(hlo, size);
  const auto lc = m.conscious(hlo, size);
  TextTable t({"server", "hit rate", "Q (%)", "bound (req/s)", "bottleneck"});
  t.cell("oblivious").cell(lo.hit_rate, 3).cell(0.0, 1).cell(lo.throughput, 0)
      .cell(lo.bottleneck).end_row();
  t.cell("conscious").cell(lc.hit_rate, 3).cell(lc.forwarded_fraction * 100.0, 1)
      .cell(lc.throughput, 0).cell(lc.bottleneck).end_row();
  t.print(std::cout);
  std::cout << "increase due to locality: "
            << format_double(lc.throughput / lo.throughput, 2) << "x\n";
  return 0;
}

int cmd_trace(const Args& args) {
  const std::string sub = args.positional().empty() ? "info" : args.positional()[0];
  if (sub == "gen") {
    trace::Trace tr = [&] {
      if (args.has("paper")) return load_trace(args);
      trace::SyntheticSpec spec;
      spec.name = args.get("name", "custom");
      spec.files = static_cast<std::uint64_t>(args.get_int("files", 1000));
      spec.avg_file_kb = args.get_double("avg-file", 32.0);
      spec.requests = static_cast<std::uint64_t>(args.get_int("requests", 100000));
      spec.avg_request_kb = args.get_double("avg-req", 16.0);
      spec.alpha = args.get_double("alpha", 1.0);
      spec.temporal_locality = args.get_double("temporal", 0.0);
      if (args.has("seed"))
        spec.seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
      return trace::generate(spec);
    }();
    if (!args.has("out")) throw Error("trace gen: --out FILE required");
    trace::write_binary_file(tr, args.get("out"));
    std::cout << "wrote " << tr.request_count() << " requests / "
              << tr.files().count() << " files to " << args.get("out") << '\n';
    return 0;
  }
  if (sub == "convert") {
    const auto tr = load_trace(args);
    if (!args.has("out")) throw Error("trace convert: --out FILE required");
    trace::write_binary_file(tr, args.get("out"));
    std::cout << "converted: " << tr.request_count() << " requests -> "
              << args.get("out") << '\n';
    return 0;
  }
  // info
  const auto tr = load_trace(args);
  const auto ch = trace::characterize(tr);
  TextTable t({"metric", "value"});
  t.cell("name").cell(tr.name()).end_row();
  t.cell("files").cell(static_cast<long long>(ch.files)).end_row();
  t.cell("avg file (KB)").cell(ch.avg_file_kb, 2).end_row();
  t.cell("requests").cell(static_cast<long long>(ch.requests)).end_row();
  t.cell("avg request (KB)").cell(ch.avg_request_kb, 2).end_row();
  t.cell("fitted alpha").cell(ch.alpha, 3).end_row();
  t.cell("working set (MB)")
      .cell(static_cast<double>(ch.working_set_bytes) / 1048576.0, 1)
      .end_row();
  t.print(std::cout);
  return 0;
}

std::vector<double> parse_list(const std::string& csv) {
  std::vector<double> out;
  std::size_t pos = 0;
  while (pos < csv.size()) {
    const auto comma = csv.find(',', pos);
    out.push_back(std::atof(csv.substr(pos, comma - pos).c_str()));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

// plan: score a {nodes x cache} sweep grid on the analytic surface and
// print every cell ranked by predicted interest, then the top-K as
// ready-to-run `l2sim run` command lines — the DES budget goes where the
// analytic model is least trustworthy (knees, policy crossovers,
// approximation edges).
int cmd_plan(const Args& args) {
  const auto tr = load_trace(args);
  const trace::TraceCharacteristics ch = trace::characterize(tr);

  analytic::HierarchicalParams base;
  base.workload = ch.to_workload_stats();
  base.model.alpha = ch.alpha;
  base.model.replication = args.get_double("replication", 0.15);

  analytic::PlanAxes axes;
  if (args.has("nodes")) {
    axes.node_counts.clear();
    for (const double v : parse_list(args.get("nodes")))
      axes.node_counts.push_back(static_cast<int>(v));
  }
  if (args.has("cache-mib")) axes.cache_mib = parse_list(args.get("cache-mib"));

  analytic::PlanWeights weights;
  weights.knee = args.get_double("knee", weights.knee);
  weights.crossover = args.get_double("crossover", weights.crossover);
  weights.uncertainty = args.get_double("uncertainty", weights.uncertainty);

  const analytic::Plan plan = analytic::plan_cells(base, axes, weights);
  const auto top = static_cast<std::size_t>(
      args.get_int("top", static_cast<int>((plan.cells.size() + 3) / 4)));

  TextTable t({"rank", "nodes", "cache MiB", "score", "knee", "xover",
               "uncert", "lc req/s", "lo req/s", "hit", "bottleneck"});
  for (std::size_t k = 0; k < plan.cells.size(); ++k) {
    const auto& c = plan.cells[k];
    t.cell(static_cast<long long>(k + 1))
        .cell(static_cast<long long>(c.nodes))
        .cell(c.cache_mib, 0)
        .cell(c.score, 3)
        .cell(c.knee, 2)
        .cell(c.crossover, 2)
        .cell(c.uncertainty, 2)
        .cell(c.conscious_rps, 0)
        .cell(c.oblivious_rps, 0)
        .cell(c.hit_rate, 3)
        .cell(c.bottleneck)
        .end_row();
  }
  t.print(std::cout);

  // Materialize the top-K as runnable cells: library callers get specs via
  // plan_to_specs; the shell gets equivalent `l2sim run` command lines.
  core::ExperimentSpec base_spec;
  base_spec.name = tr.name();
  const auto specs = analytic::plan_to_specs(base_spec, plan, top);
  std::string source;
  if (args.has("trace") || args.has("in"))
    source = "--trace " + args.get("trace", args.get("in"));
  else if (args.has("clf"))
    source = "--clf " + args.get("clf");
  else
    source = "--paper " + args.get("paper") + " --scale " +
             format_double(args.get_double("scale", 0.1), 2);
  const std::string policy = args.get("policy", "l2s");
  const double rate = args.get_double("rate", 0.0);
  std::cout << "\nplanned cells (top " << specs.size() << " of "
            << plan.cells.size() << "):\n";
  for (const auto& s : specs) {
    std::cout << "  l2sim run " << source << " --policy " << policy
              << " --nodes " << s.sim.nodes << " --cache "
              << format_double(static_cast<double>(s.sim.node.cache_bytes) /
                                   static_cast<double>(kMiB),
                               0);
    if (rate > 0.0) std::cout << " --rate " << format_double(rate, 0);
    std::cout << "   # " << s.name << '\n';
  }
  return 0;
}

std::unique_ptr<policy::Policy> policy_by_name(const std::string& name, double shrink) {
  if (name == "l2s") return core::make_policy(core::PolicyKind::kL2s, shrink);
  if (name == "lard") return core::make_policy(core::PolicyKind::kLard, shrink);
  if (name == "trad" || name == "traditional")
    return core::make_policy(core::PolicyKind::kTraditional, shrink);
  if (name == "rr" || name == "rr-dns") return std::make_unique<policy::RoundRobinPolicy>();
  throw Error("unknown policy: " + name + " (expected l2s, lard, trad or rr)");
}

int cmd_run(const Args& args) {
  const auto tr = load_trace(args);
  core::ExperimentSpec spec;
  spec.name = tr.name();
  core::SimConfig& cfg = spec.sim;
  cfg.nodes = args.get_int("nodes", 16);
  cfg.node.cache_bytes = static_cast<Bytes>(
      args.get_double("cache", 32.0) * static_cast<double>(kMiB));
  if (args.has("gdsf")) cfg.node.cache_policy = cluster::CachePolicy::kGdsf;
  cfg.arrival.open_loop_rate = args.get_double("rate", 0.0);
  cfg.persistence.mean_requests_per_connection = args.get_double("rpc", 1.0);
  cfg.arrival.dns_entry_skew = args.get_double("skew", 0.0);
  core::apply_overload_cli(args, spec);
  core::apply_topology_cli(args, spec);
  if (args.has("timeline")) spec.output.timeline_csv_path = args.get("timeline");
  // Telemetry: any export flag enables the recorder for the run.
  if (args.has("trace-out")) spec.output.trace_json_path = args.get("trace-out");
  if (args.has("metrics-out")) spec.output.metrics_csv_path = args.get("metrics-out");
  if (args.has("timeseries-out"))
    spec.output.timeseries_csv_path = args.get("timeseries-out");
  if (args.has("spans-out")) spec.output.spans_csv_path = args.get("spans-out");
  // Decision log: the export flag enables the flight recorder for the run.
  if (args.has("decisions-out")) spec.output.decisions_csv_path = args.get("decisions-out");
  if (args.has("span-sample")) {
    cfg.telemetry.enabled = true;
    cfg.telemetry.span_sample_every =
        static_cast<std::uint64_t>(args.get_int("span-sample", 64));
  }
  if (args.has("fail")) {
    const std::string fail = args.get("fail");
    const auto at = fail.find('@');
    if (at == std::string::npos) throw Error("--fail expects NODE@SECONDS");
    cfg.fault_plan.crashes.push_back(
        {std::atoi(fail.substr(0, at).c_str()), std::atof(fail.substr(at + 1).c_str())});
  }
  spec.set_shrink_seconds = args.get_double("shrink", 20.0 * args.get_double("scale", 0.1));
  const std::string pname = args.get("policy", "l2s");
  const auto r = [&]() -> core::SimResult {
    if (pname == "l2s") spec.policy = core::PolicyKind::kL2s;
    else if (pname == "lard") spec.policy = core::PolicyKind::kLard;
    else if (pname == "trad" || pname == "traditional")
      spec.policy = core::PolicyKind::kTraditional;
    else {
      // Policies outside PolicyKind (round robin) drive the simulator
      // directly from the spec's SimConfig.
      if (!spec.output.timeline_csv_path.empty())
        cfg.timeline_csv_path = spec.output.timeline_csv_path;
      if (spec.output.wants_telemetry()) cfg.telemetry.enabled = true;
      if (spec.output.wants_obs()) cfg.obs.enabled = true;
      core::ClusterSimulation sim(cfg, tr,
                                  policy_by_name(pname, spec.set_shrink_seconds));
      core::SimResult result = sim.run();
      core::export_outputs(spec.output, result);
      return result;
    }
    return core::run_simulation(spec, tr);
  }();
  if (r.telemetry != nullptr) telemetry::write_summary(std::cout, *r.telemetry);
  std::cout << r.describe() << '\n';
  TextTable t({"metric", "value"});
  t.cell("throughput (req/s)").cell(r.throughput_rps, 1).end_row();
  t.cell("completed / failed")
      .cell(std::to_string(r.completed) + " / " + std::to_string(r.failed))
      .end_row();
  t.cell("hit rate (%)").cell(r.hit_rate * 100.0, 2).end_row();
  t.cell("forwarded (%)").cell(r.forwarded_fraction * 100.0, 2).end_row();
  t.cell("CPU idle (%)").cell(r.cpu_idle_fraction * 100.0, 2).end_row();
  t.cell("load CoV").cell(r.load_cov, 3).end_row();
  t.cell("response mean/p50/p95/p99 (ms)")
      .cell(format_double(r.mean_response_ms, 2) + " / " +
            format_double(r.p50_response_ms, 2) + " / " +
            format_double(r.p95_response_ms, 2) + " / " +
            format_double(r.p99_response_ms, 2))
      .end_row();
  t.cell("stage entry/forward/disk/reply (ms)")
      .cell(format_double(r.stage_entry_ms, 2) + " / " +
            format_double(r.stage_forward_ms, 2) + " / " +
            format_double(r.stage_disk_ms, 2) + " / " +
            format_double(r.stage_reply_ms, 2))
      .end_row();
  t.cell("VIA messages").cell(static_cast<long long>(r.via_messages)).end_row();
  t.print(std::cout);
  return 0;
}

// Replay two configurations with the flight recorder on and report the
// first decision record where they disagree — the debugger for "these two
// runs should have matched digests and didn't".
int cmd_diff(const Args& args) {
  const auto tr = load_trace(args);
  core::ExperimentSpec base;
  base.name = tr.name();
  core::SimConfig& cfg = base.sim;
  cfg.nodes = args.get_int("nodes", 16);
  cfg.node.cache_bytes = static_cast<Bytes>(
      args.get_double("cache", 32.0) * static_cast<double>(kMiB));
  if (args.has("gdsf")) cfg.node.cache_policy = cluster::CachePolicy::kGdsf;
  cfg.arrival.open_loop_rate = args.get_double("rate", 0.0);
  cfg.persistence.mean_requests_per_connection = args.get_double("rpc", 1.0);
  cfg.arrival.dns_entry_skew = args.get_double("skew", 0.0);
  core::apply_overload_cli(args, base);
  if (args.has("fail")) {
    const std::string fail = args.get("fail");
    const auto at = fail.find('@');
    if (at == std::string::npos) throw Error("--fail expects NODE@SECONDS");
    cfg.fault_plan.crashes.push_back(
        {std::atoi(fail.substr(0, at).c_str()), std::atof(fail.substr(at + 1).c_str())});
  }
  base.set_shrink_seconds = args.get_double("shrink", 20.0 * args.get_double("scale", 0.1));
  base.policy = policy_kind_by_name(args.get("policy", "l2s"));

  core::ExperimentSpec a = base;
  core::ExperimentSpec b = base;
  if (args.has("seed-a"))
    a.sim.seed = static_cast<std::uint64_t>(args.get_int("seed-a", 0));
  if (args.has("seed-b"))
    b.sim.seed = static_cast<std::uint64_t>(args.get_int("seed-b", 0));
  if (args.has("policy-a")) a.policy = policy_kind_by_name(args.get("policy-a"));
  if (args.has("policy-b")) b.policy = policy_kind_by_name(args.get("policy-b"));

  obs::DiffOptions options;
  options.context = static_cast<std::size_t>(args.get_int("context", 8));
  const obs::DiffReport report = obs::diff_decisions(a, b, tr, options);
  std::cout << report.summary();
  return report.diverged ? 3 : 0;
}

int cmd_figure(const Args& args) {
  if (!args.has("paper")) throw Error("figure: --paper NAME required");
  const double scale = args.get_double("scale", 0.1);
  core::ExperimentSpec spec;
  spec.name = args.get("paper");
  spec.trace = core::TraceSpec::paper(spec.name, scale);
  spec.sim.node.cache_bytes = 32 * kMiB;
  spec.set_shrink_seconds = 20.0 * scale;

  const auto tr = spec.trace.realize();
  const auto cfg = core::to_experiment_config(spec);
  const auto threads = static_cast<unsigned>(args.get_int("threads", 0));
  const auto fig = threads == 1 ? core::run_throughput_figure(tr, cfg)
                                : core::run_throughput_figure_parallel(tr, cfg, threads);
  core::print_throughput_figure(std::cout, fig);
  if (args.has("csv"))
    core::write_throughput_csv(fig, args.get("csv"), "figure_" + tr.name());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  const Args args(argc, argv, 2);
  try {
    if (cmd == "model") return cmd_model(args);
    if (cmd == "plan") return cmd_plan(args);
    if (cmd == "trace") return cmd_trace(args);
    if (cmd == "run") return cmd_run(args);
    if (cmd == "figure") return cmd_figure(args);
    if (cmd == "diff") return cmd_diff(args);
    return usage();
  } catch (const l2s::Error& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
