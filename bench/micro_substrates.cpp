// Microbenchmarks of the substrates (google-benchmark): DES event
// scheduling, resource queueing, LRU cache operations, Zipf sampling and
// harmonic evaluation, synthetic trace generation, and a small end-to-end
// simulation. These quantify simulator cost per simulated request, which
// is what bounds how much of the paper-scale workload a laptop run can
// replay.
#include <benchmark/benchmark.h>

#include <vector>

#include "l2sim/cache/gdsf_cache.hpp"
#include "l2sim/cache/lru_cache.hpp"
#include "l2sim/cache/stack_distance.hpp"
#include "l2sim/common/rng.hpp"
#include "l2sim/core/experiment.hpp"
#include "l2sim/des/resource.hpp"
#include "l2sim/des/scheduler.hpp"
#include "l2sim/trace/synthetic.hpp"
#include "l2sim/zipf/harmonic.hpp"
#include "l2sim/zipf/sampler.hpp"
#include "l2sim/zipf/zipf.hpp"

namespace {

using namespace l2s;

void BM_SchedulerScheduleFire(benchmark::State& state) {
  des::Scheduler sched;
  std::int64_t t = 0;
  for (auto _ : state) {
    sched.at(t += 10, [] {});
    sched.step();
  }
  benchmark::DoNotOptimize(sched.events_processed());
}
BENCHMARK(BM_SchedulerScheduleFire);

void BM_SchedulerBurst(benchmark::State& state) {
  const auto burst = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    des::Scheduler sched;
    for (std::size_t i = 0; i < burst; ++i)
      sched.at(static_cast<SimTime>((i * 7919) % 104729), [] {});
    sched.run();
    benchmark::DoNotOptimize(sched.events_processed());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(burst) * state.iterations());
}
BENCHMARK(BM_SchedulerBurst)->Arg(1024)->Arg(16384);

void BM_ResourcePipeline(benchmark::State& state) {
  for (auto _ : state) {
    des::Scheduler sched;
    des::Resource cpu(sched, "cpu");
    int done = 0;
    for (int i = 0; i < 1000; ++i) cpu.submit(100, [&done] { ++done; });
    sched.run();
    benchmark::DoNotOptimize(done);
  }
  state.SetItemsProcessed(1000 * state.iterations());
}
BENCHMARK(BM_ResourcePipeline);

void BM_LruCacheHit(benchmark::State& state) {
  cache::LruCache cache(64 * kMiB);
  for (cache::FileId id = 0; id < 1000; ++id) cache.insert(id, 32 * kKiB);
  cache::FileId id = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.lookup(id));
    id = (id + 1) % 1000;
  }
}
BENCHMARK(BM_LruCacheHit);

void BM_LruCacheChurn(benchmark::State& state) {
  cache::LruCache cache(8 * kMiB);
  Rng rng(7);
  for (auto _ : state) {
    const auto id = static_cast<cache::FileId>(rng.next_below(4000));
    if (!cache.lookup(id)) cache.insert(id, 16 * kKiB);
  }
}
BENCHMARK(BM_LruCacheChurn);

void BM_LruCacheClarkNet(benchmark::State& state) {
  // The trad-miss-16 access pattern: lookup, then insert on a miss, over
  // ClarkNet's Zipf(0.78) popularity and file sizes into a 32 MiB node.
  // The id stream is drawn up front so only the cache is timed.
  trace::SyntheticSpec spec = trace::paper_trace_spec("clarknet");
  spec.requests = 1;  // only the file set is needed
  const auto tr = trace::generate(spec);
  const zipf::ZipfSampler popularity(35885, 0.78);
  Rng rng(13);
  std::vector<cache::FileId> ids(std::size_t{1} << 20);
  for (auto& id : ids) id = static_cast<cache::FileId>(popularity.sample(rng));
  cache::LruCache cache(32 * kMiB);
  std::size_t i = 0;
  for (auto _ : state) {
    const cache::FileId id = ids[i];
    const bool hit = cache.lookup(id);
    benchmark::DoNotOptimize(hit);
    if (!hit) cache.insert(id, tr.files().size_of(id));
    i = (i + 1) & (ids.size() - 1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LruCacheClarkNet);

void BM_ZipfSample(benchmark::State& state) {
  const zipf::ZipfSampler sampler(35885, 0.78);
  Rng rng(11);
  for (auto _ : state) benchmark::DoNotOptimize(sampler.sample(rng));
}
BENCHMARK(BM_ZipfSample);

void BM_HarmonicLarge(benchmark::State& state) {
  double x = 1e6;
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf::harmonic(x, 0.9));
    x += 1e3;
  }
}
BENCHMARK(BM_HarmonicLarge);

void BM_InvertPopulation(benchmark::State& state) {
  for (auto _ : state)
    benchmark::DoNotOptimize(zipf::invert_population(1000.0, 0.6, 1.0));
}
BENCHMARK(BM_InvertPopulation);

void BM_SyntheticGenerate(benchmark::State& state) {
  trace::SyntheticSpec spec;
  spec.files = 2000;
  spec.requests = 20000;
  spec.avg_file_kb = 24.0;
  spec.avg_request_kb = 16.0;
  spec.alpha = 0.9;
  for (auto _ : state) {
    const auto tr = trace::generate(spec);
    benchmark::DoNotOptimize(tr.request_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(spec.requests) * state.iterations());
}
BENCHMARK(BM_SyntheticGenerate);

void BM_GdsfChurn(benchmark::State& state) {
  cache::GdsfCache cache(8 * kMiB);
  Rng rng(7);
  for (auto _ : state) {
    const auto id = static_cast<cache::FileId>(rng.next_below(4000));
    if (!cache.lookup(id)) cache.insert(id, 16 * kKiB);
  }
}
BENCHMARK(BM_GdsfChurn);

void BM_StackDistanceAnalysis(benchmark::State& state) {
  trace::SyntheticSpec spec;
  spec.files = 1000;
  spec.requests = 20000;
  spec.avg_file_kb = 8.0;
  spec.avg_request_kb = 8.0;
  spec.alpha = 0.9;
  const auto tr = trace::generate(spec);
  for (auto _ : state) {
    const cache::StackDistanceAnalyzer sd(tr);
    benchmark::DoNotOptimize(sd.hit_rate_at_bytes(32 * kMiB));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(spec.requests) * state.iterations());
}
BENCHMARK(BM_StackDistanceAnalysis);

void BM_EndToEndSimulation(benchmark::State& state) {
  trace::SyntheticSpec spec;
  spec.files = 1000;
  spec.requests = 10000;
  spec.avg_file_kb = 16.0;
  spec.avg_request_kb = 12.0;
  spec.alpha = 0.9;
  const auto tr = trace::generate(spec);
  core::SimConfig cfg;
  cfg.nodes = 8;
  cfg.node.cache_bytes = 8 * kMiB;
  for (auto _ : state) {
    const auto r = core::run_once(tr, cfg, core::PolicyKind::kL2s);
    benchmark::DoNotOptimize(r.completed);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(spec.requests) * state.iterations());
}
BENCHMARK(BM_EndToEndSimulation);

}  // namespace

BENCHMARK_MAIN();
