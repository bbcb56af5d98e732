#!/usr/bin/env bash
# Full verification sweep:
#   1. tier-1: Release build + entire test suite
#   2. memory gate: `l2sim run --paper clarknet --policy l2s --nodes 64`
#      must peak at <= 59 MiB RSS (tools/peak_rss.py; 50.9 MiB measured
#      + 15%); the L2S replicas' shared server-set records and VIA
#      messages that are their own resource-queue nodes keep it there
#   3. clang-tidy on the core engine (skipped when clang-tidy is not
#      installed)
#   4. DES kernel bench (gates: >=2x open-loop speedup, zero steady-state
#      heap allocations in the inline kernel)
#   5. fault bench (gates: crash/failover/loss acceptance criteria from
#      docs/bench_fault.md, plus bit-reproducibility)
#   6. telemetry bench (gates: <=1% overhead with spans off, <=5% at 1/64
#      span sampling; schema in docs/telemetry.md)
#   7. overload bench (gates: metastable-collapse acceptance from
#      docs/overload.md — undefended 3x-flash+crash baseline collapses,
#      the AIMD+budget+brownout stack keeps >= 70% of nominal goodput,
#      chaos replay bit-identical serial and under run_parallel); emits
#      build/BENCH_overload.json
#   8. obs bench (gate: <=2% saturated-throughput overhead with the
#      default flight-recorder ring on; see docs/observability.md); emits
#      build/BENCH_obs.json
#   9. topology bench (gate: flow-level transfers cut scheduled events
#      >= 5x on the 256-node forwarding-heavy rack cell; see
#      docs/topology.md); emits build/BENCH_topology.json
#  10. analytic bench (gates: Che hit rate within 5 pp of the DES on
#      every fault-free golden/stress cell, >= 100x analytic-vs-DES
#      wall-clock on the 64-cell sweep; see docs/analytic.md) and the
#      planner study (gate: the planned top-quartile brackets the
#      measured paper-figure knee to within one grid cell); emits
#      build/BENCH_analytic.json
#  11. AddressSanitizer build, running the fault-injection suites
#      (`ctest -L fault`) — the crash/retry/epoch machinery is where
#      lifetime bugs would hide — the telemetry suites (`-L telemetry`:
#      the span ring and exporter buffers), the flight-recorder suites
#      (`-L obs`: decision ring wrap, diff replays, exporter buffers),
#      the topology suites (`-L topo`: interconnect geometry, flow-level
#      transfers, the rack/fat-tree golden axis), the large-N suite
#      (`-L largen`), the chaos-harness suite (`-L chaos`: overload
#      defenses + non-stationary arrivals + faults composed), and the
#      analytic-model suites (`-L model`: Che fixed points, transient
#      curves, the hierarchical solver and the planner); plus, from
#      l2sim_tests, the event kernel and L2S control plane (Via, Resource,
#      ServerSetMap, L2sPolicy, LardPolicy, LardDispatcher, Scheduler,
#      GoldenResults) — pooled VIA message and fan-out records are raw
#      pointers, and locality broadcasts in flight hold server-set
#      records past their policy, so lifetime bugs would surface here —
#      and the file caches (LruCache, GdsfCache, CacheStats): the LRU's
#      index-linked slots and probe arithmetic are where out-of-bounds
#      bugs would hide
#  12. ThreadSanitizer build, running the scheduler/event-kernel,
#      run_parallel (including per-job telemetry + merge), thread-budget
#      and determinism tests, plus the fault, telemetry, obs, topo, largen
#      and chaos labels
#  13. UndefinedBehaviorSanitizer build (no recovery: the first UB report
#      aborts its test), running every test in l2sim_tests
#
# Usage: tools/check.sh [--skip-tsan] [--skip-asan] [--skip-bench]
set -euo pipefail

cd "$(dirname "$0")/.."
# ctest 3.25 reads the word after a bare `-j` as its job count, so a
# bare `-j` followed by -L/-R silently drops the filter. Always pass a number.
jobs="$(nproc)"
skip_tsan=0
skip_asan=0
skip_bench=0
for arg in "$@"; do
  case "$arg" in
    --skip-tsan) skip_tsan=1 ;;
    --skip-asan) skip_asan=1 ;;
    --skip-bench) skip_bench=1 ;;
    *) echo "usage: tools/check.sh [--skip-tsan] [--skip-asan] [--skip-bench]" >&2; exit 2 ;;
  esac
done

echo "== tier-1: Release build + full test suite =="
cmake -B build -S . >/dev/null
cmake --build build -j
ctest --test-dir build --output-on-failure -j

echo "== memory gate: L2S, 64 nodes, ClarkNet (peak RSS <= 59 MiB) =="
python3 tools/peak_rss.py 59 build/tools/l2sim run --paper clarknet --policy l2s --nodes 64

echo "== clang-tidy: core engine (skipped when clang-tidy is unavailable) =="
if command -v clang-tidy >/dev/null 2>&1; then
  cmake -B build -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
  clang-tidy -p build --quiet \
    src/core/*.cpp src/core/engine/*.cpp
else
  echo "clang-tidy not installed; skipping static analysis"
fi

if [[ "$skip_bench" -eq 0 ]]; then
  echo "== DES kernel bench (speedup + zero-allocation gates) =="
  ./build/bench/des_kernel_bench --out build/BENCH_des_kernel.json
  echo "== fault bench (availability acceptance gates) =="
  ./build/bench/fault_bench --out build/BENCH_fault.json
  echo "== telemetry bench (overhead gates) =="
  ./build/bench/telemetry_bench --out build/BENCH_telemetry.json
  echo "== overload bench (metastable-collapse acceptance gates) =="
  ./build/bench/overload_bench --out build/BENCH_overload.json
  echo "== obs bench (flight-recorder overhead gate) =="
  ./build/bench/obs_bench --out build/BENCH_obs.json
  echo "== topology bench (flow-mode event cut gate) =="
  ./build/bench/topology_bench --out build/BENCH_topology.json
  echo "== analytic bench (Che-vs-DES accuracy + sweep speedup gates) =="
  ./build/bench/analytic_bench --out build/BENCH_analytic.json
  echo "== planner study (knee-bracketing gate) =="
  ./build/bench/planner_study
fi

if [[ "$skip_asan" -eq 0 ]]; then
  echo "== AddressSanitizer: fault + telemetry + obs + topo + largen + chaos + model suites, kernel + control plane + caches =="
  cmake -B build-asan -S . -DL2SIM_SANITIZE=address >/dev/null
  cmake --build build-asan -j --target l2sim_tests l2sim_fault_tests l2sim_telemetry_tests l2sim_obs_tests l2sim_topo_tests l2sim_largen_tests l2sim_chaos_tests l2sim_model_tests
  ctest --test-dir build-asan --output-on-failure -j "$jobs" -L 'fault|telemetry|obs|topo|largen|chaos|model'
  ctest --test-dir build-asan --output-on-failure -j "$jobs" \
    -R '^(Via|Resource|ServerSetMap|L2sPolicy|LardPolicy|LardDispatcher|Scheduler|GoldenResults|LruCache|GdsfCache|CacheStats)\.'
fi

if [[ "$skip_tsan" -eq 0 ]]; then
  echo "== ThreadSanitizer: scheduler + parallel + fault + telemetry + obs + topo + chaos tests =="
  cmake -B build-tsan -S . -DL2SIM_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j --target l2sim_tests l2sim_fault_tests l2sim_telemetry_tests l2sim_obs_tests l2sim_topo_tests l2sim_largen_tests l2sim_chaos_tests
  ctest --test-dir build-tsan --output-on-failure -j "$jobs" \
    -R 'Scheduler|ThreadBudget|Parallel|Determinism'
  ctest --test-dir build-tsan --output-on-failure -j "$jobs" -L 'fault|telemetry|obs|topo|largen|chaos'
fi

echo "== UndefinedBehaviorSanitizer: l2sim_tests =="
cmake -B build-ubsan -S . -DL2SIM_SANITIZE=undefined >/dev/null
cmake --build build-ubsan -j --target l2sim_tests
# The other test binaries are not built in this tree; skip their
# registered-but-missing placeholders.
ctest --test-dir build-ubsan --output-on-failure -j "$jobs" -E '_NOT_BUILT'

echo "check.sh: all green"
