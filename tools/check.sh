#!/usr/bin/env bash
# Full verification sweep:
#   1. tier-1: Release build + entire test suite
#   2. clang-tidy on the core engine (skipped when clang-tidy is not
#      installed)
#   3. DES kernel bench (gates: >=2x open-loop speedup, zero steady-state
#      heap allocations in the inline kernel)
#   4. fault bench (gates: crash/failover/loss acceptance criteria from
#      docs/bench_fault.md, plus bit-reproducibility)
#   5. telemetry bench (gates: <=1% overhead with spans off, <=5% at 1/64
#      span sampling; schema in docs/telemetry.md)
#   6. overload bench (gates: metastable-collapse acceptance from
#      docs/overload.md — undefended 3x-flash+crash baseline collapses,
#      the AIMD+budget+brownout stack keeps >= 70% of nominal goodput,
#      chaos replay bit-identical serial and under run_parallel); emits
#      build/BENCH_overload.json
#   7. obs bench (gate: <=2% saturated-throughput overhead with the
#      default flight-recorder ring on; see docs/observability.md); emits
#      build/BENCH_obs.json
#   8. topology bench (gate: flow-level transfers cut scheduled events
#      >= 5x on the 256-node forwarding-heavy rack cell; see
#      docs/topology.md); emits build/BENCH_topology.json
#   9. analytic bench (gates: Che hit rate within 5 pp of the DES on
#      every fault-free golden/stress cell, >= 100x analytic-vs-DES
#      wall-clock on the 64-cell sweep; see docs/analytic.md) and the
#      planner study (gate: the planned top-quartile brackets the
#      measured paper-figure knee to within one grid cell); emits
#      build/BENCH_analytic.json
#  10. AddressSanitizer build, running the fault-injection suites
#      (`ctest -L fault`) — the crash/retry/epoch machinery is where
#      lifetime bugs would hide — the telemetry suites (`-L telemetry`:
#      the span ring and exporter buffers), the flight-recorder suites
#      (`-L obs`: decision ring wrap, diff replays, exporter buffers),
#      the topology suites (`-L topo`: interconnect geometry, flow-level
#      transfers, the rack/fat-tree golden axis), the large-N suite
#      (`-L largen`), the chaos-harness suite (`-L chaos`: overload
#      defenses + non-stationary arrivals + faults composed), and the
#      analytic-model suites (`-L model`: Che fixed points, transient
#      curves, the hierarchical solver and the planner)
#  11. ThreadSanitizer build, running the scheduler/event-kernel,
#      run_parallel (including per-job telemetry + merge), thread-budget
#      and determinism tests, plus the fault, telemetry, obs, topo, largen
#      and chaos labels
#
# Usage: tools/check.sh [--skip-tsan] [--skip-asan] [--skip-bench]
set -euo pipefail

cd "$(dirname "$0")/.."
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
  echo "== AddressSanitizer: fault + telemetry + obs + topo + largen + chaos + model suites =="
  cmake -B build-asan -S . -DL2SIM_SANITIZE=address >/dev/null
  cmake --build build-asan -j --target l2sim_fault_tests l2sim_telemetry_tests l2sim_obs_tests l2sim_topo_tests l2sim_largen_tests l2sim_chaos_tests l2sim_model_tests
  ctest --test-dir build-asan --output-on-failure -j -L 'fault|telemetry|obs|topo|largen|chaos|model'
fi

if [[ "$skip_tsan" -eq 0 ]]; then
  echo "== ThreadSanitizer: scheduler + parallel + fault + telemetry + obs + topo + chaos tests =="
  cmake -B build-tsan -S . -DL2SIM_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j --target l2sim_tests l2sim_fault_tests l2sim_telemetry_tests l2sim_obs_tests l2sim_topo_tests l2sim_largen_tests l2sim_chaos_tests
  ctest --test-dir build-tsan --output-on-failure -j \
    -R 'Scheduler|ThreadBudget|Parallel|Determinism'
  ctest --test-dir build-tsan --output-on-failure -j -L 'fault|telemetry|obs|topo|largen|chaos'
fi

echo "check.sh: all green"
