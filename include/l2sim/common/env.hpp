// Environment-variable knobs shared by the bench harnesses.
#pragma once

#include <cstdint>

namespace l2s {

/// Scale factor applied to synthetic trace request counts in benches.
/// Default 0.1 (each reproduced figure uses 10% of the paper's request
/// volume, which preserves the steady-state behaviour because caches are
/// warmed beforehand); L2SIM_SCALE=1 runs paper-scale traces.
[[nodiscard]] double bench_scale();

/// Parse a double environment variable with a default.
[[nodiscard]] double env_double(const char* name, double fallback);

/// Parse an integer environment variable with a default.
[[nodiscard]] std::int64_t env_int(const char* name, std::int64_t fallback);

/// The process-wide thread budget run_parallel's job workers draw from.
/// L2SIM_THREADS overrides; otherwise hardware concurrency. Always >= 1.
[[nodiscard]] unsigned thread_budget();

}  // namespace l2s
