// Environment-variable configuration knobs shared by benches and examples
// (URR_BENCH_SCALE, URR_SEED, ...).
#ifndef URR_COMMON_ENV_H_
#define URR_COMMON_ENV_H_

#include <cstdint>
#include <string>

namespace urr {

/// Returns the env var `name` parsed whole as double, or `fallback` when
/// unset or malformed ("4x" is malformed, not 4).
double GetEnvDouble(const std::string& name, double fallback);

/// Returns the env var `name` parsed whole as int64, or `fallback`.
int64_t GetEnvInt(const std::string& name, int64_t fallback);

/// Returns the env var `name`, or `fallback` when unset.
std::string GetEnvString(const std::string& name, const std::string& fallback);

/// Global scale factor for bench workload sizes (env URR_BENCH_SCALE,
/// default 0.2). Rider/vehicle counts in figure benches are multiplied by it.
double BenchScale();

/// Global experiment seed (env URR_SEED, default 42).
uint64_t BenchSeed();

/// Worker count for the solvers' parallel candidate-evaluation phase (env
/// URR_THREADS, default 1 = fully serial). Clamped to [1, 256]. Results are
/// identical for every value; this is purely a speed knob.
int NumThreads();

/// Distance-oracle stack for experiment worlds (env URR_ORACLE, default
/// "hl", hub labels): dijkstra | ch | caching | hl. See ParseOracleKind.
std::string OracleName();

}  // namespace urr

#endif  // URR_COMMON_ENV_H_
