#include "common/env.h"

#include <cstdlib>

#include "common/parse.h"

namespace urr {

namespace {
const char* RawEnv(const std::string& name) { return std::getenv(name.c_str()); }
}  // namespace

double GetEnvDouble(const std::string& name, double fallback) {
  const char* raw = RawEnv(name);
  if (raw == nullptr) return fallback;
  const Result<double> value = ParseDouble(raw, name);
  return value.ok() ? *value : fallback;
}

int64_t GetEnvInt(const std::string& name, int64_t fallback) {
  const char* raw = RawEnv(name);
  if (raw == nullptr) return fallback;
  const Result<int64_t> value = ParseInt(raw, name);
  return value.ok() ? *value : fallback;
}

std::string GetEnvString(const std::string& name, const std::string& fallback) {
  const char* raw = RawEnv(name);
  return raw == nullptr ? fallback : std::string(raw);
}

double BenchScale() { return GetEnvDouble("URR_BENCH_SCALE", 0.2); }

uint64_t BenchSeed() {
  return static_cast<uint64_t>(GetEnvInt("URR_SEED", 42));
}

int NumThreads() {
  const int64_t raw = GetEnvInt("URR_THREADS", 1);
  if (raw < 1) return 1;
  if (raw > 256) return 256;
  return static_cast<int>(raw);
}

std::string OracleName() { return GetEnvString("URR_ORACLE", "hl"); }

}  // namespace urr
