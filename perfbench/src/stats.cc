#include "stats.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "engine/engine_metrics.h"

namespace perfbench {

int64_t SamplesBeyond(int64_t n, double p) {
  if (n <= 0) return 0;
  // urr::Percentile picks index ceil(p/100 * n) - 1 (clamped to [0, n-1]);
  // everything after that index lies beyond the percentile.
  int64_t idx = static_cast<int64_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  if (idx > 0) --idx;
  idx = std::min(idx, n - 1);
  return n - 1 - idx;
}

bool TailIsSupported(int64_t n, double p) { return SamplesBeyond(n, p) >= 10; }

double PercentileOf(std::vector<double> values, double p) {
  return urr::Percentile(std::move(values), p);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

int LogHistogram::BucketOf(uint64_t value) {
  return value <= 1 ? 0 : std::bit_width(value) - 1;
}

void LogHistogram::Merge(const LogHistogram& other) {
  for (int b = 0; b < kBuckets; ++b) counts_[b] += other.counts_[b];
  total_ += other.total_;
}

std::string LogHistogram::ToJson() const {
  std::string out = "{\"buckets\":[";
  bool first = true;
  for (int b = 0; b < kBuckets; ++b) {
    if (counts_[b] == 0) continue;
    if (!first) out += ',';
    first = false;
    const uint64_t lower = b == 0 ? 0 : uint64_t{1} << b;
    out += '[' + std::to_string(lower) + ',' + std::to_string(counts_[b]) + ']';
  }
  out += "]}";
  return out;
}

}  // namespace perfbench
