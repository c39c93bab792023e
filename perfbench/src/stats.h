// Metric arithmetic shared by every workload: tail percentiles with a sample
// floor, ratios that carry their base, and the fixed log-bucket histogram
// the traced run keeps in memory.
#ifndef URR_PERFBENCH_STATS_H_
#define URR_PERFBENCH_STATS_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Samples strictly beyond the p-th nearest-rank percentile of n samples.
int64_t SamplesBeyond(int64_t n, double p);

/// True when the p-th percentile of n samples has at least 10 samples
/// beyond it — the floor below which a tail percentile is one or two
/// outliers rather than a tail.
bool TailIsSupported(int64_t n, double p);

/// Nearest-rank percentile (p in [0, 100]); 0 for an empty sample.
double PercentileOf(std::vector<double> values, double p);

/// Median of `values`, averaging the two middle elements; 0 when empty.
double Median(std::vector<double> values);

/// A ratio reported together with its base: value = part / base, and 0
/// when the base is 0 (nothing was attempted, so nothing was wasted).
struct Ratio {
  double part = 0;
  double base = 0;
  double value() const { return base > 0 ? part / base : 0; }
};

/// Fixed log2-bucket histogram of non-negative integers: bucket 0 holds 0
/// and 1, bucket k >= 1 holds [2^k, 2^(k+1)). 64 buckets cover int64.
class LogHistogram {
 public:
  static constexpr int kBuckets = 64;

  static int BucketOf(uint64_t value);
  void Add(uint64_t value) { ++counts_[BucketOf(value)]; ++total_; }
  void Merge(const LogHistogram& other);
  int64_t count(int bucket) const { return counts_[bucket]; }
  int64_t total() const { return total_; }
  /// {"buckets":[[lower_bound,count],...]} over the non-empty buckets.
  std::string ToJson() const;

 private:
  std::array<int64_t, kBuckets> counts_{};
  int64_t total_ = 0;
};

}  // namespace perfbench

#endif  // URR_PERFBENCH_STATS_H_
