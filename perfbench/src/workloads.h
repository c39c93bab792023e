// The benchmark's workloads. Each drives the urr libraries only through
// their public entry points (BuildWorld, LoadIndexSnapshot, BuildOracleStack,
// MakeStreamingWorkload, DispatchEngine, DispatchService, DispatchServer,
// RunOpenLoop) and times every layer from outside, around
// those calls. perfbench/README.md gives the reason for each workload and
// the layer-metric → end-to-end-metric table.
#ifndef URR_PERFBENCH_WORKLOADS_H_
#define URR_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"

namespace perfbench {

struct RunOptions {
  std::string workload;  // stream_city | serve_open_loop
  uint64_t seed = 1;     // draws the demand; the city is fixed
  double seconds = 10;   // how long the timed phase measures
  bool trace = false;    // per-layer metrics instead of end-to-end ones
  bool tiny = false;     // smoke-test sizes (seconds-long, not comparable)
  std::string workdir;   // scratch directory for snapshots and journals
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
  /// One line per failed correctness gate.
  std::vector<std::string> failures;
  /// Spans and histograms of the traced run ({} when untraced).
  std::string trace_json = "{}";
};

/// Names accepted by RunWorkload, in reporting order.
const std::vector<std::string>& WorkloadNames();

/// Writes what a workload needs before its timed process starts (the .urrx
/// snapshot the serve workload cold-starts from) unless a valid
/// one is already in options.workdir.
urr::Status PrepareWorkload(const RunOptions& options);

/// Runs one workload per `options`. A Status error means the run could not
/// be carried out at all; failed correctness gates are reported in the
/// result instead (correct = false).
urr::Result<RunResult> RunWorkload(const RunOptions& options);

}  // namespace perfbench

#endif  // URR_PERFBENCH_WORKLOADS_H_
