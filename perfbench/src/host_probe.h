// Host-speed probe. The benchmark runs on a few cores of a shared host
// whose speed drifted by up to 1.9x within minutes while it was tuned, and
// that drift moved set-up and engine runs alike. The
// probe is a fixed kernel owned by the benchmark — Dijkstra over a fixed
// grid plus hash-map inserts, the same mix of graph search and hashing the
// dispatcher runs — so no change to the library can move its time. Timed
// intervals are bracketed by probe samples, and the timings of computation
// are reported in reference-host seconds: raw seconds x kProbeReferenceS /
// (mean probe time around the interval).
#ifndef URR_PERFBENCH_HOST_PROBE_H_
#define URR_PERFBENCH_HOST_PROBE_H_

namespace perfbench {

/// The probe's reference time: about the fastest sample seen while the
/// benchmark was tuned on a shared 4-vCPU Xeon VM (gcc 12, Release). Scaled
/// timings read as they would on that host running the probe this fast.
inline constexpr double kProbeReferenceS = 0.032;

/// Seconds one probe kernel takes now: the median of a few runs.
double SampleProbe();

/// The scale of an interval bracketed by probe samples `before` and
/// `after`: multiply a time measured in it by this, divide a rate by it.
double HostScaleOf(double before, double after);

/// Brackets consecutive timed intervals with probe samples. A disabled
/// clock never probes and every scale is 1 (the traced run reports raw
/// per-layer numbers and must not add untraced time between its spans).
class HostClock {
 public:
  explicit HostClock(bool enabled) : enabled_(enabled) {}
  /// Starts an interval: takes a probe sample.
  void Mark();
  /// Ends the interval since the previous sample and starts the next one;
  /// returns the interval's scale.
  double Next();
  /// The last probe sample in seconds (0 when disabled).
  double last_sample() const { return last_; }

 private:
  bool enabled_;
  double last_ = 0;
};

}  // namespace perfbench

#endif  // URR_PERFBENCH_HOST_PROBE_H_
