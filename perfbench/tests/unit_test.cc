// Unit checks of the benchmark's metric arithmetic: the tail-percentile
// sample floor, ratios with their base, the log-bucket histogram and the
// share of wall time the call spans cover, and the host-speed scale.
// Exits non-zero on the first
// failed check (checks stay active in optimized builds).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "host_probe.h"
#include "stats.h"
#include "trace.h"

namespace {

int failures = 0;

#define CHECK(cond)                                                  \
  do {                                                               \
    if (!(cond)) {                                                   \
      std::fprintf(stderr, "%s:%d: CHECK(%s) failed\n", __FILE__,    \
                   __LINE__, #cond);                                 \
      ++failures;                                                    \
    }                                                                \
  } while (false)

void TestTailFloor() {
  using perfbench::SamplesBeyond;
  using perfbench::TailIsSupported;
  // p99 of 1000 samples is the 990th; 10 lie beyond it.
  CHECK(SamplesBeyond(1000, 99) == 10);
  CHECK(TailIsSupported(1000, 99));
  CHECK(!TailIsSupported(999, 99));
  // p95 of 200 is the 190th: 10 beyond. 270 windows leave 13 beyond p95
  // but only 2 beyond p99.
  CHECK(SamplesBeyond(200, 95) == 10);
  CHECK(TailIsSupported(270, 95));
  CHECK(!TailIsSupported(270, 99));
  CHECK(SamplesBeyond(0, 50) == 0);
  CHECK(SamplesBeyond(1, 50) == 0);
  CHECK(SamplesBeyond(10, 0) == 9);
  CHECK(SamplesBeyond(10, 100) == 0);
}

void TestPercentiles() {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(101 - i);  // unsorted 100..1
  CHECK(perfbench::PercentileOf(v, 50) == 50);
  CHECK(perfbench::PercentileOf(v, 95) == 95);
  CHECK(perfbench::PercentileOf(v, 99) == 99);
  CHECK(perfbench::PercentileOf({}, 99) == 0);
  CHECK(perfbench::Median({3, 1, 2}) == 2);
  CHECK(perfbench::Median({4, 1, 2, 3}) == 2.5);
  CHECK(perfbench::Median({}) == 0);
}

void TestRatios() {
  CHECK((perfbench::Ratio{1, 4}.value() == 0.25));
  CHECK((perfbench::Ratio{0, 0}.value() == 0));  // nothing attempted
  CHECK((perfbench::Ratio{3, 0}.value() == 0));
  const perfbench::Ratio r{51, 100};
  CHECK(r.base == 100 && r.part == 51 && r.value() == 0.51);
}

void TestHistogram() {
  using perfbench::LogHistogram;
  CHECK(LogHistogram::BucketOf(0) == 0);
  CHECK(LogHistogram::BucketOf(1) == 0);
  CHECK(LogHistogram::BucketOf(2) == 1);
  CHECK(LogHistogram::BucketOf(3) == 1);
  CHECK(LogHistogram::BucketOf(4) == 2);
  CHECK(LogHistogram::BucketOf(1023) == 9);
  CHECK(LogHistogram::BucketOf(1024) == 10);
  CHECK(LogHistogram::BucketOf(~uint64_t{0}) == 63);
  LogHistogram a, b;
  a.Add(1);
  a.Add(5);
  b.Add(6);
  b.Add(1 << 20);
  a.Merge(b);
  CHECK(a.total() == 4);
  CHECK(a.count(0) == 1 && a.count(2) == 2 && a.count(20) == 1);
  CHECK(a.ToJson() == "{\"buckets\":[[0,1],[4,2],[1048576,1]]}");
}

perfbench::Span MakeSpan(double start, double end, perfbench::SpanKind kind) {
  perfbench::Span s;
  s.start_s = start;
  s.end_s = end;
  s.kind = kind;
  return s;
}

void TestSpanCoverage() {
  using perfbench::CallCoverage;
  using perfbench::SpanKind;
  // Root [0,10] and a repetition wrapper [0,10] are group spans: they
  // explain nothing by themselves, however much of the run they enclose.
  std::vector<perfbench::Span> spans = {MakeSpan(0, 10, SpanKind::kGroup),
                                        MakeSpan(0, 10, SpanKind::kGroup)};
  CHECK(CallCoverage(spans) == 0);
  // Overlapping calls [1,4] and [3,6] count once: 5 s of 10.
  spans.push_back(MakeSpan(1, 4, SpanKind::kCall));
  spans.push_back(MakeSpan(3, 6, SpanKind::kCall));
  CHECK(std::fabs(CallCoverage(spans) - 0.5) < 1e-12);
  // A nested call inside a covered one adds nothing.
  spans.push_back(MakeSpan(2, 3, SpanKind::kCall));
  CHECK(std::fabs(CallCoverage(spans) - 0.5) < 1e-12);
  // [8,9.5] leaves the gap [6,8] uncovered; [9.5,12] is clipped to the
  // root: 5 + 1.5 + 0.5 of 10.
  spans.push_back(MakeSpan(8, 9.5, SpanKind::kCall));
  spans.push_back(MakeSpan(9.5, 12, SpanKind::kCall));
  CHECK(std::fabs(CallCoverage(spans) - 0.7) < 1e-12);
  CHECK(CallCoverage({}) == 0);
  CHECK(CallCoverage({MakeSpan(5, 5, SpanKind::kGroup)}) == 0);

  // The recorder nests spans under the innermost open one.
  perfbench::SpanRecorder rec(true);
  const int root = rec.Open("root", SpanKind::kGroup);
  const int a = rec.Open("a");
  rec.Close(a);
  const int b = rec.Open("b", SpanKind::kGroup);
  const int c = rec.Open("c");
  rec.Close(c);
  rec.Close(b);
  rec.Close(root);
  CHECK(rec.spans().size() == 4);
  CHECK(rec.spans()[a].parent == root);
  CHECK(rec.spans()[b].parent == root);
  CHECK(rec.spans()[c].parent == b);
  CHECK(rec.spans()[b].kind == SpanKind::kGroup);
  CHECK(rec.spans()[c].kind == SpanKind::kCall);
  const double coverage = CallCoverage(rec.spans());
  CHECK(coverage >= 0 && coverage <= 1);
  perfbench::SpanRecorder off(false);
  {
    perfbench::ScopedSpan s(&off, "ignored");
  }
  CHECK(off.spans().empty());
}

void TestHostScale() {
  using perfbench::HostScaleOf;
  using perfbench::kProbeReferenceS;
  // A host running the probe at its reference time leaves timings as they
  // are; one twice as slow halves them; the scale uses the mean of the two
  // samples around the interval.
  CHECK(std::fabs(HostScaleOf(kProbeReferenceS, kProbeReferenceS) - 1) <
        1e-12);
  CHECK(std::fabs(HostScaleOf(2 * kProbeReferenceS, 2 * kProbeReferenceS) -
                  0.5) < 1e-12);
  CHECK(std::fabs(HostScaleOf(kProbeReferenceS, 3 * kProbeReferenceS) -
                  0.5) < 1e-12);
  CHECK(HostScaleOf(0, 0) == 1);
  // A disabled clock never probes.
  perfbench::HostClock off(false);
  off.Mark();
  CHECK(off.Next() == 1);
  CHECK(off.last_sample() == 0);
  // An enabled one gives a positive scale from two real samples.
  perfbench::HostClock on(true);
  on.Mark();
  const double scale = on.Next();
  CHECK(scale > 0 && std::isfinite(scale));
  CHECK(on.last_sample() > 0);
}

}  // namespace

int main() {
  TestTailFloor();
  TestPercentiles();
  TestRatios();
  TestHistogram();
  TestSpanCoverage();
  TestHostScale();
  if (failures > 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench_unit: all checks passed\n");
  return 0;
}
