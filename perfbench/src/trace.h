// Span recorder for the traced run. Spans are recorded from the benchmark's
// own code around each public library call (BuildWorld, DispatchEngine::Run,
// RunOpenLoop, ...), kept in memory and written out when the run ends.
// Single-threaded: only the benchmark's main thread opens spans.
#ifndef URR_PERFBENCH_TRACE_H_
#define URR_PERFBENCH_TRACE_H_

#include <chrono>
#include <string>
#include <vector>

namespace perfbench {

/// A call span times one public library call; a group span only gathers
/// the benchmark's own steps (the run, a repetition, a session's set-up)
/// and explains no wall time by itself.
enum class SpanKind { kCall, kGroup };

struct Span {
  std::string name;
  double start_s = 0;  // seconds since the recorder was created
  double end_s = 0;
  int parent = -1;     // index into spans(), -1 for the root
  SpanKind kind = SpanKind::kCall;
};

/// Share of the root span's (spans[0]'s) duration covered by the union of
/// the call spans: how much of the run's wall time the timed library calls
/// explain. Group spans count only through the calls inside them.
double CallCoverage(const std::vector<Span>& spans);

class SpanRecorder {
 public:
  /// A disabled recorder ignores Open/Close (the untraced run).
  explicit SpanRecorder(bool enabled);

  bool enabled() const { return enabled_; }
  /// Opens a span as a child of the innermost open span; returns its id.
  int Open(const std::string& name, SpanKind kind = SpanKind::kCall);
  void Close(int id);
  double Now() const;

  const std::vector<Span>& spans() const { return spans_; }
  /// {"spans":[{"name":..,"kind":..,"start":..,"end":..,"parent":..},...]}
  std::string ToJson() const;

 private:
  bool enabled_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a no-op on a disabled recorder.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const std::string& name,
             SpanKind kind = SpanKind::kCall)
      : recorder_(recorder),
        id_(recorder->enabled() ? recorder->Open(name, kind) : -1) {}
  ~ScopedSpan() { End(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  void End() {
    if (id_ >= 0) recorder_->Close(id_);
    id_ = -1;
  }

 private:
  SpanRecorder* recorder_;
  int id_;
};

}  // namespace perfbench

#endif  // URR_PERFBENCH_TRACE_H_
