#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

SpanRecorder::SpanRecorder(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

double SpanRecorder::Now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin_)
      .count();
}

int SpanRecorder::Open(const std::string& name, SpanKind kind) {
  Span s;
  s.name = name;
  s.kind = kind;
  s.start_s = Now();
  s.end_s = s.start_s;
  s.parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void SpanRecorder::Close(int id) {
  spans_[static_cast<size_t>(id)].end_s = Now();
  // Spans close in LIFO order (RAII); tolerate a parent closing first.
  auto it = std::find(open_.begin(), open_.end(), id);
  if (it != open_.end()) open_.erase(it, open_.end());
}

double CallCoverage(const std::vector<Span>& spans) {
  if (spans.empty()) return 0;
  const double total = spans[0].end_s - spans[0].start_s;
  if (total <= 0) return 0;
  std::vector<std::pair<double, double>> calls;
  for (const Span& s : spans) {
    if (s.kind == SpanKind::kCall) calls.emplace_back(s.start_s, s.end_s);
  }
  std::sort(calls.begin(), calls.end());
  double covered = 0;
  double reach = spans[0].start_s;
  for (const auto& [a, b] : calls) {
    const double lo = std::max(a, reach);
    const double hi = std::min(b, spans[0].end_s);
    if (hi > lo) {
      covered += hi - lo;
      reach = hi;
    }
  }
  return covered / total;
}

std::string SpanRecorder::ToJson() const {
  std::string out = "{\"spans\":[";
  char buf[128];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i > 0) out += ',';
    out += "{\"name\":\"" + s.name + "\",\"kind\":\"" +
           (s.kind == SpanKind::kCall ? "call" : "group") + "\"";
    std::snprintf(buf, sizeof(buf), ",\"start\":%.9f,\"end\":%.9f,\"parent\":%d}",
                  s.start_s, s.end_s, s.parent);
    out += buf;
  }
  out += "]}";
  return out;
}

}  // namespace perfbench
