#include "host_probe.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_map>
#include <utility>
#include <vector>

namespace perfbench {
namespace {

constexpr int kSide = 64;        // grid side: 4096 nodes
constexpr int kSources = 48;     // Dijkstra runs per kernel
constexpr int kMemoStride = 4;   // every 4th distance goes into the memo
constexpr int kKernelRuns = 7;   // kernels per sample (median)

/// The probe graph in CSR form: a kSide x kSide grid with fixed weights.
struct Grid {
  std::vector<int> offsets;
  std::vector<int> heads;
  std::vector<double> weights;
};

uint64_t SplitMix(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Grid MakeGrid() {
  const int n = kSide * kSide;
  std::vector<std::vector<std::pair<int, double>>> adj(n);
  uint64_t state = 7;
  for (int y = 0; y < kSide; ++y) {
    for (int x = 0; x < kSide; ++x) {
      const int u = y * kSide + x;
      if (x + 1 < kSide) {
        const double w = 1 + static_cast<double>(SplitMix(&state) % 100);
        adj[u].emplace_back(u + 1, w);
        adj[u + 1].emplace_back(u, w);
      }
      if (y + 1 < kSide) {
        const double w = 1 + static_cast<double>(SplitMix(&state) % 100);
        adj[u].emplace_back(u + kSide, w);
        adj[u + kSide].emplace_back(u, w);
      }
    }
  }
  Grid g;
  g.offsets.push_back(0);
  for (const auto& edges : adj) {
    for (const auto& [v, w] : edges) {
      g.heads.push_back(v);
      g.weights.push_back(w);
    }
    g.offsets.push_back(static_cast<int>(g.heads.size()));
  }
  return g;
}

/// One kernel: kSources Dijkstra runs, memoizing a share of the distances.
/// Returns a checksum so the work cannot be optimized away.
double Kernel(const Grid& g) {
  const int n = kSide * kSide;
  using Entry = std::pair<double, int>;
  std::unordered_map<uint64_t, double> memo;
  std::vector<double> dist(n);
  double checksum = 0;
  for (int s = 0; s < kSources; ++s) {
    const int src = (s * 7919) % n;
    std::fill(dist.begin(), dist.end(), 1e18);
    std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> pq;
    dist[src] = 0;
    pq.emplace(0.0, src);
    while (!pq.empty()) {
      const auto [d, u] = pq.top();
      pq.pop();
      if (d > dist[u]) continue;
      for (int e = g.offsets[u]; e < g.offsets[u + 1]; ++e) {
        const double nd = d + g.weights[e];
        if (nd < dist[g.heads[e]]) {
          dist[g.heads[e]] = nd;
          pq.emplace(nd, g.heads[e]);
        }
      }
    }
    for (int v = 0; v < n; v += kMemoStride) {
      memo[static_cast<uint64_t>(src) << 32 | static_cast<uint64_t>(v)] =
          dist[v];
    }
    checksum += dist[n - 1 - src];
  }
  return checksum + static_cast<double>(memo.size());
}

}  // namespace

double SampleProbe() {
  static const Grid grid = MakeGrid();
  static volatile double sink = 0;
  std::vector<double> times;
  for (int i = 0; i < kKernelRuns; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    sink = sink + Kernel(grid);
    times.push_back(std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count());
  }
  std::nth_element(times.begin(), times.begin() + kKernelRuns / 2,
                   times.end());
  return times[kKernelRuns / 2];
}

double HostScaleOf(double before, double after) {
  const double mean = 0.5 * (before + after);
  return mean > 0 ? kProbeReferenceS / mean : 1;
}

void HostClock::Mark() {
  if (enabled_) last_ = SampleProbe();
}

double HostClock::Next() {
  if (!enabled_) return 1;
  const double before = last_;
  last_ = SampleProbe();
  return HostScaleOf(before, last_);
}

}  // namespace perfbench
