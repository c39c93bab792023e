// Tests-only reference contraction. The production build
// (ContractionHierarchy::Build) runs one one-to-many witness search per
// in-neighbor of a contracted node; the reference below is the plain
// formulation it must match byte for byte: a separate bounded Dijkstra for
// every (in-neighbor, out-neighbor) pair, inside the same serial
// independent-set rounds. It is the referee of the contraction differential,
// so it must stay simple and slow.
#ifndef URR_TESTS_REFERENCE_CONTRACTION_H_
#define URR_TESTS_REFERENCE_CONTRACTION_H_

#include <algorithm>
#include <cstdint>
#include <queue>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/binary_io.h"
#include "graph/road_network.h"

namespace urr::reference {

/// The production build's constants (contraction_hierarchy.cc).
inline constexpr int kWitnessSettleLimit = 256;
inline constexpr int64_t kEdgeDifferenceWeight = 8;
inline constexpr int64_t kDeletedNeighborsWeight = 2;

struct OverlayEdge {
  NodeId to;
  Cost cost;
};

struct Overlay {
  std::vector<std::vector<OverlayEdge>> out;
  std::vector<std::vector<OverlayEdge>> in;
  std::vector<bool> contracted;

  void UpsertEdge(NodeId u, NodeId v, Cost cost) {
    auto upsert = [](std::vector<OverlayEdge>* list, NodeId key, Cost c) {
      for (auto& e : *list) {
        if (e.to == key) {
          e.cost = std::min(e.cost, c);
          return;
        }
      }
      list->push_back({key, c});
    };
    upsert(&out[static_cast<size_t>(u)], v, cost);
    upsert(&in[static_cast<size_t>(v)], u, cost);
  }
};

/// One-to-one bounded witness search: the shortest u ~> w distance in the
/// overlay (skipping contracted nodes and `excluded`), giving up after
/// kWitnessSettleLimit settles or once `limit` is exceeded (+inf then).
inline Cost WitnessDistance(const Overlay& overlay, NodeId source,
                            NodeId target, NodeId excluded, Cost limit) {
  std::unordered_map<NodeId, Cost> dist;  // absent = +inf
  auto get = [&dist](NodeId v) {
    const auto it = dist.find(v);
    return it == dist.end() ? kInfiniteCost : it->second;
  };
  using Entry = std::pair<Cost, NodeId>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> queue;
  dist[source] = 0;
  queue.push({0, source});
  int settled = 0;
  while (!queue.empty()) {
    auto [d, v] = queue.top();
    queue.pop();
    if (d > get(v)) continue;
    if (v == target) return d;
    if (d > limit) break;
    if (++settled > kWitnessSettleLimit) break;
    for (const auto& e : overlay.out[static_cast<size_t>(v)]) {
      if (e.to == excluded || overlay.contracted[static_cast<size_t>(e.to)]) {
        continue;
      }
      const Cost nd = d + e.cost;
      if (nd < get(e.to) && nd <= limit) {
        dist[e.to] = nd;
        queue.push({nd, e.to});
      }
    }
  }
  return get(target);
}

struct Shortcut {
  NodeId from;
  NodeId to;
  Cost cost;
  NodeId middle;
};

/// Shortcuts contraction of `v` needs: one witness search per (u, w) pair,
/// omitted only when a STRICTLY cheaper witness exists.
inline int SimulateContraction(const Overlay& overlay, NodeId v,
                               std::vector<Shortcut>* apply) {
  int shortcuts = 0;
  for (const auto& ein : overlay.in[static_cast<size_t>(v)]) {
    const NodeId u = ein.to;
    if (u == v || overlay.contracted[static_cast<size_t>(u)]) continue;
    for (const auto& eout : overlay.out[static_cast<size_t>(v)]) {
      const NodeId w = eout.to;
      if (w == v || w == u || overlay.contracted[static_cast<size_t>(w)]) {
        continue;
      }
      const Cost via = ein.cost + eout.cost;
      if (WitnessDistance(overlay, u, w, v, via) < via) continue;
      ++shortcuts;
      if (apply != nullptr) apply->push_back({u, w, via, v});
    }
  }
  return shortcuts;
}

inline int64_t Priority(const Overlay& overlay, NodeId v, int shortcuts,
                        int deleted_neighbors) {
  int degree = 0;
  for (const auto& e : overlay.in[static_cast<size_t>(v)]) {
    if (!overlay.contracted[static_cast<size_t>(e.to)]) ++degree;
  }
  for (const auto& e : overlay.out[static_cast<size_t>(v)]) {
    if (!overlay.contracted[static_cast<size_t>(e.to)]) ++degree;
  }
  return kEdgeDifferenceWeight * (shortcuts - degree) +
         kDeletedNeighborsWeight * deleted_neighbors;
}

/// Serial independent-set-round contraction of `network`; returns the bytes
/// ContractionHierarchy::Serialize writes for the same hierarchy.
inline std::string ContractSerialized(const RoadNetwork& network) {
  const NodeId n = network.num_nodes();
  const auto nu = static_cast<size_t>(n);
  Overlay overlay;
  overlay.out.resize(nu);
  overlay.in.resize(nu);
  overlay.contracted.assign(nu, false);
  for (NodeId v = 0; v < n; ++v) {
    auto heads = network.OutNeighbors(v);
    auto costs = network.OutCosts(v);
    for (size_t i = 0; i < heads.size(); ++i) {
      if (heads[i] != v) overlay.UpsertEdge(v, heads[i], costs[i]);
    }
  }
  std::vector<Shortcut> all_edges;
  for (NodeId v = 0; v < n; ++v) {
    for (const auto& e : overlay.out[static_cast<size_t>(v)]) {
      all_edges.push_back({v, e.to, e.cost, kInvalidNode});
    }
  }

  std::vector<int> deleted_neighbors(nu, 0);
  std::vector<int32_t> rank(nu, -1);
  std::vector<int64_t> prio(nu, 0);
  std::vector<NodeId> remaining;
  for (NodeId v = 0; v < n; ++v) {
    remaining.push_back(v);
    prio[static_cast<size_t>(v)] =
        Priority(overlay, v, SimulateContraction(overlay, v, nullptr), 0);
  }
  auto before = [&](NodeId a, NodeId b) {
    const int64_t pa = prio[static_cast<size_t>(a)];
    const int64_t pb = prio[static_cast<size_t>(b)];
    return pa != pb ? pa < pb : a < b;
  };

  int32_t next_rank = 0;
  std::vector<uint8_t> dirty(nu, 0);
  while (!remaining.empty()) {
    // A node wins the round iff it precedes every uncontracted neighbor.
    std::vector<NodeId> selected;
    for (const NodeId v : remaining) {
      bool ok = true;
      for (const auto* adj : {&overlay.in[static_cast<size_t>(v)],
                              &overlay.out[static_cast<size_t>(v)]}) {
        for (const auto& e : *adj) {
          if (e.to != v && !overlay.contracted[static_cast<size_t>(e.to)] &&
              before(e.to, v)) {
            ok = false;
          }
        }
      }
      if (ok) selected.push_back(v);
    }
    std::sort(selected.begin(), selected.end(), before);
    // Simulate every winner on the frozen overlay, then apply serially.
    std::vector<std::vector<Shortcut>> node_shortcuts(selected.size());
    for (size_t i = 0; i < selected.size(); ++i) {
      SimulateContraction(overlay, selected[i], &node_shortcuts[i]);
    }
    for (size_t i = 0; i < selected.size(); ++i) {
      const NodeId v = selected[i];
      overlay.contracted[static_cast<size_t>(v)] = true;
      rank[static_cast<size_t>(v)] = next_rank++;
      for (const auto& s : node_shortcuts[i]) {
        overlay.UpsertEdge(s.from, s.to, s.cost);
        all_edges.push_back(s);
      }
      for (const auto* adj : {&overlay.in[static_cast<size_t>(v)],
                              &overlay.out[static_cast<size_t>(v)]}) {
        for (const auto& e : *adj) {
          if (!overlay.contracted[static_cast<size_t>(e.to)]) {
            ++deleted_neighbors[static_cast<size_t>(e.to)];
            dirty[static_cast<size_t>(e.to)] = 1;
          }
        }
      }
    }
    std::erase_if(remaining, [&](NodeId v) {
      return overlay.contracted[static_cast<size_t>(v)];
    });
    for (const NodeId v : remaining) {
      if (dirty[static_cast<size_t>(v)] == 0) continue;
      dirty[static_cast<size_t>(v)] = 0;
      prio[static_cast<size_t>(v)] =
          Priority(overlay, v, SimulateContraction(overlay, v, nullptr),
                   deleted_neighbors[static_cast<size_t>(v)]);
    }
  }

  // Keep the cheapest copy of every edge (first on ties), split into the
  // upward half (by tail) and the reversed downward half (by head).
  std::vector<std::vector<Shortcut>> up(nu), down(nu);
  auto upsert = [](std::vector<Shortcut>* list, const Shortcut& s) {
    for (auto& e : *list) {
      if (e.to == s.to) {
        if (s.cost < e.cost) e = s;
        return;
      }
    }
    list->push_back(s);
  };
  for (const auto& e : all_edges) {
    if (rank[static_cast<size_t>(e.from)] < rank[static_cast<size_t>(e.to)]) {
      upsert(&up[static_cast<size_t>(e.from)], e);
    } else {
      upsert(&down[static_cast<size_t>(e.to)], {e.to, e.from, e.cost, e.middle});
    }
  }

  BinaryWriter writer;
  writer.WriteI32(n);
  writer.WriteVector(rank);
  for (const auto* adj : {&up, &down}) {
    std::vector<int64_t> begin(1, 0);
    std::vector<NodeId> to, middle;
    std::vector<Cost> cost;
    for (const auto& list : *adj) {
      for (const auto& e : list) {
        to.push_back(e.to);
        cost.push_back(e.cost);
        middle.push_back(e.middle);
      }
      begin.push_back(static_cast<int64_t>(to.size()));
    }
    writer.WriteVector(begin);
    writer.WriteVector(to);
    writer.WriteVector(cost);
    writer.WriteVector(middle);
  }
  return writer.TakeBuffer();
}

}  // namespace urr::reference

#endif  // URR_TESTS_REFERENCE_CONTRACTION_H_
