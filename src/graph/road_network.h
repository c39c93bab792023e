// Road-network graph: CSR adjacency over weighted directed edges with node
// coordinates. This is the substrate every routing and URR component runs on.
#ifndef URR_GRAPH_ROAD_NETWORK_H_
#define URR_GRAPH_ROAD_NETWORK_H_

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "common/binary_io.h"
#include "common/result.h"
#include "common/status.h"

namespace urr {

/// Node identifier (index into the network's node arrays).
using NodeId = int32_t;
/// Travel cost; seconds throughout the library (the paper does not
/// differentiate travel time from distance, and neither do we).
using Cost = double;

/// Sentinel for "no node".
inline constexpr NodeId kInvalidNode = -1;
/// Sentinel for "unreachable".
inline constexpr Cost kInfiniteCost = std::numeric_limits<Cost>::infinity();

/// One directed weighted edge.
struct Edge {
  NodeId from = kInvalidNode;
  NodeId to = kInvalidNode;
  Cost cost = 0;
};

/// Planar coordinate of a node (arbitrary units; used by the spatial index
/// and for Euclidean lower bounds).
struct Coord {
  double x = 0;
  double y = 0;
};

/// Euclidean distance between two coordinates.
double EuclideanDistance(const Coord& a, const Coord& b);

/// Immutable CSR road network. Build once via `RoadNetwork::Build`, then hand
/// `const RoadNetwork&` to every consumer.
class RoadNetwork {
 public:
  /// Constructs an empty (0-node) network; assign a Build() result to it.
  RoadNetwork() : out_begin_(1, 0), in_begin_(1, 0) {}

  /// Validates and builds the CSR representation. Edge endpoints must be in
  /// [0, num_nodes), costs must be finite and non-negative; `coords` must be
  /// empty or have `num_nodes` entries.
  static Result<RoadNetwork> Build(NodeId num_nodes, std::vector<Edge> edges,
                                   std::vector<Coord> coords = {});

  NodeId num_nodes() const { return num_nodes_; }
  int64_t num_edges() const { return static_cast<int64_t>(edge_to_.size()); }
  bool has_coords() const { return !coords_.empty(); }

  /// Coordinate of `v` (requires has_coords()).
  const Coord& coord(NodeId v) const { return coords_[static_cast<size_t>(v)]; }
  const std::vector<Coord>& coords() const { return coords_; }

  /// Outgoing neighbors of `v` as parallel spans of (head, cost).
  std::span<const NodeId> OutNeighbors(NodeId v) const {
    return {edge_to_.data() + out_begin_[v],
            static_cast<size_t>(out_begin_[v + 1] - out_begin_[v])};
  }
  std::span<const Cost> OutCosts(NodeId v) const {
    return {edge_cost_.data() + out_begin_[v],
            static_cast<size_t>(out_begin_[v + 1] - out_begin_[v])};
  }

  /// Incoming neighbors of `v` (tails of edges into v) and their costs.
  std::span<const NodeId> InNeighbors(NodeId v) const {
    return {redge_from_.data() + in_begin_[v],
            static_cast<size_t>(in_begin_[v + 1] - in_begin_[v])};
  }
  std::span<const Cost> InCosts(NodeId v) const {
    return {redge_cost_.data() + in_begin_[v],
            static_cast<size_t>(in_begin_[v + 1] - in_begin_[v])};
  }

  /// Out-degree of `v`.
  int OutDegree(NodeId v) const {
    return static_cast<int>(out_begin_[v + 1] - out_begin_[v]);
  }

  /// Cost of the direct edge (u, v), or infinity when absent (minimum over
  /// parallel edges).
  Cost EdgeCost(NodeId u, NodeId v) const;

  /// Original (flat) edge list, in CSR order of the forward graph.
  std::vector<Edge> EdgeList() const;

  /// Euclidean distance between the coordinates of `u` and `v`; 0 when the
  /// network has no coordinates.
  Cost EuclideanLowerBound(NodeId u, NodeId v) const;

  /// Largest strongly-connected-ish component in the *undirected* sense:
  /// returns the node set of the largest weakly connected component. URR
  /// instances are generated inside it so every trip is routable.
  std::vector<NodeId> LargestWeaklyConnectedComponent() const;

  /// Maximum Euclidean-speed ratio max(edge cost / euclidean length) over
  /// edges with distinct coordinates. Used to turn Euclidean distances into
  /// admissible travel-cost lower bounds: cost >= euclid / max_speed. Returns
  /// +inf when no coordinates. (Speed here is "euclid per cost unit".)
  double MaxSpeed() const;

  /// Appends the network — node count, forward CSR (begin/to/cost) and
  /// coordinates — to `writer` in the fixed-width .urrx encoding. The
  /// reverse CSR is not stored; Deserialize rebuilds it (deterministically)
  /// through Build, so serialize -> deserialize -> serialize is byte-stable.
  void Serialize(BinaryWriter* writer) const;

  /// Parses and fully validates a network written by Serialize: CSR bounds,
  /// monotone offsets, in-range endpoints, finite non-negative costs and
  /// finite coordinates. Any malformation returns an error Status.
  static Result<RoadNetwork> Deserialize(BinaryReader* reader);

 private:
  NodeId num_nodes_ = 0;
  std::vector<int64_t> out_begin_;   // size num_nodes+1
  std::vector<NodeId> edge_to_;      // size num_edges
  std::vector<Cost> edge_cost_;      // size num_edges
  std::vector<int64_t> in_begin_;    // size num_nodes+1
  std::vector<NodeId> redge_from_;   // size num_edges
  std::vector<Cost> redge_cost_;     // size num_edges
  std::vector<Coord> coords_;
};

}  // namespace urr

#endif  // URR_GRAPH_ROAD_NETWORK_H_
