// Hub labeling (2-hop labels) derived from a built contraction hierarchy
// (Abraham et al.): every node stores the distances of its upward-reachable
// CH search space, so a point-to-point query is a sorted merge-join over two
// small arrays instead of a bidirectional graph search. Labels are exact —
// they are the settled sets of complete upward searches, pruned only when a
// higher hub already covers the entry — and the oracle's batched
// many-to-many API amortizes label scans across whole candidate waves.
#ifndef URR_ROUTING_HUB_LABELS_H_
#define URR_ROUTING_HUB_LABELS_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/result.h"
#include "routing/distance_oracle.h"

namespace urr {

/// Immutable forward/backward label store. Build once per network, then
/// query from any number of threads (all queries are const).
class HubLabels {
 public:
  /// Constructs an empty (0-node) store; assign a Build() or Deserialize()
  /// result to it.
  HubLabels() = default;

  /// Extracts labels from a built hierarchy: for each node, one complete
  /// upward search per direction (same relax + stall-on-demand rules as
  /// ChQuery), processed in descending rank order so entries dominated via
  /// an already-labeled higher hub are pruned exactly.
  ///
  /// With a pool, the searches — the dominant cost — run in parallel over
  /// fixed-size rank blocks while the pruning pass stays serial in
  /// descending rank order. Each search is a pure function of the (frozen)
  /// hierarchy and the block size does not depend on the thread count, so
  /// the labels are bit-identical to the serial build at any thread count.
  static Result<HubLabels> Build(const ContractionHierarchy& ch,
                                 ThreadPool* pool = nullptr);

  /// Exact shortest-path cost by merge-join over Lf(u) and Lb(v);
  /// kInfiniteCost when the labels share no hub.
  Cost Distance(NodeId u, NodeId v) const;

  /// Dense-bucket many-to-many: each source's forward label is written
  /// into `scratch`, a hub-indexed array, and every target's backward label
  /// is scanned against it. Fills out[i * targets.size() + j] with
  /// Distance(sources[i], targets[j]); values are bitwise identical to the
  /// scalar query (the min runs over the same sums). `scratch` is resized
  /// to num_nodes() entries of kInfiniteCost on first use and left in that
  /// state on return, so one buffer serves every call without allocation.
  void BatchDistances(std::span<const NodeId> sources,
                      std::span<const NodeId> targets, Cost* out,
                      std::vector<Cost>* scratch) const;

  NodeId num_nodes() const { return num_nodes_; }
  /// Total label entries over both directions (size accounting).
  int64_t num_entries() const {
    return static_cast<int64_t>(fwd_hub_.size() + bwd_hub_.size());
  }
  /// Mean entries per label per direction.
  double average_label_size() const {
    return num_nodes_ == 0
               ? 0.0
               : static_cast<double>(num_entries()) / (2.0 * num_nodes_);
  }

  /// Label spans (hubs ascending; costs parallel).
  std::span<const NodeId> ForwardHubs(NodeId v) const {
    return {fwd_hub_.data() + fwd_begin_[v],
            static_cast<size_t>(fwd_begin_[v + 1] - fwd_begin_[v])};
  }
  std::span<const Cost> ForwardCosts(NodeId v) const {
    return {fwd_cost_.data() + fwd_begin_[v],
            static_cast<size_t>(fwd_begin_[v + 1] - fwd_begin_[v])};
  }
  std::span<const NodeId> BackwardHubs(NodeId v) const {
    return {bwd_hub_.data() + bwd_begin_[v],
            static_cast<size_t>(bwd_begin_[v + 1] - bwd_begin_[v])};
  }
  std::span<const Cost> BackwardCosts(NodeId v) const {
    return {bwd_cost_.data() + bwd_begin_[v],
            static_cast<size_t>(bwd_begin_[v + 1] - bwd_begin_[v])};
  }

  /// Appends both CSR label stores to `writer` in the fixed-width .urrx
  /// encoding.
  void Serialize(BinaryWriter* writer) const;

  /// Parses and fully validates labels written by Serialize: monotone CSR
  /// offsets, hubs strictly ascending within every slice and in range,
  /// finite non-negative costs. Any malformation returns an error Status.
  static Result<HubLabels> Deserialize(BinaryReader* reader);

 private:
  NodeId num_nodes_ = 0;
  // CSR label stores: hub ids ascending within each node's slice.
  std::vector<int64_t> fwd_begin_;  // size num_nodes+1
  std::vector<NodeId> fwd_hub_;
  std::vector<Cost> fwd_cost_;
  std::vector<int64_t> bwd_begin_;
  std::vector<NodeId> bwd_hub_;
  std::vector<Cost> bwd_cost_;
};

/// Hub-label-backed oracle. The label store is shared immutably across
/// clones, so Clone() is O(1) and the parallel evaluation path composes.
class HubLabelOracle : public DistanceOracle {
 public:
  /// Builds a hierarchy for `network` (parallel when options.pool is set),
  /// extracts labels and discards the hierarchy (labels are
  /// self-contained).
  static Result<std::unique_ptr<HubLabelOracle>> Create(
      const RoadNetwork& network, const ChOptions& options = {});
  /// Extracts labels from an already-built hierarchy.
  static Result<std::unique_ptr<HubLabelOracle>> FromHierarchy(
      const ContractionHierarchy& ch, ThreadPool* pool = nullptr);

  explicit HubLabelOracle(std::shared_ptr<const HubLabels> labels)
      : labels_(std::move(labels)) {}

  Cost Distance(NodeId u, NodeId v) override;
  void BatchDistances(std::span<const NodeId> sources,
                      std::span<const NodeId> targets, Cost* out) override;
  bool SupportsBatch() const override { return true; }
  /// Clones share the immutable label store (no rebuild, no copy); each
  /// clone gets its own batch scratch.
  std::unique_ptr<DistanceOracle> Clone() const override;

  const HubLabels& labels() const { return *labels_; }

 private:
  std::shared_ptr<const HubLabels> labels_;
  std::vector<Cost> scratch_;  // BatchDistances hub buckets, allocated lazily
};

/// One fully-built routing stack plus the oracle solvers should use. The
/// members not needed by `kind` stay null; `active` points into the struct
/// (stable across moves — the pointees are heap-allocated).
struct OracleStack {
  OracleKind kind = OracleKind::kCachingCh;
  std::unique_ptr<DijkstraOracle> dijkstra;
  std::unique_ptr<ChOracle> ch;
  std::unique_ptr<HubLabelOracle> hub_labels;
  std::unique_ptr<CachingOracle> caching;
  DistanceOracle* active = nullptr;
};

/// Builds the oracle stack for `kind`. kDijkstra keeps a reference to
/// `network`, which must then outlive the stack; the CH/HL flavors keep no
/// reference. When options.pool is set the CH contraction and the HL label
/// extraction run on it (bit-identical to the serial build).
Result<OracleStack> BuildOracleStack(const RoadNetwork& network,
                                     OracleKind kind,
                                     const ChOptions& options = {});

/// Assembles the oracle stack for `kind` from already-built (typically
/// snapshot-loaded) parts instead of re-running preprocessing. Same
/// lifetime contract as BuildOracleStack: only kDijkstra keeps a reference
/// to `network`. `ch` is consumed by the kCh/kCachingCh kinds and `hl` by
/// kHubLabel; the parts a kind does not need may be empty.
Result<OracleStack> OracleStackFromParts(const RoadNetwork& network,
                                         ContractionHierarchy ch,
                                         HubLabels hl, OracleKind kind);

}  // namespace urr

#endif  // URR_ROUTING_HUB_LABELS_H_
