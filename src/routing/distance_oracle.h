// DistanceOracle: the one interface through which all URR components ask for
// shortest-path costs. Implementations: CH-backed (default), plain Dijkstra
// (reference/witness), and a memoizing wrapper (schedule insertion asks for
// the same pairs repeatedly).
#ifndef URR_ROUTING_DISTANCE_ORACLE_H_
#define URR_ROUTING_DISTANCE_ORACLE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>

#include "common/result.h"
#include "routing/contraction_hierarchy.h"
#include "routing/dijkstra.h"
#include "graph/road_network.h"

namespace urr {

/// Abstract exact shortest-path-cost oracle. Implementations are not
/// thread-safe unless stated; use one per thread.
class DistanceOracle {
 public:
  virtual ~DistanceOracle() = default;

  /// Exact shortest-path cost from `u` to `v`; kInfiniteCost if unreachable.
  virtual Cost Distance(NodeId u, NodeId v) = 0;

  /// Many-to-many rectangle: fills out[i * targets.size() + j] with
  /// Distance(sources[i], targets[j]). The base implementation loops over
  /// pairs; batched implementations (Dijkstra rows, CH buckets, hub labels)
  /// amortize per-source/per-target work across the rectangle. Values are
  /// identical to per-pair Distance calls.
  virtual void BatchDistances(std::span<const NodeId> sources,
                              std::span<const NodeId> targets, Cost* out);

  /// Element-wise batch: out[k] = Distance(us[k], vs[k]). The base
  /// implementation loops in order, so decorators (caching) observe exactly
  /// the per-pair call sequence.
  virtual void BatchPairwise(std::span<const NodeId> us,
                             std::span<const NodeId> vs, Cost* out);

  /// True when BatchDistances genuinely amortizes work across the
  /// rectangle; callers use it to decide whether collecting a wave's node
  /// pairs up front is worth the bookkeeping.
  virtual bool SupportsBatch() const { return false; }

  /// An independent query context over the same network, for use from
  /// another thread: answers exactly the same distances as this oracle but
  /// shares no mutable state with it (scratch arrays, caches and call
  /// counters are per-clone; preprocessing like a built hierarchy is shared
  /// read-only). Returns nullptr when the implementation cannot clone — the
  /// solvers then fall back to serial evaluation.
  virtual std::unique_ptr<DistanceOracle> Clone() const { return nullptr; }

  /// Number of Distance calls made so far (for bench accounting).
  int64_t num_calls() const { return num_calls_; }

 protected:
  int64_t num_calls_ = 0;
};

/// Dijkstra-backed oracle (no preprocessing). Slow per query; used as ground
/// truth in tests and on tiny networks.
class DijkstraOracle : public DistanceOracle {
 public:
  /// Keeps a reference; `network` must outlive the oracle.
  explicit DijkstraOracle(const RoadNetwork& network);
  Cost Distance(NodeId u, NodeId v) override;
  /// Row-wise: one full Dijkstra per source answers the whole target row.
  void BatchDistances(std::span<const NodeId> sources,
                      std::span<const NodeId> targets, Cost* out) override;
  bool SupportsBatch() const override { return true; }
  std::unique_ptr<DistanceOracle> Clone() const override;

 private:
  const RoadNetwork* network_;
  DijkstraEngine engine_;
};

/// CH-backed oracle. Owns the hierarchy.
class ChOracle : public DistanceOracle {
 public:
  /// Builds the hierarchy for `network` (keeps no reference to it afterwards).
  static Result<std::unique_ptr<ChOracle>> Create(const RoadNetwork& network,
                                                  const ChOptions& options = {});
  /// Wraps an already-built (e.g. snapshot-loaded) hierarchy.
  static std::unique_ptr<ChOracle> FromHierarchy(ContractionHierarchy ch);
  Cost Distance(NodeId u, NodeId v) override;
  /// Bucket-based many-to-many (see ChManyToMany); bitwise identical to
  /// scalar queries.
  void BatchDistances(std::span<const NodeId> sources,
                      std::span<const NodeId> targets, Cost* out) override;
  bool SupportsBatch() const override { return true; }
  /// Clones share the (immutable) hierarchy and own a fresh ChQuery.
  std::unique_ptr<DistanceOracle> Clone() const override;

  const ContractionHierarchy& hierarchy() const { return ch_; }

 private:
  explicit ChOracle(ContractionHierarchy ch)
      : ch_(std::move(ch)), query_(ch_), m2m_(ch_) {}
  ContractionHierarchy ch_;
  ChQuery query_;
  ChManyToMany m2m_;
};

/// Memoizing decorator: caches (u,v) -> cost in a hash map. The wrapped
/// oracle must outlive this one.
class CachingOracle : public DistanceOracle {
 public:
  explicit CachingOracle(DistanceOracle* base, size_t max_entries = 1 << 22);
  Cost Distance(NodeId u, NodeId v) override;
  /// Probes the cache per pair; the misses go to the base as one
  /// element-wise batch and are then cached under the usual cap policy.
  void BatchDistances(std::span<const NodeId> sources,
                      std::span<const NodeId> targets, Cost* out) override;
  bool SupportsBatch() const override { return base_->SupportsBatch(); }
  /// Clones the wrapped oracle (owning the clone) behind a fresh, empty
  /// cache; nullptr when the base cannot clone.
  std::unique_ptr<DistanceOracle> Clone() const override;

  int64_t num_hits() const { return hits_; }
  int64_t num_misses() const { return misses_; }
  /// Current number of cached pairs (never exceeds max_entries).
  size_t num_entries() const { return cache_.size(); }
  size_t max_entries() const { return max_entries_; }

 private:
  CachingOracle(std::unique_ptr<DistanceOracle> owned_base, size_t max_entries);

  DistanceOracle* base_;
  std::unique_ptr<DistanceOracle> owned_base_;  // set only for clones
  size_t max_entries_;
  std::unordered_map<uint64_t, Cost> cache_;
  int64_t hits_ = 0;
  int64_t misses_ = 0;
};

/// Which oracle stack the experiment layer should build. Selected via
/// ExperimentConfig::oracle, the URR_ORACLE env var, or `--oracle` on
/// urr_dispatch.
enum class OracleKind {
  kDijkstra,  // "dijkstra": no preprocessing, ground truth
  kCh,        // "ch": plain contraction hierarchy
  kCachingCh, // "caching": CH behind a memoizing cache
  kHubLabel,  // "hl": 2-hop labels extracted from the CH (default)
};

/// Parses "dijkstra" | "ch" | "caching" | "hl" (case-sensitive).
Result<OracleKind> ParseOracleKind(const std::string& name);
/// Inverse of ParseOracleKind.
const char* OracleKindName(OracleKind kind);

}  // namespace urr

#endif  // URR_ROUTING_DISTANCE_ORACLE_H_
