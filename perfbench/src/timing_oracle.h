// The traced run's routing probe: a DistanceOracle decorator that forwards
// every call unchanged to the oracle it wraps and records, per clone, how
// many calls and cells it answered and how long they took. Each evaluation
// worker gets its own clone (and its own counter slot), so recording needs
// no locks; slots are merged in creation order when the run ends.
#ifndef URR_PERFBENCH_TIMING_ORACLE_H_
#define URR_PERFBENCH_TIMING_ORACLE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "routing/distance_oracle.h"
#include "stats.h"

namespace perfbench {

/// What one oracle clone recorded.
struct OracleCounters {
  double busy_s = 0;         // wall time inside the wrapped oracle
  int64_t calls = 0;         // scalar Distance calls
  int64_t batch_calls = 0;   // BatchDistances + BatchPairwise calls
  int64_t batch_cells = 0;   // distances those batches answered
  int64_t cache_hits = 0;    // CachingOracle hits/misses of the wrapped
  int64_t cache_misses = 0;  // oracle, when it is one
  LogHistogram call_ns;      // per scalar call, nanoseconds
  LogHistogram batch_size;   // cells per batch call

  void Merge(const OracleCounters& other);
};

/// Owns the counter slots of one decorator and all its clones.
class OracleCounterRegistry {
 public:
  OracleCounters* NewSlot();
  /// Sum over every slot, in creation order.
  OracleCounters Merged() const;

 private:
  mutable std::mutex mu_;  // guards slots_ (clones are made on any thread)
  std::vector<std::unique_ptr<OracleCounters>> slots_;
};

class TimingOracle : public urr::DistanceOracle {
 public:
  /// Wraps `inner` (borrowed; must outlive this oracle).
  TimingOracle(urr::DistanceOracle* inner,
               std::shared_ptr<OracleCounterRegistry> registry);
  /// Records the wrapped CachingOracle's hit/miss totals into the slot.
  ~TimingOracle() override;

  urr::Cost Distance(urr::NodeId u, urr::NodeId v) override;
  void BatchDistances(std::span<const urr::NodeId> sources,
                      std::span<const urr::NodeId> targets,
                      urr::Cost* out) override;
  void BatchPairwise(std::span<const urr::NodeId> us,
                     std::span<const urr::NodeId> vs, urr::Cost* out) override;
  bool SupportsBatch() const override { return inner_->SupportsBatch(); }
  /// A decorator over inner->Clone() with a fresh slot; nullptr when the
  /// wrapped oracle cannot clone (the solvers then stay serial, exactly as
  /// they would without the decorator).
  std::unique_ptr<urr::DistanceOracle> Clone() const override;

  /// Copies the wrapped CachingOracle's totals into the slot now (the
  /// destructor does the same for clones owned elsewhere).
  void FlushCacheCounts();

 private:
  TimingOracle(std::unique_ptr<urr::DistanceOracle> owned,
               std::shared_ptr<OracleCounterRegistry> registry);

  urr::DistanceOracle* inner_;
  std::unique_ptr<urr::DistanceOracle> owned_;  // set only for clones
  std::shared_ptr<OracleCounterRegistry> registry_;
  OracleCounters* slot_;
};

}  // namespace perfbench

#endif  // URR_PERFBENCH_TIMING_ORACLE_H_
