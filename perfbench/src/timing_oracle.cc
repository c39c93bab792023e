#include "timing_oracle.h"

#include <chrono>
#include <utility>

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

}  // namespace

void OracleCounters::Merge(const OracleCounters& o) {
  busy_s += o.busy_s;
  calls += o.calls;
  batch_calls += o.batch_calls;
  batch_cells += o.batch_cells;
  cache_hits += o.cache_hits;
  cache_misses += o.cache_misses;
  call_ns.Merge(o.call_ns);
  batch_size.Merge(o.batch_size);
}

OracleCounters* OracleCounterRegistry::NewSlot() {
  std::lock_guard<std::mutex> lock(mu_);
  slots_.push_back(std::make_unique<OracleCounters>());
  return slots_.back().get();
}

OracleCounters OracleCounterRegistry::Merged() const {
  std::lock_guard<std::mutex> lock(mu_);
  OracleCounters total;
  for (const auto& s : slots_) total.Merge(*s);
  return total;
}

TimingOracle::TimingOracle(urr::DistanceOracle* inner,
                           std::shared_ptr<OracleCounterRegistry> registry)
    : inner_(inner),
      registry_(std::move(registry)),
      slot_(registry_->NewSlot()) {}

TimingOracle::TimingOracle(std::unique_ptr<urr::DistanceOracle> owned,
                           std::shared_ptr<OracleCounterRegistry> registry)
    : inner_(owned.get()),
      owned_(std::move(owned)),
      registry_(std::move(registry)),
      slot_(registry_->NewSlot()) {}

TimingOracle::~TimingOracle() { FlushCacheCounts(); }

void TimingOracle::FlushCacheCounts() {
  if (const auto* c = dynamic_cast<const urr::CachingOracle*>(inner_)) {
    slot_->cache_hits = c->num_hits();
    slot_->cache_misses = c->num_misses();
  }
}

urr::Cost TimingOracle::Distance(urr::NodeId u, urr::NodeId v) {
  const Clock::time_point t0 = Clock::now();
  const urr::Cost d = inner_->Distance(u, v);
  const Clock::time_point t1 = Clock::now();
  ++num_calls_;
  ++slot_->calls;
  slot_->busy_s += Seconds(t0, t1);
  slot_->call_ns.Add(static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count()));
  return d;
}

void TimingOracle::BatchDistances(std::span<const urr::NodeId> sources,
                                  std::span<const urr::NodeId> targets,
                                  urr::Cost* out) {
  const Clock::time_point t0 = Clock::now();
  inner_->BatchDistances(sources, targets, out);
  const uint64_t cells = sources.size() * targets.size();
  slot_->busy_s += Seconds(t0, Clock::now());
  ++slot_->batch_calls;
  slot_->batch_cells += static_cast<int64_t>(cells);
  slot_->batch_size.Add(cells);
}

void TimingOracle::BatchPairwise(std::span<const urr::NodeId> us,
                                 std::span<const urr::NodeId> vs,
                                 urr::Cost* out) {
  const Clock::time_point t0 = Clock::now();
  inner_->BatchPairwise(us, vs, out);
  slot_->busy_s += Seconds(t0, Clock::now());
  ++slot_->batch_calls;
  slot_->batch_cells += static_cast<int64_t>(us.size());
  slot_->batch_size.Add(us.size());
}

std::unique_ptr<urr::DistanceOracle> TimingOracle::Clone() const {
  std::unique_ptr<urr::DistanceOracle> inner = inner_->Clone();
  if (inner == nullptr) return nullptr;
  return std::unique_ptr<urr::DistanceOracle>(
      new TimingOracle(std::move(inner), registry_));
}

}  // namespace perfbench
