// Tests-only reference implementations of Algorithm 1 insertion and of the
// candidate evaluation built on it. The production kernel
// (FindBestInsertionScratch behind EvaluateCandidate) derives the trial
// schedule's fields into flat scratch arrays and screens futile oracle
// queries; the reference below is the plain formulation it must match bit
// for bit: clone the schedule per pickup candidate, insert, and read every
// field back from the clone's Rebuild. It is the referee of the kernel,
// screening and cache differentials, so it must stay simple and slow.
#ifndef URR_TESTS_REFERENCE_INSERTION_H_
#define URR_TESTS_REFERENCE_INSERTION_H_

#include <algorithm>
#include <vector>

#include "urr/solution.h"

namespace urr::reference {

/// The same slack the production kernel applies to every deadline and
/// flexible-time comparison.
inline constexpr Cost kEps = 1e-7;

/// Location a stop inserted at `pos` would depart from.
inline NodeId OriginAt(const TransferSequence& seq, int pos) {
  return pos == 0 ? seq.start_location() : seq.stop(pos - 1).location;
}

/// Earliest start time of (possibly appended) leg `pos`.
inline Cost EarliestStartAt(const TransferSequence& seq, int pos) {
  return pos < seq.num_stops() ? seq.EarliestStart(pos) : seq.EndTime();
}

/// Copy-based Algorithm 1: the minimum-Δcost valid insertion of `trip` into
/// `seq`, with the Lemma 3.1 conditions, the Lemma 3.2 break and the
/// Δ-sorted early exit. `capacity_blocked` as in FindBestInsertion.
inline Result<InsertionPlan> FindBestInsertionCopy(
    const TransferSequence& seq, const RiderTrip& trip,
    bool* capacity_blocked = nullptr) {
  DistanceOracle* oracle = seq.oracle();
  const int w = seq.num_stops();
  if (capacity_blocked != nullptr) *capacity_blocked = false;

  // --- Valid pickup positions (Lemma 3.1 conditions a–d for x = s_i). -----
  // Positions below commit_floor() belong to a leg the vehicle is already
  // driving and cannot be diverted.
  struct PickupCandidate {
    int pos;
    Cost delta;
  };
  std::vector<PickupCandidate> pickups;
  for (int u = seq.commit_floor(); u <= w; ++u) {
    const Cost estart = EarliestStartAt(seq, u);
    // Lemma 3.2: earliest start times are non-decreasing along the sequence,
    // so once one exceeds the pickup deadline no later position is valid.
    if (estart > trip.pickup_deadline + kEps) break;
    const Cost to_s = oracle->Distance(OriginAt(seq, u), trip.source);
    // Conditions a+b in their tight form: the vehicle must reach s_i by its
    // deadline departing at the leg's earliest start.
    if (estart + to_s > trip.pickup_deadline + kEps) continue;
    if (u < w) {
      const Cost delta =
          to_s + oracle->Distance(trip.source, seq.stop(u).location) -
          seq.leg_cost(u);
      if (delta > seq.FlexTime(u) + kEps) continue;        // condition c
      if (seq.Onboard(u) + 1 > seq.capacity()) {           // condition d
        if (capacity_blocked != nullptr) *capacity_blocked = true;
        continue;
      }
      pickups.push_back({u, delta});
    } else {
      if (seq.EndOnboard() + 1 > seq.capacity()) {          // condition d
        if (capacity_blocked != nullptr) *capacity_blocked = true;
        continue;
      }
      pickups.push_back({u, to_s});                          // appended leg
    }
  }
  if (pickups.empty()) {
    return Status::Infeasible("no valid pickup position");
  }
  std::sort(pickups.begin(), pickups.end(),
            [](const PickupCandidate& a, const PickupCandidate& b) {
              return a.delta < b.delta;
            });

  InsertionPlan best;
  for (const PickupCandidate& cand : pickups) {
    if (cand.delta >= best.delta_cost) break;  // Δ-sorted early exit
    // Insert s_i and recompute fields (updateEventFields in Algorithm 1).
    TransferSequence trial = seq;
    trial.InsertStop(cand.pos, Stop{trip.source, trip.rider, StopType::kPickup,
                                    trip.pickup_deadline});
    const int w2 = trial.num_stops();
    // --- Valid dropoff positions v > pickup position, on the updated
    // sequence. The rider is onboard legs cand.pos+1 .. v, so every such leg
    // must respect capacity; trial already counts the unmatched pickup.
    for (int v = cand.pos + 1; v <= w2; ++v) {
      if (v < w2 && trial.Onboard(v) > trial.capacity()) {
        if (capacity_blocked != nullptr) *capacity_blocked = true;
        break;
      }
      const Cost estart = EarliestStartAt(trial, v);
      if (estart > trip.dropoff_deadline + kEps) break;  // Lemma 3.2
      const Cost to_e = oracle->Distance(OriginAt(trial, v), trip.destination);
      if (estart + to_e > trip.dropoff_deadline + kEps) continue;
      Cost delta_e;
      if (v < w2) {
        delta_e = to_e +
                  oracle->Distance(trip.destination, trial.stop(v).location) -
                  trial.leg_cost(v);
        if (delta_e > trial.FlexTime(v) + kEps) continue;  // condition c
      } else {
        delta_e = to_e;
      }
      const Cost total = cand.delta + delta_e;
      if (total < best.delta_cost) {
        best = {cand.pos, v, total};
      }
    }
  }
  if (best.pickup_pos < 0) {
    return Status::Infeasible("no valid (pickup, dropoff) position pair");
  }
  return best;
}

/// Copy-based evaluation of "insert rider i into vehicle j's schedule":
/// FindBestInsertionCopy for the plan, then Δμ on an applied copy of the
/// schedule. No cache, no screening. `eval_oracle`, when non-null, answers
/// the distance queries through a re-pointed copy of the schedule.
inline CandidateEval EvaluateInsertion(const UrrInstance& instance,
                                       const UtilityModel& model,
                                       const UrrSolution& sol, RiderId i,
                                       int j, bool need_utility = true,
                                       DistanceOracle* eval_oracle = nullptr) {
  TransferSequence seq = sol.schedules[static_cast<size_t>(j)];
  if (eval_oracle != nullptr) seq.set_oracle(eval_oracle);
  CandidateEval eval;
  Result<InsertionPlan> plan =
      FindBestInsertionCopy(seq, instance.Trip(i), &eval.capacity_blocked);
  if (!plan.ok()) return eval;
  eval.feasible = true;
  eval.plan = *plan;
  eval.delta_cost = plan->delta_cost;
  if (need_utility) {
    TransferSequence trial = seq;
    if (!ApplyInsertion(&trial, instance.Trip(i), *plan).ok()) {
      eval.feasible = false;
      return eval;
    }
    eval.delta_utility =
        model.ScheduleUtility(j, trial) - model.ScheduleUtility(j, seq);
  }
  return eval;
}

}  // namespace urr::reference

#endif  // URR_TESTS_REFERENCE_INSERTION_H_
