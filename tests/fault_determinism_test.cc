// Determinism and safety contracts of the fault-injection layer
// (DESIGN.md §10):
//   1. under a fixed FaultPlan seed the serialized event log is
//      byte-identical at 1, 2 and 8 solver threads,
//   2. restoring any checkpoint into a fresh engine replays a
//      byte-identical log suffix and reaches the identical final
//      fingerprint,
//   3. replaying a faulted log's input events regenerates the run,
//   4. no capacity or Lemma-3.1 violation survives fault repair
//      (validate_invariants runs the full live-state check every window),
//   5. every arrived rider terminates in exactly one terminal state.
#include <gtest/gtest.h>

#include <map>

#include "engine/engine.h"
#include "exp/harness.h"

namespace urr {
namespace {

ExperimentConfig SmallConfig(int num_threads) {
  ExperimentConfig cfg;
  cfg.city_nodes = 1200;
  cfg.num_social_users = 500;
  cfg.num_trip_records = 1500;
  cfg.num_riders = 100;
  cfg.num_vehicles = 20;
  cfg.seed = 42;
  cfg.num_threads = num_threads;
  return cfg;
}

StreamingWorkload FaultedWorkload(const ExperimentWorld& world) {
  Rng rng(world.config.seed + 100);
  StreamingWorkloadOptions opt;
  opt.arrival_rate = 1.0;
  opt.cancel_fraction = 0.2;
  StreamingWorkload workload =
      MakeStreamingWorkload(world.instance, opt, &rng);
  FaultPlanOptions fopt;
  fopt.breakdown_fraction = 0.15;
  fopt.no_show_fraction = 0.1;
  fopt.num_edge_faults = 6;
  Rng fault_rng(world.config.seed + 1000);
  workload.faults = MakeFaultPlan(workload, fopt, &fault_rng);
  EXPECT_FALSE(workload.faults.Empty());
  EXPECT_TRUE(workload.faults.HasEdgeFaults());
  return workload;
}

struct RunResult {
  std::string log;
  std::string fingerprint;
  EngineMetrics metrics;
};

RunResult RunEngine(ExperimentWorld* world, const StreamingWorkload& workload,
                    const EngineConfig& config) {
  UtilityModel model(&workload.instance,
                     UtilityParams{world->config.alpha, world->config.beta});
  SolverContext ctx = world->Context();
  ctx.model = &model;
  DispatchEngine engine(&workload, &ctx, config);
  const Status st = engine.Run();
  EXPECT_TRUE(st.ok()) << st;
  return {engine.SerializedLog(), engine.SolutionFingerprint(),
          engine.metrics()};
}

TEST(FaultDeterminismTest, LogIsByteIdenticalAcrossThreadCounts) {
  for (WindowSolver solver :
       {WindowSolver::kEfficientGreedy, WindowSolver::kBilateral}) {
    RunResult baseline;
    for (int threads : {1, 2, 8}) {
      auto world = BuildWorld(SmallConfig(threads));
      ASSERT_TRUE(world.ok()) << world.status();
      const StreamingWorkload workload = FaultedWorkload(**world);
      EngineConfig cfg;
      cfg.window = 20;
      cfg.solver = solver;
      cfg.validate_invariants = true;
      const RunResult run = RunEngine(world->get(), workload, cfg);
      if (threads == 1) {
        baseline = run;
        EXPECT_FALSE(baseline.log.empty());
        EXPECT_GT(run.metrics.total_breakdowns, 0);
        EXPECT_GT(run.metrics.total_no_shows, 0);
        EXPECT_GT(run.metrics.total_edge_disruptions, 0);
      } else {
        EXPECT_EQ(run.log, baseline.log)
            << WindowSolverName(solver) << " @ " << threads << " threads";
        EXPECT_EQ(run.fingerprint, baseline.fingerprint)
            << WindowSolverName(solver) << " @ " << threads << " threads";
      }
    }
  }
}

// Restore fidelity at the state level: restoring a snapshot and immediately
// re-serializing must reproduce the snapshot byte for byte (the snapshot is
// a fixed point of Restore ∘ Checkpoint).
TEST(FaultDeterminismTest, RestoredCheckpointReserializesIdentically) {
  auto world = BuildWorld(SmallConfig(2));
  ASSERT_TRUE(world.ok()) << world.status();
  const StreamingWorkload workload = FaultedWorkload(**world);
  EngineConfig cfg;
  cfg.window = 20;
  cfg.checkpoint_every = 1;
  UtilityModel model(&workload.instance,
                     UtilityParams{(*world)->config.alpha,
                                   (*world)->config.beta});
  SolverContext ctx = (*world)->Context();
  ctx.model = &model;
  DispatchEngine engine(&workload, &ctx, cfg);
  ASSERT_TRUE(engine.Run().ok());
  ASSERT_FALSE(engine.checkpoints().empty());
  // The uninterrupted run reuses cached evaluations across windows, while
  // every restored engine starts with an empty cache: identical logs below
  // make this the cold-versus-warm cache referee.
  EXPECT_GT(engine.metrics().eval_cache_hits, 0);
  EXPECT_EQ(engine.eval_cache_entries(), 0u);
  for (size_t k = 0; k < engine.checkpoints().size(); ++k) {
    SCOPED_TRACE("checkpoint " + std::to_string(k));
    SolverContext rctx = (*world)->Context();
    rctx.model = &model;
    DispatchEngine resumed(&workload, &rctx, cfg);
    ASSERT_TRUE(resumed.Restore(engine.checkpoints()[k].second).ok());
    EXPECT_EQ(resumed.Checkpoint(), engine.checkpoints()[k].second);
  }
}

TEST(FaultDeterminismTest, RestoreAtEveryBoundaryReproducesTheRun) {
  auto world = BuildWorld(SmallConfig(2));
  ASSERT_TRUE(world.ok()) << world.status();
  const StreamingWorkload workload = FaultedWorkload(**world);
  EngineConfig cfg;
  cfg.window = 20;
  cfg.checkpoint_every = 1;  // every window boundary
  UtilityModel model(&workload.instance,
                     UtilityParams{(*world)->config.alpha,
                                   (*world)->config.beta});
  SolverContext ctx = (*world)->Context();
  ctx.model = &model;
  DispatchEngine engine(&workload, &ctx, cfg);
  ASSERT_TRUE(engine.Run().ok());
  ASSERT_FALSE(engine.checkpoints().empty());
  // The uninterrupted run reuses cached evaluations across windows, while
  // every restored engine starts with an empty cache: identical logs below
  // make this the cold-versus-warm cache referee.
  EXPECT_GT(engine.metrics().eval_cache_hits, 0);
  EXPECT_EQ(engine.eval_cache_entries(), 0u);
  for (size_t k = 0; k < engine.checkpoints().size(); ++k) {
    SCOPED_TRACE("checkpoint " + std::to_string(k));
    SolverContext rctx = (*world)->Context();
    rctx.model = &model;
    DispatchEngine resumed(&workload, &rctx, cfg);
    ASSERT_TRUE(resumed.Restore(engine.checkpoints()[k].second).ok());
    ASSERT_TRUE(resumed.Run().ok());
    EXPECT_EQ(resumed.SerializedLog(), engine.SerializedLog());
    EXPECT_EQ(resumed.SolutionFingerprint(), engine.SolutionFingerprint());
  }
}

TEST(FaultDeterminismTest, ReplayFromFaultedLogReproducesTheRun) {
  auto world = BuildWorld(SmallConfig(2));
  ASSERT_TRUE(world.ok()) << world.status();
  const StreamingWorkload workload = FaultedWorkload(**world);
  EngineConfig cfg;
  cfg.window = 20;
  UtilityModel model(&workload.instance,
                     UtilityParams{(*world)->config.alpha,
                                   (*world)->config.beta});
  SolverContext ctx = (*world)->Context();
  ctx.model = &model;
  DispatchEngine first(&workload, &ctx, cfg);
  ASSERT_TRUE(first.Run().ok());

  const auto replay_input = WorkloadFromLog(workload, first.event_log());
  ASSERT_TRUE(replay_input.ok()) << replay_input.status();
  EXPECT_EQ(replay_input->faults.edge_faults.size(),
            workload.faults.edge_faults.size());
  SolverContext ctx2 = (*world)->Context();
  ctx2.model = &model;
  DispatchEngine second(&*replay_input, &ctx2, cfg);
  ASSERT_TRUE(second.Run().ok());
  EXPECT_EQ(second.SerializedLog(), first.SerializedLog());
  EXPECT_EQ(second.SolutionFingerprint(), first.SolutionFingerprint());
}

// An explicitly empty FaultPlan must leave the engine on the exact code
// path of a fault-free workload: byte-identical log, no overlay installed,
// zero fault counters.
TEST(FaultDeterminismTest, EmptyFaultPlanIsByteIdenticalToFaultFree) {
  auto world = BuildWorld(SmallConfig(2));
  ASSERT_TRUE(world.ok()) << world.status();
  Rng rng((*world)->config.seed + 100);
  StreamingWorkloadOptions opt;
  opt.arrival_rate = 1.0;
  opt.cancel_fraction = 0.2;
  const StreamingWorkload clean =
      MakeStreamingWorkload((*world)->instance, opt, &rng);
  StreamingWorkload with_plan = clean;
  with_plan.faults = FaultPlan{};  // explicitly empty
  EngineConfig cfg;
  cfg.window = 20;
  const RunResult a = RunEngine(world->get(), clean, cfg);
  const RunResult b = RunEngine(world->get(), with_plan, cfg);
  EXPECT_EQ(a.log, b.log);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(b.metrics.total_breakdowns, 0);
  EXPECT_EQ(b.metrics.overlay_queries, 0);
  EXPECT_EQ(b.metrics.overlay_epoch, 0u);
}

// Every arrived rider ends in exactly one terminal state. Terminal events:
// DroppedOff, Expired, Cancelled, Abandoned, Rejected, and RiderNoShow
// (the no-show itself closes the rider out).
TEST(FaultDeterminismTest, EveryRiderTerminatesExactlyOnce) {
  for (double window : {0.0, 20.0}) {
    SCOPED_TRACE("window=" + std::to_string(window));
    auto world = BuildWorld(SmallConfig(2));
    ASSERT_TRUE(world.ok()) << world.status();
    const StreamingWorkload workload = FaultedWorkload(**world);
    EngineConfig cfg;
    cfg.window = window;
    cfg.validate_invariants = true;
    UtilityModel model(&workload.instance,
                       UtilityParams{(*world)->config.alpha,
                                     (*world)->config.beta});
    SolverContext ctx = (*world)->Context();
    ctx.model = &model;
    DispatchEngine engine(&workload, &ctx, cfg);
    ASSERT_TRUE(engine.Run().ok());
    std::map<RiderId, int> terminal;
    std::map<RiderId, bool> arrived;
    for (const Event& e : engine.event_log()) {
      switch (e.type) {
        case EventType::kArrival:
          arrived[e.rider] = true;
          break;
        case EventType::kDroppedOff:
        case EventType::kExpired:
        case EventType::kCancelled:
        case EventType::kAbandoned:
        case EventType::kRejected:
        case EventType::kRiderNoShow:
          ++terminal[e.rider];
          break;
        default:
          break;
      }
    }
    EXPECT_FALSE(arrived.empty());
    for (const auto& [rider, _] : arrived) {
      EXPECT_EQ(terminal[rider], 1) << "rider " << rider;
    }
    for (const auto& [rider, count] : terminal) {
      EXPECT_TRUE(arrived[rider]) << "terminal event for rider " << rider
                                  << " that never arrived";
    }
  }
}

}  // namespace
}  // namespace urr
