// The streaming engine's three replayability contracts (DESIGN.md Sec 8):
//   1. the serialized event log is byte-identical at any solver thread count,
//   2. W = 0 reproduces OnlineDispatcher decision for decision,
//   3. replaying a log's input events regenerates the log and fleet state.
#include <gtest/gtest.h>

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

struct RunResult {
  std::string log;
  std::string fingerprint;
  int accepted = 0;
  int64_t cache_hits = 0;
  int64_t kernel_evals = 0;
  size_t cache_entries = 0;  // eval-cache entries left after Run()
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
          engine.metrics().total_accepted, engine.metrics().eval_cache_hits,
          engine.metrics().kernel_evals, engine.eval_cache_entries()};
}

// Contract 1, with the evaluation path in its production shape: the
// zero-copy kernel, bound screening and the engine's cross-window eval
// cache. The log and final fleet state are byte-identical at 1, 2 and 8
// threads; the cache scores hits across windows (queued riders persist)
// and forgets every rider once the queue has drained.
TEST(EngineDeterminismTest, LogIsByteIdenticalAcrossThreadCounts) {
  for (WindowSolver solver :
       {WindowSolver::kEfficientGreedy, WindowSolver::kBilateral}) {
    RunResult baseline;
    for (int threads : {1, 2, 8}) {
      SCOPED_TRACE(std::string(WindowSolverName(solver)) + " @ " +
                   std::to_string(threads) + " threads");
      auto world = BuildWorld(SmallConfig(threads));
      ASSERT_TRUE(world.ok()) << world.status();
      // Same seed at every thread count → the same workload.
      Rng rng((*world)->config.seed + 100);
      StreamingWorkloadOptions opt;
      opt.arrival_rate = 1.0;
      opt.cancel_fraction = 0.3;
      const StreamingWorkload workload =
          MakeStreamingWorkload((*world)->instance, opt, &rng);
      EngineConfig cfg;
      cfg.window = 20;
      cfg.solver = solver;
      const RunResult run = RunEngine(world->get(), workload, cfg);
      EXPECT_GT(run.cache_hits, 0);
      EXPECT_GT(run.kernel_evals, 0);
      EXPECT_EQ(run.cache_entries, 0u);
      if (threads == 1) {
        baseline = run;
        EXPECT_FALSE(baseline.log.empty());
      } else {
        EXPECT_EQ(run.log, baseline.log);
        EXPECT_EQ(run.fingerprint, baseline.fingerprint);
        // Cache traffic is a function of the (identical) decision sequence.
        EXPECT_EQ(run.cache_hits, baseline.cache_hits);
        EXPECT_EQ(run.kernel_evals, baseline.kernel_evals);
      }
    }
  }
}

// Contract 4: the evaluation-path knobs that remain settable — batched
// many-to-many distance prefetch (SolverContext::batch_eval) and the
// Euclidean lower bound behind both the candidate prefilter and the
// kernel's bound screening (SolverContext::euclid_speed; 0 switches them
// off) — are pure optimizations. Toggling either must leave the event log
// and the final fleet state byte-identical at 1, 2 and 8 threads, with the
// engine's eval cache scoring hits and draining in every combination.
TEST(EngineDeterminismTest, LogIsByteIdenticalAcrossEvalToggles) {
  for (WindowSolver solver :
       {WindowSolver::kEfficientGreedy, WindowSolver::kBilateral}) {
    RunResult baseline;
    bool have_baseline = false;
    for (int threads : {1, 2, 8}) {
      auto world = BuildWorld(SmallConfig(threads));
      ASSERT_TRUE(world.ok()) << world.status();
      Rng rng((*world)->config.seed + 100);
      StreamingWorkloadOptions opt;
      opt.arrival_rate = 1.0;
      opt.cancel_fraction = 0.3;
      const StreamingWorkload workload =
          MakeStreamingWorkload((*world)->instance, opt, &rng);
      for (bool batch : {false, true}) {
        for (bool screen : {false, true}) {
          SCOPED_TRACE(std::string(WindowSolverName(solver)) + " threads=" +
                       std::to_string(threads) + " batch=" +
                       std::to_string(batch) + " screen=" +
                       std::to_string(screen));
          UtilityModel model(
              &workload.instance,
              UtilityParams{(*world)->config.alpha, (*world)->config.beta});
          SolverContext ctx = (*world)->Context();
          ASSERT_GT(ctx.euclid_speed, 0);
          ctx.model = &model;
          ctx.batch_eval = batch;
          if (!screen) ctx.euclid_speed = 0;
          EngineConfig cfg;
          cfg.window = 20;
          cfg.solver = solver;
          DispatchEngine engine(&workload, &ctx, cfg);
          const Status st = engine.Run();
          ASSERT_TRUE(st.ok()) << st;
          const RunResult run = {engine.SerializedLog(),
                                 engine.SolutionFingerprint(),
                                 engine.metrics().total_accepted,
                                 engine.metrics().eval_cache_hits,
                                 engine.metrics().kernel_evals,
                                 engine.eval_cache_entries()};
          if (!have_baseline) {
            baseline = run;
            have_baseline = true;
            EXPECT_FALSE(baseline.log.empty());
          } else {
            EXPECT_EQ(run.log, baseline.log);
            EXPECT_EQ(run.fingerprint, baseline.fingerprint);
          }
          // The queue of retried riders spans windows, so a multi-window
          // run must reuse cached evaluations.
          EXPECT_GT(run.cache_hits, 0);
          EXPECT_GT(run.kernel_evals, 0);
          EXPECT_EQ(run.cache_entries, 0u);
        }
      }
    }
  }
}

TEST(EngineDeterminismTest, ZeroWindowMatchesOnlineDispatcher) {
  auto world = BuildWorld(SmallConfig(2));
  ASSERT_TRUE(world.ok()) << world.status();
  // arrival_rate = 0: everyone arrives at t = now with unshifted deadlines,
  // so the workload instance equals the batch instance and the engine's
  // per-arrival path must reproduce OnlineDispatcher rider for rider.
  Rng rng(99);
  StreamingWorkloadOptions opt;
  opt.arrival_rate = 0;
  const StreamingWorkload workload =
      MakeStreamingWorkload((*world)->instance, opt, &rng);
  for (OnlineObjective obj :
       {OnlineObjective::kUtilityGain, OnlineObjective::kMinCostIncrease}) {
    EngineConfig cfg;
    cfg.window = 0;
    cfg.online_objective = obj;
    UtilityModel model(&workload.instance,
                       UtilityParams{(*world)->config.alpha,
                                     (*world)->config.beta});
    SolverContext ectx = (*world)->Context();
    ectx.model = &model;
    DispatchEngine engine(&workload, &ectx, cfg);
    ASSERT_TRUE(engine.Run().ok());

    SolverContext octx = (*world)->Context();
    OnlineDispatcher dispatcher(&(*world)->instance, &octx, obj);
    std::vector<RiderId> order(workload.arrivals.size());
    for (size_t i = 0; i < order.size(); ++i) {
      order[i] = workload.arrivals[i].rider;
    }
    const UrrSolution& online = dispatcher.DispatchAll(order);

    EXPECT_EQ(engine.metrics().total_accepted, dispatcher.num_accepted());
    EXPECT_EQ(engine.metrics().total_rejected, dispatcher.num_rejected());
    ASSERT_EQ(engine.solution().assignment.size(), online.assignment.size());
    for (size_t r = 0; r < online.assignment.size(); ++r) {
      EXPECT_EQ(engine.solution().assignment[r], online.assignment[r])
          << "rider " << r;
    }
  }
}

TEST(EngineDeterminismTest, ReplayFromLogReproducesTheRun) {
  auto world = BuildWorld(SmallConfig(2));
  ASSERT_TRUE(world.ok()) << world.status();
  Rng rng((*world)->config.seed + 100);
  StreamingWorkloadOptions opt;
  opt.arrival_rate = 0.8;
  opt.cancel_fraction = 0.4;
  const StreamingWorkload workload =
      MakeStreamingWorkload((*world)->instance, opt, &rng);
  EngineConfig cfg;
  cfg.window = 15;

  UtilityModel model(&workload.instance,
                     UtilityParams{(*world)->config.alpha,
                                   (*world)->config.beta});
  SolverContext ctx = (*world)->Context();
  ctx.model = &model;
  DispatchEngine first(&workload, &ctx, cfg);
  ASSERT_TRUE(first.Run().ok());

  // Rebuild the input from the log alone and run a fresh engine.
  const auto replay_input = WorkloadFromLog(workload, first.event_log());
  ASSERT_TRUE(replay_input.ok()) << replay_input.status();
  EXPECT_EQ(replay_input->arrivals.size(), workload.arrivals.size());
  EXPECT_EQ(replay_input->cancellations.size(),
            workload.cancellations.size());
  SolverContext ctx2 = (*world)->Context();
  ctx2.model = &model;
  DispatchEngine second(&*replay_input, &ctx2, cfg);
  ASSERT_TRUE(second.Run().ok());

  EXPECT_EQ(second.SerializedLog(), first.SerializedLog());
  EXPECT_EQ(second.SolutionFingerprint(), first.SolutionFingerprint());
}

TEST(EngineDeterminismTest, SerializedLogParsesBackToTheEventVector) {
  auto world = BuildWorld(SmallConfig(1));
  ASSERT_TRUE(world.ok()) << world.status();
  Rng rng(7);
  StreamingWorkloadOptions opt;
  opt.cancel_fraction = 0.2;
  const StreamingWorkload workload =
      MakeStreamingWorkload((*world)->instance, opt, &rng);
  UtilityModel model(&workload.instance,
                     UtilityParams{(*world)->config.alpha,
                                   (*world)->config.beta});
  SolverContext ctx = (*world)->Context();
  ctx.model = &model;
  EngineConfig cfg;
  cfg.window = 30;
  DispatchEngine engine(&workload, &ctx, cfg);
  ASSERT_TRUE(engine.Run().ok());
  const auto parsed = ParseEventLog(engine.SerializedLog());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(*parsed, engine.event_log());
}

}  // namespace
}  // namespace urr
