#include "workloads.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <limits>
#include <memory>
#include <system_error>
#include <thread>
#include <utility>

#include "engine/engine.h"
#include "engine/workload.h"
#include "exp/harness.h"
#include "host_probe.h"
#include "routing/hub_labels.h"
#include "routing/index_snapshot.h"
#include "server/loadgen.h"
#include "server/server.h"
#include "stats.h"
#include "timing_oracle.h"
#include "trace.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using urr::Result;
using urr::Status;

// ---------------------------------------------------------------------------
// Fixed workload parameters. The city (road network, social graph, trip
// records, rider pool and fleet) is generated from kCitySeed and is the
// same for every run, as a real city is; --seed draws the demand over it:
// arrival times, cancellations, the engine's random stream and the load
// generator's schedule. Per-seed city changes would move every timing by
// more than a change worth detecting.

constexpr uint64_t kCitySeed = 2017;

/// The ROADMAP reference shape: NYC-like network, 300 vehicles, Poisson
/// arrivals at 0.5 riders/s, W = 30 s, two evaluation threads.
struct CityShape {
  int nodes = 0;
  int vehicles = 0;
  int riders = 0;
};
constexpr CityShape kCity{4800, 300, 1500};
constexpr CityShape kTinyCity{600, 40, 160};

constexpr int kEvalThreads = 2;
constexpr double kStreamRate = 0.5;    // riders per simulated second
constexpr double kStreamWindow = 30;   // W, simulated seconds
constexpr int kMinReps = 3;  // repetitions (stream) or sessions (serve)

/// The overload passes of stream_city: the same city at 8x the
/// arrival rate with the admission cap the service uses. One pass takes
/// two to three seconds, so each repetition runs two and the metric is the
/// median over all of them.
constexpr double kOverloadFactor = 8;
constexpr int kOverloadPasses = 2;
constexpr int kMaxQueue = 64;

/// serve_open_loop: steady clock at timescale 60, W = 15 s, journal with
/// fdatasync and the default checkpoint cadence. The knee (the highest
/// served rate whose served p99 stays within 250 ms) is about 110 req/s on
/// a 4-vCPU host. The overload rate is more than twice the knee. The
/// nominal rate is under half the knee rather than two thirds: at two
/// thirds a third of the requests wait behind window solves, and the
/// served median jumped between 0.7 and 5 ms from run to run.
constexpr double kServeTimescale = 60;
constexpr double kServeWindow = 15;
constexpr double kNominalRps = 50;
constexpr double kOverloadRps = 240;
constexpr double kServeCancelFraction = 0.1;

uint64_t Salt(uint64_t seed, uint64_t salt) {
  return seed * 0x9e3779b97f4a7c15ULL ^ salt;
}

class Timer {
 public:
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();
};

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void Gate(RunResult* result, bool ok, const std::string& what) {
  if (ok) return;
  result->correct = false;
  result->failures.push_back(what);
}

void Add(RunResult* result, const std::string& name, double value,
         const std::string& unit) {
  result->metrics.push_back(Metric{name, value, unit});
}

double Ms(double seconds) { return seconds * 1e3; }

/// Milliseconds of every value in `seconds`, times the host scale.
std::vector<double> MsAll(const std::vector<double>& seconds,
                          double scale = 1) {
  std::vector<double> out;
  out.reserve(seconds.size());
  for (double s : seconds) out.push_back(Ms(s) * scale);
  return out;
}

/// Per served rider: the wall time of the window solve that committed it —
/// the decision latency a rider waits on the solver — times the host
/// scale, over the windows that closed by engine time `until`.
std::vector<double> DecisionLatenciesMs(
    const urr::EngineMetrics& m, double scale,
    urr::Cost until = std::numeric_limits<urr::Cost>::infinity()) {
  std::vector<double> out;
  for (const urr::WindowMetrics& w : m.windows) {
    if (w.window_end > until) continue;
    out.insert(out.end(), static_cast<size_t>(std::max(0, w.accepted)),
               Ms(w.solve_seconds) * scale);
  }
  return out;
}

/// The p-th percentile of `values`, noting on stderr when fewer than ten
/// samples lie beyond it (the tail then rests on a handful of outliers).
double Tail(const std::vector<double>& values, double p, const char* what) {
  if (!TailIsSupported(static_cast<int64_t>(values.size()), p)) {
    std::fprintf(stderr, "note: %s p%g rests on %lld samples beyond it\n",
                 what, p,
                 static_cast<long long>(
                     SamplesBeyond(static_cast<int64_t>(values.size()), p)));
  }
  return PercentileOf(values, p);
}

double PerSecond(double count, double seconds) {
  return seconds > 0 ? count / seconds : 0;
}

urr::ExperimentConfig WorldConfig(const CityShape& shape, int riders,
                                  const std::string& snapshot) {
  urr::ExperimentConfig cfg;
  cfg.city = urr::CityKind::kNycLike;
  cfg.city_nodes = shape.nodes;
  cfg.num_social_users = std::max(500, shape.nodes / 2);
  cfg.num_trip_records = std::max(2000, riders * 3);
  cfg.num_riders = riders;
  cfg.num_vehicles = shape.vehicles;
  cfg.num_threads = kEvalThreads;
  cfg.seed = kCitySeed;
  cfg.index_snapshot = snapshot;
  return cfg;
}

/// Where the .urrx snapshot of the city lives; `--prepare` writes it in
/// its own process so neither its time nor its memory is charged to the
/// measured run.
std::string SnapshotPath(const RunOptions& opt, const CityShape& shape) {
  return opt.workdir + "/nyc-" + std::to_string(shape.nodes) + "-" +
         std::to_string(kCitySeed) + ".urrx";
}

// ---------------------------------------------------------------------------
// Set-up and one engine pass.

/// A built world plus the streaming input over it.
struct World {
  std::unique_ptr<urr::ExperimentWorld> world;
  std::unique_ptr<urr::StreamingWorkload> workload;
  std::unique_ptr<urr::UtilityModel> model;
  double build_world_s = 0;
  double setup_s = 0;  // build + workload generation
};

Result<World> SetUp(const urr::ExperimentConfig& cfg,
                    const urr::StreamingWorkloadOptions& wopt, uint64_t seed,
                    SpanRecorder* rec) {
  Timer total;
  World w;
  {
    ScopedSpan span(rec, "exp.BuildWorld");
    Timer t;
    URR_ASSIGN_OR_RETURN(w.world, urr::BuildWorld(cfg));
    w.build_world_s = t.Seconds();
  }
  {
    ScopedSpan span(rec, "engine.MakeStreamingWorkload");
    urr::Rng rng(Salt(seed, 1));
    w.workload = std::make_unique<urr::StreamingWorkload>(
        urr::MakeStreamingWorkload(w.world->instance, wopt, &rng));
    w.model = std::make_unique<urr::UtilityModel>(
        &w.workload->instance, urr::UtilityParams{cfg.alpha, cfg.beta});
  }
  w.setup_s = total.Seconds();
  return w;
}

/// The routing state of one context: a clone of the world's active oracle
/// (the shared index behind an empty cache), so that every engine pass
/// starts from the same cold cache whatever ran on the world before it.
/// Traced contexts wrap the clone in a TimingOracle; the worker clones
/// wrap clones of it.
struct Routing {
  std::unique_ptr<urr::DistanceOracle> fresh;
  std::shared_ptr<OracleCounterRegistry> registry;  // traced only
  std::unique_ptr<TimingOracle> oracle;             // traced only
};

urr::SolverContext MakeContext(World& w, const urr::UtilityModel& model,
                               bool traced, Routing* routing) {
  urr::SolverContext ctx = w.world->Context();
  ctx.model = &model;
  routing->fresh = ctx.oracle->Clone();
  if (routing->fresh != nullptr) ctx.oracle = routing->fresh.get();
  if (traced) {
    routing->registry = std::make_shared<OracleCounterRegistry>();
    routing->oracle =
        std::make_unique<TimingOracle>(ctx.oracle, routing->registry);
    ctx.oracle = routing->oracle.get();
  }
  urr::AttachThreadPool(&ctx, w.world->pool.get());
  return ctx;
}

struct PassResult {
  std::vector<urr::Event> events;
  std::string log;
  std::string fingerprint;
  urr::EngineMetrics metrics;
  double ctor_s = 0;  // DispatchEngine construction (part of set-up)
  double run_s = 0;   // DispatchEngine::Run
  OracleCounters routing;  // traced passes only
};

Result<PassResult> EnginePass(World& w, const urr::StreamingWorkload& workload,
                              const urr::UtilityModel& model,
                              const urr::EngineConfig& ecfg, bool traced,
                              SpanRecorder* rec, const std::string& name) {
  PassResult out;
  std::shared_ptr<OracleCounterRegistry> registry;
  {
    Routing routing;
    urr::SolverContext ctx = MakeContext(w, model, traced, &routing);
    registry = routing.registry;
    Timer ctor;
    std::unique_ptr<urr::DispatchEngine> engine;
    {
      ScopedSpan span(rec, "engine.DispatchEngine");
      engine = std::make_unique<urr::DispatchEngine>(&workload, &ctx, ecfg);
    }
    out.ctor_s = ctor.Seconds();
    {
      ScopedSpan span(rec, name);
      Timer run;
      const Status st = engine->Run();
      if (!st.ok()) {
        std::fprintf(stderr, "%s failed: %s\n", name.c_str(),
                     st.ToString().c_str());
        return st;
      }
      out.run_s = run.Seconds();
    }
    out.events = engine->event_log();
    out.log = engine->SerializedLog();
    out.fingerprint = engine->SolutionFingerprint();
    out.metrics = engine->metrics();
  }  // engine, then the decorator clones, flush their cache counts here
  if (registry != nullptr) out.routing = registry->Merged();
  return out;
}

/// The untimed verify pass: replays the log's inputs through a fresh engine
/// with the full invariant check after every window and repair, and
/// requires the identical log and final fleet state.
Status VerifyReplay(World& w, const PassResult& ref, urr::EngineConfig ecfg,
                    SpanRecorder* rec, RunResult* result) {
  ScopedSpan span(rec, "verify.replay", SpanKind::kGroup);
  URR_ASSIGN_OR_RETURN(urr::StreamingWorkload replayed,
                       urr::WorkloadFromLog(*w.workload, ref.events));
  ecfg.validate_invariants = true;
  URR_ASSIGN_OR_RETURN(
      PassResult again,
      EnginePass(w, replayed, *w.model, ecfg, false, rec,
                 "engine.Run.verify"));
  Gate(result, again.log == ref.log,
       "replaying the log's inputs produced a different event log");
  Gate(result, again.fingerprint == ref.fingerprint,
       "replaying the log's inputs produced a different final fleet state");
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Per-layer metrics shared by stream_city and the service.

void AddRoutingLayer(RunResult* r, const OracleCounters& c) {
  Add(r, "routing.busy_s", c.busy_s, "s");
  Add(r, "routing.calls", static_cast<double>(c.calls), "count");
  Add(r, "routing.batch_calls", static_cast<double>(c.batch_calls), "count");
  Add(r, "routing.batch_cells", static_cast<double>(c.batch_cells), "count");
  const Ratio hits{static_cast<double>(c.cache_hits),
                   static_cast<double>(c.cache_hits + c.cache_misses)};
  Add(r, "routing.cache_hit_ratio", hits.value(), "ratio");
  Add(r, "routing.cache_lookups", hits.base, "count");
}

void AddEngineLayers(RunResult* r, const urr::EngineMetrics& m, double run_s,
                     double routing_busy_s) {
  Add(r, "spatial.retrieval_s", m.retrieval_seconds, "s");
  Add(r, "spatial.retrieval_queries", static_cast<double>(m.retrieval_riders),
      "count");
  Add(r, "spatial.mean_candidates", m.retrieval_mean_candidates, "count");
  Add(r, "spatial.screen_prune_ratio", m.retrieval_screen_prune_ratio,
      "ratio");
  Add(r, "spatial.screen_scanned", static_cast<double>(m.retrieval_scanned),
      "count");
  const Ratio cache{static_cast<double>(m.eval_cache_hits),
                    static_cast<double>(m.eval_cache_hits +
                                        m.eval_cache_misses)};
  Add(r, "urr.eval_cache_hit_ratio", cache.value(), "ratio");
  Add(r, "urr.eval_cache_lookups", cache.base, "count");
  Add(r, "urr.screened_pairs", static_cast<double>(m.screened_pairs), "count");
  Add(r, "urr.elided_queries", static_cast<double>(m.elided_queries), "count");
  Add(r, "sched.kernel_evals", static_cast<double>(m.kernel_evals), "count");
  const Ratio accept{static_cast<double>(m.total_accepted),
                     static_cast<double>(m.kernel_evals)};
  Add(r, "sched.accept_per_eval", accept.value(), "ratio");
  double solve_s = 0;
  for (double s : m.solve_latencies) solve_s += s;
  // Routing busy time is summed over the evaluation workers, so on a
  // parallel solve it can exceed the wall time it overlaps; clamp at 0.
  Add(r, "engine.solve_self_s",
      std::max(0.0, solve_s - routing_busy_s - m.retrieval_seconds), "s");
  Add(r, "engine.run_s", run_s, "s");
  Add(r, "engine.solve_s", solve_s, "s");
  Add(r, "engine.windows", static_cast<double>(m.solve_latencies.size()),
      "count");
  std::vector<double> depth;
  for (const urr::WindowMetrics& w : m.windows) depth.push_back(w.queue_depth);
  Add(r, "engine.queue_depth_p95", PercentileOf(depth, 95), "count");
}

/// Server layer metrics; all zero on the workloads without a service.
struct ServerLayer {
  double journal_bytes = 0;
  double checkpoint_bytes = 0;
  double checkpoints = 0;
  double recover_s = 0;
  double engine_solve_p99_ms = 0;
  double gen_overrun_s = 0;
  double reconnects = 0;
  double request_p50_ms = 0;   // nominal-phase served median
  double request_p95_ms = 0;   // nominal-phase served p95
  double overload_p95_ms = 0;  // overload-phase served p95
};

void AddServerLayer(RunResult* r, const ServerLayer& s) {
  Add(r, "server.journal_bytes", s.journal_bytes, "bytes");
  Add(r, "server.checkpoint_bytes", s.checkpoint_bytes, "bytes");
  Add(r, "server.checkpoints", s.checkpoints, "count");
  Add(r, "server.recover_s", s.recover_s, "s");
  Add(r, "server.engine_solve_p99_ms", s.engine_solve_p99_ms, "ms");
  Add(r, "server.gen_overrun_s", s.gen_overrun_s, "s");
  Add(r, "server.reconnects", s.reconnects, "count");
  Add(r, "server.request_p50_ms", s.request_p50_ms, "ms");
  Add(r, "server.request_p95_ms", s.request_p95_ms, "ms");
  Add(r, "server.overload_p95_ms", s.overload_p95_ms, "ms");
}

void AddTraceLayer(RunResult* r, const SpanRecorder& rec, double overhead) {
  Add(r, "trace.overhead_ratio", overhead, "ratio");
  Add(r, "trace.span_coverage", CallCoverage(rec.spans()), "ratio");
  Add(r, "trace.spans", static_cast<double>(rec.spans().size()), "count");
}

std::string TraceJson(const SpanRecorder& rec, const OracleCounters& c) {
  return "{\"trace\":" + rec.ToJson() +
         ",\"routing_call_ns\":" + c.call_ns.ToJson() +
         ",\"routing_batch_cells\":" + c.batch_size.ToJson() + "}";
}

// ---------------------------------------------------------------------------
// stream_city.

Result<RunResult> RunStream(const RunOptions& opt) {
  RunResult result;
  SpanRecorder rec(opt.trace);
  ScopedSpan root(&rec, opt.workload, SpanKind::kGroup);
  const CityShape shape = opt.tiny ? kTinyCity : kCity;
  const urr::ExperimentConfig cfg = WorldConfig(shape, shape.riders, "");

  urr::StreamingWorkloadOptions wopt;
  wopt.arrival_rate = kStreamRate;

  urr::EngineConfig ecfg;
  ecfg.window = kStreamWindow;
  ecfg.solver = urr::WindowSolver::kEfficientGreedy;
  ecfg.seed = opt.seed;

  // The overload passes: the same city at kOverloadFactor x the arrival
  // rate against the admission cap, on each untraced rep's world after its
  // nominal pass.
  urr::StreamingWorkloadOptions over = wopt;
  over.arrival_rate *= kOverloadFactor;
  urr::EngineConfig ocfg = ecfg;
  ocfg.max_queue = kMaxQueue;

  // Untraced timings are in reference-host seconds (host_probe.h): every
  // set-up and engine pass is bracketed by probe samples.
  HostClock clock(!opt.trace);
  std::vector<double> setup_s, riders_per_s, solve_ms, decision_ms;
  std::vector<double> over_goodput;
  PassResult first;
  PassResult first_overload;
  PassResult traced;
  double reference_run_s = 0;
  double traced_build_world_s = 0;
  double index_probe_s = 0;
  const Timer elapsed;
  for (int rep = 0;; ++rep) {
    // Untraced: at least kMinReps repetitions, then until opt.seconds have
    // passed. Traced: rep 0 warms the process up, rep 1 is the untraced
    // reference and rep 2 the traced pass, so both timed passes start warm.
    if (opt.trace ? rep >= 3
                  : rep >= kMinReps && elapsed.Seconds() >= opt.seconds) {
      break;
    }
    const bool traced_rep = opt.trace && rep == 2;
    ScopedSpan rep_span(&rec, traced_rep ? "rep.traced" : "rep",
                        SpanKind::kGroup);
    clock.Mark();
    URR_ASSIGN_OR_RETURN(World w, SetUp(cfg, wopt, opt.seed, &rec));
    const double setup_scale = clock.Next();
    URR_ASSIGN_OR_RETURN(PassResult pass,
                         EnginePass(w, *w.workload, *w.model, ecfg, traced_rep,
                                    &rec, "engine.Run"));
    const double scale = clock.Next();
    setup_s.push_back(w.setup_s * setup_scale + pass.ctor_s * scale);
    riders_per_s.push_back(
        PerSecond(pass.metrics.total_arrivals, pass.run_s * scale));
    const std::vector<double> solves =
        MsAll(pass.metrics.solve_latencies, scale);
    solve_ms.insert(solve_ms.end(), solves.begin(), solves.end());
    const std::vector<double> decisions =
        DecisionLatenciesMs(pass.metrics, scale);
    decision_ms.insert(decision_ms.end(), decisions.begin(), decisions.end());
    result.attempted += pass.metrics.total_arrivals;
    if (opt.trace && rep == 1) reference_run_s = pass.run_s;

    if (traced_rep) {
      // Layer probe: the index build the world build just performed, timed
      // on its own.
      ScopedSpan span(&rec, "routing.BuildOracleStack");
      urr::ChOptions ch;
      ch.pool = w.world->pool.get();
      Timer t;
      URR_ASSIGN_OR_RETURN(urr::OracleStack stack,
                           urr::BuildOracleStack(w.world->network,
                                                 w.world->oracles.kind, ch));
      index_probe_s = t.Seconds();
      traced_build_world_s = w.build_world_s;
    }
    if (!opt.trace) {
      urr::Rng rng(Salt(opt.seed, 3));
      urr::StreamingWorkload ow =
          urr::MakeStreamingWorkload(w.world->instance, over, &rng);
      const urr::UtilityModel model(&ow.instance,
                                    urr::UtilityParams{cfg.alpha, cfg.beta});
      for (int k = 0; k < kOverloadPasses; ++k) {
        URR_ASSIGN_OR_RETURN(PassResult op,
                             EnginePass(w, ow, model, ocfg, false, &rec,
                                        "engine.Run.overload"));
        const double over_scale = clock.Next();
        result.attempted += op.metrics.total_arrivals;
        over_goodput.push_back(
            PerSecond(op.metrics.total_accepted, op.run_s * over_scale));
        if (rep == 0 && k == 0) {
          first_overload = std::move(op);
        } else {
          Gate(&result, op.log == first_overload.log,
               "rep " + std::to_string(rep) + " overload pass " +
                   std::to_string(k) + " event log differs from the first");
        }
      }
    }
    std::fprintf(stderr,
                 "rep %d: raw set-up %.3f s, run %.3f s; host scale %.3f "
                 "(probe %.4f s); scaled %.1f riders/s, overload goodput "
                 "%.1f/s\n",
                 rep, w.setup_s + pass.ctor_s, pass.run_s, scale,
                 clock.last_sample(), riders_per_s.back(),
                 opt.trace ? 0.0 : over_goodput.back());
    if (rep == 0) {
      URR_RETURN_NOT_OK(VerifyReplay(w, pass, ecfg, &rec, &result));
      first = std::move(pass);
    } else {
      Gate(&result, pass.log == first.log,
           "rep " + std::to_string(rep) + " event log differs from rep 0");
      Gate(&result, pass.fingerprint == first.fingerprint,
           "rep " + std::to_string(rep) +
               " SolutionFingerprint differs from rep 0");
      if (traced_rep) traced = std::move(pass);
    }
  }
  root.End();

  if (!opt.trace) {
    const urr::EngineMetrics& m = first.metrics;
    Add(&result, "setup_s", Median(setup_s), "s");
    Add(&result, "peak_rss_mb", PeakRssMb(), "MB");
    Add(&result, "success_ratio",
        Ratio{static_cast<double>(result.attempted - result.failed),
              static_cast<double>(result.attempted)}
            .value(),
        "ratio");
    Add(&result, "riders_per_s", Median(riders_per_s), "1/s");
    Add(&result, "solve_p50_ms", PercentileOf(solve_ms, 50), "ms");
    Add(&result, "solve_p90_ms", Tail(solve_ms, 90, "solve"), "ms");
    Add(&result, "booked_utility", m.booked_utility, "utility");
    Add(&result, "served_ratio",
        Ratio{static_cast<double>(m.total_accepted),
              static_cast<double>(m.total_arrivals)}
            .value(),
        "ratio");
    Add(&result, "served_p95_ms", Tail(decision_ms, 95, "decision"), "ms");
    const urr::EngineMetrics& om = first_overload.metrics;
    Add(&result, "overload_goodput_rps", Median(over_goodput), "1/s");
    Add(&result, "shed_ratio",
        Ratio{static_cast<double>(om.rejects.queue_full),
              static_cast<double>(om.total_arrivals)}
            .value(),
        "ratio");
    return result;
  }

  Add(&result, "exp.build_world_s", traced_build_world_s, "s");
  Add(&result, "routing.index_build_s", index_probe_s, "s");
  Add(&result, "routing.snapshot_load_s", 0, "s");
  AddRoutingLayer(&result, traced.routing);
  AddEngineLayers(&result, traced.metrics, traced.run_s,
                  traced.routing.busy_s);
  AddServerLayer(&result, ServerLayer{});
  AddTraceLayer(&result, rec,
                reference_run_s > 0 ? traced.run_s / reference_run_s : 0);
  result.trace_json = TraceJson(rec, traced.routing);
  return result;
}

// ---------------------------------------------------------------------------
// serve_open_loop.

/// One running in-process service: world, engine session, socket server.
/// Members are declared in dependency order, so destruction stops the
/// server before the service and the service before what it borrows.
struct Service {
  World w;
  Routing routing;
  urr::SolverContext ctx;
  std::string journal_dir;
  std::unique_ptr<urr::AdmissionController> admission;
  std::unique_ptr<urr::DispatchService> service;
  std::unique_ptr<urr::DispatchServer> server;
  double setup_s = 0;
  urr::Cost epoch = 0;  // engine clock when the service started
  std::chrono::steady_clock::time_point started;

  /// The engine clock the service stamps now (steady clock x timescale).
  urr::Cost SimNow() const {
    return epoch + kServeTimescale *
                       std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - started)
                           .count();
  }
};

urr::EngineConfig ServeEngineConfig(uint64_t seed, const std::string& snapshot,
                                    uint64_t checksum) {
  urr::EngineConfig ecfg;
  ecfg.window = kServeWindow;
  ecfg.solver = urr::WindowSolver::kEfficientGreedy;
  ecfg.max_queue = kMaxQueue;
  ecfg.seed = seed;
  ecfg.index_snapshot_path = snapshot;
  ecfg.index_snapshot_checksum = checksum;
  return ecfg;
}

urr::ServiceConfig ServeConfig(const std::string& journal_dir, bool recover) {
  urr::ServiceConfig scfg;
  scfg.virtual_clock = false;
  scfg.timescale = kServeTimescale;
  scfg.journal_dir = journal_dir;
  scfg.recover = recover;
  scfg.journal_fsync = true;
  return scfg;
}

Result<std::unique_ptr<Service>> StartService(
    const urr::ExperimentConfig& cfg, const urr::StreamingWorkloadOptions& wopt,
    uint64_t seed, const std::string& journal_dir, int connections,
    bool traced, SpanRecorder* rec) {
  ScopedSpan span(rec, traced ? "setup.traced" : "setup", SpanKind::kGroup);
  Timer total;
  auto s = std::make_unique<Service>();
  URR_ASSIGN_OR_RETURN(s->w, SetUp(cfg, wopt, seed, rec));
  s->ctx = MakeContext(s->w, *s->w.model, traced, &s->routing);
  s->journal_dir = journal_dir;
  std::error_code ec;
  fs::remove_all(journal_dir, ec);
  s->admission = std::make_unique<urr::AdmissionController>(connections * 2);
  {
    ScopedSpan start(rec, "server.DispatchService.Start");
    s->service = std::make_unique<urr::DispatchService>(
        s->w.workload.get(), &s->ctx,
        ServeEngineConfig(seed, cfg.index_snapshot,
                          s->w.world->index_checksum),
        ServeConfig(journal_dir, false), s->admission.get());
    URR_RETURN_NOT_OK(s->service->Start());
    s->started = std::chrono::steady_clock::now();
    s->epoch = s->service->engine().now();
  }
  {
    ScopedSpan start(rec, "server.DispatchServer.Start");
    s->server = std::make_unique<urr::DispatchServer>(
        s->service.get(), s->admission.get(), urr::ServerConfig{});
    URR_RETURN_NOT_OK(s->server->Start());
  }
  s->setup_s = total.Seconds();
  return s;
}

Result<urr::LoadGenReport> OpenLoopPhase(const Service& s, double rate, double duration,
                            int connections, int64_t rider_offset,
                            uint64_t seed, SpanRecorder* rec,
                            const std::string& name) {
  ScopedSpan span(rec, name);
  urr::LoadGenOptions lopt;
  lopt.connections = connections;
  lopt.rate = rate;
  lopt.duration = duration;
  lopt.seed = seed;
  lopt.cancel_fraction = kServeCancelFraction;
  lopt.rider_offset = rider_offset;
  return urr::RunOpenLoop(urr::Endpoint{s.server->port(), ""}, lopt);
}

/// Sizes the journal and the checkpoints the run left behind.
void MeasureJournalDir(const std::string& dir, ServerLayer* layer) {
  std::error_code ec;
  int64_t newest_seq = -1;
  for (const fs::directory_entry& e : fs::directory_iterator(dir, ec)) {
    const std::string name = e.path().filename().string();
    if (name == "journal.wal") {
      layer->journal_bytes = static_cast<double>(e.file_size(ec));
    } else if (name.rfind("ckpt-", 0) == 0 &&
               name.find('.') == std::string::npos) {
      layer->checkpoints += 1;
      const int64_t seq = std::atoll(name.c_str() + 5);
      if (seq > newest_seq) {
        newest_seq = seq;
        layer->checkpoint_bytes = static_cast<double>(e.file_size(ec));
      }
    }
  }
}

/// The load of one session: scheduled rates and phase lengths.
struct ServePlan {
  double nominal_rps = 0;
  double overload_rps = 0;
  double nominal_s = 0;
  double overload_s = 0;  // 0 = nominal phase only
  int connections = 1;
};

/// What one service session measured (loadgen view + post-drain engine).
struct Session {
  urr::LoadGenReport nominal;
  urr::LoadGenReport overload;
  urr::EngineMetrics engine;
  // Windows closed in the nominal phase: solve latency per window and
  // decision latency per rider served.
  std::vector<double> nominal_solve_ms;
  std::vector<double> nominal_decision_ms;
  std::string log;
  std::string fingerprint;
};

/// Drives the phases of `plan` against `s`, stops the server (finishing
/// the engine session) and checks the generator's counts against the
/// engine's.
Result<Session> RunSession(Service* s, const ServePlan& plan, uint64_t seed,
                           SpanRecorder* rec, RunResult* result) {
  Session out;
  URR_ASSIGN_OR_RETURN(out.nominal,
                       OpenLoopPhase(*s, plan.nominal_rps, plan.nominal_s,
                                     plan.connections, 0, seed, rec,
                                     "loadgen.RunOpenLoop.nominal"));
  const urr::Cost nominal_end = s->SimNow();
  if (plan.overload_s > 0) {
    URR_ASSIGN_OR_RETURN(
        out.overload,
        OpenLoopPhase(*s, plan.overload_rps, plan.overload_s,
                      plan.connections, out.nominal.sent, Salt(seed, 5), rec,
                      "loadgen.RunOpenLoop.overload"));
  }
  {
    ScopedSpan span(rec, "server.DispatchServer.Stop");
    URR_RETURN_NOT_OK(s->server->Stop());
  }
  out.engine = s->service->engine().metrics();
  out.log = s->service->SerializedLog();
  out.fingerprint = s->service->engine().SolutionFingerprint();
  for (const urr::WindowMetrics& w : out.engine.windows) {
    if (w.window_end <= nominal_end) {
      out.nominal_solve_ms.push_back(Ms(w.solve_seconds));
    }
  }
  out.nominal_decision_ms = DecisionLatenciesMs(out.engine, 1, nominal_end);

  const urr::LoadGenReport& a = out.nominal;
  const urr::LoadGenReport& b = out.overload;
  result->attempted += a.sent + a.cancels + b.sent + b.cancels;
  result->failed += a.errors + b.errors;
  Gate(result, out.engine.total_arrivals == a.sent + b.sent,
       "engine total_arrivals " + std::to_string(out.engine.total_arrivals) +
           " != generator sent " + std::to_string(a.sent + b.sent));
  Gate(result,
       out.engine.rejects.queue_full ==
           a.rejected_admission + b.rejected_admission,
       "engine queue_full rejections " +
           std::to_string(out.engine.rejects.queue_full) +
           " != generator 429s " +
           std::to_string(a.rejected_admission + b.rejected_admission));
  return out;
}

/// Median over sessions of one per-session value.
template <typename F>
double MedianOf(const std::vector<Session>& sessions, F value) {
  std::vector<double> v;
  for (const Session& s : sessions) v.push_back(value(s));
  return Median(v);
}

Result<RunResult> RunServe(const RunOptions& opt) {
  RunResult result;
  SpanRecorder rec(opt.trace);
  ScopedSpan root(&rec, opt.workload, SpanKind::kGroup);
  const CityShape shape = opt.tiny ? kTinyCity : kCity;
  const double scale = opt.tiny ? 0.25 : 1.0;
  // Untraced: kMinReps independent sessions share the measured time, each
  // three quarters nominal and one quarter overload. Metrics are medians
  // over sessions, solve latencies pooled over them. Traced: an untraced
  // nominal-only session warms the process up, a second one is the
  // overhead reference, then one traced session runs both phases.
  const int sessions = opt.trace ? 3 : kMinReps;
  ServePlan plan;
  plan.nominal_rps = kNominalRps * scale;
  plan.overload_rps = kOverloadRps * scale;
  plan.nominal_s = opt.seconds * 0.75 / kMinReps;
  plan.overload_s = opt.seconds * 0.25 / kMinReps;
  plan.connections = static_cast<int>(
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
  // Rider universe: every rider both phases can submit, plus headroom.
  const int riders =
      static_cast<int>(std::ceil(1.2 * (plan.nominal_rps * plan.nominal_s +
                                        plan.overload_rps * plan.overload_s))) +
      100;
  const std::string snapshot = SnapshotPath(opt, shape);
  const urr::ExperimentConfig cfg = WorldConfig(shape, riders, snapshot);
  urr::StreamingWorkloadOptions wopt;
  wopt.arrival_rate = kStreamRate;
  const std::string dir_base = opt.workdir + "/serve-" +
                               std::to_string(opt.seed) + "-" +
                               std::to_string(::getpid());

  // Set-up and window solves are computation and are reported in
  // reference-host seconds (host_probe.h); the request latencies, goodput
  // and shed share answer an open-loop schedule on the real clock and stay
  // raw.
  HostClock clock(!opt.trace);
  std::vector<double> setup_s;
  std::vector<Session> done;
  std::unique_ptr<Service> s;
  for (int k = 0; k < sessions; ++k) {
    const bool traced = opt.trace && k == sessions - 1;
    if (s != nullptr) {
      std::error_code ec;
      fs::remove_all(s->journal_dir, ec);
      s.reset();
    }
    clock.Mark();
    URR_ASSIGN_OR_RETURN(s, StartService(cfg, wopt, opt.seed,
                                         dir_base + "-" + std::to_string(k),
                                         plan.connections, traced, &rec));
    setup_s.push_back(s->setup_s * clock.Next());
    ServePlan p = plan;
    if (opt.trace && !traced) p.overload_s = 0;
    URR_ASSIGN_OR_RETURN(Session session,
                         RunSession(s.get(), p, opt.seed, &rec, &result));
    const double solve_scale = clock.Next();
    const double raw_solve_p50 = PercentileOf(session.nominal_solve_ms, 50);
    for (double& ms : session.nominal_solve_ms) ms *= solve_scale;
    for (double& ms : session.nominal_decision_ms) ms *= solve_scale;
    std::fprintf(stderr,
                 "session %d: raw set-up %.3f s; nominal p50 %.3f p95 %.3f "
                 "ms, raw solve p50 %.3f ms over %zu windows, host scale "
                 "%.3f; overload goodput %.1f/s p95 %.3f ms shed %lld/%lld\n",
                 k, s->setup_s, Ms(session.nominal.p50),
                 Ms(session.nominal.p95), raw_solve_p50,
                 session.nominal_solve_ms.size(), solve_scale,
                 session.overload.goodput,
                 Ms(session.overload.p95),
                 static_cast<long long>(session.overload.rejected_admission),
                 static_cast<long long>(session.overload.sent));
    done.push_back(std::move(session));
  }
  const Session& last = done.back();

  // Server state growth, measured from outside: recover a fresh service
  // from the journal the last session left and require the identical log.
  ServerLayer layer;
  MeasureJournalDir(s->journal_dir, &layer);
  {
    ScopedSpan span(&rec, "server.recover");
    Routing routing;
    urr::SolverContext ctx = MakeContext(s->w, *s->w.model, false, &routing);
    urr::DispatchService recovered(
        s->w.workload.get(), &ctx,
        ServeEngineConfig(opt.seed, snapshot, s->w.world->index_checksum),
        ServeConfig(s->journal_dir, true), nullptr);
    Timer t;
    URR_RETURN_NOT_OK(recovered.Start());
    layer.recover_s = t.Seconds();
    URR_RETURN_NOT_OK(recovered.Finish());
    Gate(&result, recovered.SerializedLog() == last.log,
         "service recovered from the journal produced a different event log");
    Gate(&result, recovered.engine().SolutionFingerprint() == last.fingerprint,
         "service recovered from the journal ended in a different fleet "
         "state");
  }
  root.End();

  if (!opt.trace) {
    Add(&result, "setup_s", Median(setup_s), "s");
    Add(&result, "peak_rss_mb", PeakRssMb(), "MB");
    Add(&result, "success_ratio",
        Ratio{static_cast<double>(result.attempted - result.failed),
              static_cast<double>(result.attempted)}
            .value(),
        "ratio");
    // Riders the engine committed, not riders sent: the open-loop
    // generator sends on its own schedule whatever the service does.
    Add(&result, "riders_per_s", MedianOf(done, [](const Session& x) {
          return PerSecond(x.engine.total_accepted,
                           x.nominal.elapsed + x.overload.elapsed);
        }), "1/s");
    std::vector<double> solve_ms, decision_ms;
    for (const Session& x : done) {
      solve_ms.insert(solve_ms.end(), x.nominal_solve_ms.begin(),
                      x.nominal_solve_ms.end());
      decision_ms.insert(decision_ms.end(), x.nominal_decision_ms.begin(),
                         x.nominal_decision_ms.end());
    }
    Add(&result, "solve_p50_ms", PercentileOf(solve_ms, 50), "ms");
    Add(&result, "solve_p90_ms", Tail(solve_ms, 90, "solve"), "ms");
    Add(&result, "booked_utility", MedianOf(done, [](const Session& x) {
          return x.engine.booked_utility;
        }), "utility");
    Add(&result, "served_ratio", MedianOf(done, [](const Session& x) {
          return Ratio{static_cast<double>(x.engine.total_accepted),
                       static_cast<double>(x.engine.total_arrivals)}
              .value();
        }), "ratio");
    // Decision latency, as on stream_city. The request latency is reported
    // per layer (server.request_p50_ms/p95_ms): it follows the host's disk
    // and scheduler more than the program, and over ten seeds its quartile
    // spread was 0.26 of the median, past any bound the contract allows.
    Add(&result, "served_p95_ms", Tail(decision_ms, 95, "decision"), "ms");
    Add(&result, "overload_goodput_rps", MedianOf(done, [](const Session& x) {
          return x.overload.goodput;
        }), "1/s");
    Add(&result, "shed_ratio", MedianOf(done, [](const Session& x) {
          return Ratio{static_cast<double>(x.overload.rejected_admission),
                       static_cast<double>(x.overload.sent)}
              .value();
        }), "ratio");
  } else {
    // Tear the session down first: the worker clones record their cache
    // counts when destroyed.
    s->server.reset();
    s->service.reset();
    s->ctx.worker_set.reset();
    s->routing.oracle->FlushCacheCounts();
    const OracleCounters routing = s->routing.registry->Merged();
    const urr::EngineMetrics& m = last.engine;
    const urr::LoadGenReport& a = last.nominal;
    const urr::LoadGenReport& b = last.overload;
    layer.engine_solve_p99_ms = PercentileOf(MsAll(m.solve_latencies), 99);
    layer.gen_overrun_s = std::max(0.0, a.elapsed - plan.nominal_s) +
                          std::max(0.0, b.elapsed - plan.overload_s);
    layer.reconnects = static_cast<double>(a.reconnects + b.reconnects);
    layer.request_p50_ms = Ms(a.p50);
    layer.request_p95_ms = Ms(a.p95);
    layer.overload_p95_ms = Ms(b.p95);
    Add(&result, "exp.build_world_s", s->w.build_world_s, "s");
    Add(&result, "routing.index_build_s", 0, "s");
    {
      Timer t;
      URR_ASSIGN_OR_RETURN(urr::IndexSnapshot loaded,
                           urr::LoadIndexSnapshot(snapshot));
      Add(&result, "routing.snapshot_load_s", t.Seconds(), "s");
    }
    AddRoutingLayer(&result, routing);
    AddEngineLayers(&result, m, a.elapsed + b.elapsed, routing.busy_s);
    AddServerLayer(&result, layer);
    // The decorator wraps the oracle calls of window solves, so the
    // overhead shows in the nominal solve median, not in the served median
    // (which the journal fsync dominates).
    const double reference_solve =
        PercentileOf(done[done.size() - 2].nominal_solve_ms, 50);
    AddTraceLayer(&result, rec,
                  reference_solve > 0
                      ? PercentileOf(last.nominal_solve_ms, 50) /
                            reference_solve
                      : 0);
    result.trace_json = TraceJson(rec, routing);
  }
  std::error_code ec;
  const std::string dir = s->journal_dir;
  s.reset();
  fs::remove_all(dir, ec);
  return result;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {"stream_city",
                                                   "serve_open_loop"};
  return kNames;
}

Status PrepareWorkload(const RunOptions& opt) {
  if (opt.workload == "stream_city") return Status::OK();
  const CityShape shape = opt.tiny ? kTinyCity : kCity;
  const std::string path = SnapshotPath(opt, shape);
  if (urr::VerifyIndexSnapshotFile(path).ok()) return Status::OK();
  URR_ASSIGN_OR_RETURN(std::unique_ptr<urr::ExperimentWorld> world,
                       urr::BuildWorld(WorldConfig(shape, shape.riders, "")));
  urr::ChOptions ch;
  ch.pool = world->pool.get();
  URR_ASSIGN_OR_RETURN(urr::IndexSnapshot snap,
                       urr::BuildIndexSnapshot(world->network, ch));
  return urr::SaveIndexSnapshot(snap, path);
}

Result<RunResult> RunWorkload(const RunOptions& opt) {
  if (opt.workload == "stream_city") return RunStream(opt);
  if (opt.workload == "serve_open_loop") return RunServe(opt);
  return Status::InvalidArgument("unknown workload '" + opt.workload + "'");
}

}  // namespace perfbench
