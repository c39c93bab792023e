// urr_dispatch: command-line batch dispatcher. Loads a road network (DIMACS
// files or a generated city), a trip workload (CSV or generated), builds a
// URR instance and solves it with the chosen approach, printing the
// paper-style summary and optionally dumping the schedules as CSV.
//
// Examples:
//   urr_dispatch --city nyc --nodes 10000 --riders 1000 --vehicles 200
//   urr_dispatch --network nyc.gr --coords nyc.co --trips trips.csv
//                --approach gbs-ba --out schedules.csv
#include <cstdio>
#include <memory>
#include <string>

#include "common/csv.h"
#include "common/env.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "common/table.h"
#include "graph/dimacs.h"
#include "graph/generators.h"
#include "routing/hub_labels.h"
#include "social/checkins.h"
#include "social/generators.h"
#include "spatial/st_index.h"
#include "tools/cli.h"
#include "trips/instance_builder.h"
#include "trips/io.h"
#include "trips/trip_generator.h"
#include "urr/eval_cache.h"
#include "urr/metrics.h"
#include "urr/urr.h"

namespace urr {
namespace {

struct Options {
  std::string network_path;  // DIMACS .gr
  std::string coords_path;   // DIMACS .co
  std::string city = "nyc";  // generated city preset
  int nodes = 6000;
  std::string trips_path;  // node-based trip CSV
  int riders = 500;
  int vehicles = 100;
  int capacity = 3;
  double alpha = 0.33;
  double beta = 0.33;
  double epsilon = 1.5;
  double deadline_min_minutes = 10;
  double deadline_max_minutes = 30;
  std::string approach = "ba";
  std::string oracle;  // "" = URR_ORACLE env (default "hl")
  uint64_t seed = 42;
  int threads = 0;  // 0 = URR_THREADS env, 1 = serial
  std::string out_path;
  bool json = false;  // machine-readable SolutionMetrics instead of the table
  bool st_index = false;        // --st-index (or URR_ST_INDEX=1)
};

const char kUsage[] = R"(urr_dispatch - utility-aware ridesharing batch dispatcher

network source (pick one):
  --network FILE.gr [--coords FILE.co]   load a DIMACS road network
  --city nyc|chicago --nodes N           generate a city-like network

workload source (pick one):
  --trips FILE.csv        node-based trip CSV (pickup_node, dropoff_node,
                          pickup_time, duration)
  (default)               generate a workload on the network

instance:
  --riders M --vehicles N --capacity C
  --alpha A --beta B      utility balance (Eq. 1)
  --epsilon E             flexible factor for drop-off deadlines
  --deadline-min MIN --deadline-max MIN   pickup deadline range (minutes)

solver:
  --approach cf|eg|ba|gbs-eg|gbs-ba|online
  --oracle dijkstra|ch|caching|hl   distance oracle stack (default: the
                          URR_ORACLE env var, then "hl" = hub labels with
                          batched evaluation; "caching" = CH + memo cache)
  --seed S
  --threads T             evaluation threads (0 = URR_THREADS env, 1 = serial;
                          the solution is identical for every T)
  --out FILE.csv          dump the resulting schedules
  --json                  print SolutionMetrics as one JSON object instead
                          of the human-readable tables
  --st-index              answer candidate retrieval from the incremental
                          spatio-temporal hash index instead of per-rider
                          reverse Dijkstra (also via URR_ST_INDEX=1; the
                          candidate sets and solution are identical)

)";

cli::Flags DispatchFlags(Options* opt) {
  return {
      {"--network", &opt->network_path},
      {"--coords", &opt->coords_path},
      {"--city", &opt->city},
      {"--nodes", &opt->nodes},
      {"--trips", &opt->trips_path},
      {"--riders", &opt->riders},
      {"--vehicles", &opt->vehicles},
      {"--capacity", &opt->capacity},
      {"--alpha", &opt->alpha},
      {"--beta", &opt->beta},
      {"--epsilon", &opt->epsilon},
      {"--deadline-min", &opt->deadline_min_minutes},
      {"--deadline-max", &opt->deadline_max_minutes},
      {"--approach", &opt->approach},
      {"--oracle", &opt->oracle},
      {"--seed", &opt->seed},
      {"--threads", &opt->threads},
      {"--out", &opt->out_path},
      {"--json", &opt->json},
      {"--st-index", &opt->st_index},
  };
}

/// Dumps schedules as CSV rows (vehicle, seq, rider, event, node, deadline).
Status DumpSchedules(const std::string& path, const UrrSolution& sol) {
  CsvTable table;
  table.header = {"vehicle", "position", "rider", "event", "node", "deadline"};
  for (size_t j = 0; j < sol.schedules.size(); ++j) {
    const TransferSequence& seq = sol.schedules[j];
    for (int u = 0; u < seq.num_stops(); ++u) {
      const Stop& s = seq.stop(u);
      table.rows.push_back(
          {std::to_string(j), std::to_string(u), std::to_string(s.rider),
           s.type == StopType::kPickup ? "pickup" : "dropoff",
           std::to_string(s.location), std::to_string(s.deadline)});
    }
  }
  return WriteCsvFile(path, table);
}

Status Run(const Options& opt) {
  Rng rng(opt.seed);
  // --- Network. -------------------------------------------------------------
  RoadNetwork network;
  if (!opt.network_path.empty()) {
    URR_ASSIGN_OR_RETURN(network,
                         LoadDimacsFiles(opt.network_path, opt.coords_path));
    std::printf("loaded %s: %d nodes / %lld edges\n", opt.network_path.c_str(),
                network.num_nodes(), static_cast<long long>(network.num_edges()));
  } else if (opt.city == "chicago") {
    URR_ASSIGN_OR_RETURN(network, GenerateChicagoLike(opt.nodes, &rng));
  } else if (opt.city == "nyc") {
    URR_ASSIGN_OR_RETURN(network, GenerateNycLike(opt.nodes, &rng));
  } else {
    return Status::InvalidArgument("unknown --city " + opt.city);
  }

  // --- Routing oracle. --------------------------------------------------------
  Stopwatch prep;
  const std::string oracle_name =
      opt.oracle.empty() ? OracleName() : opt.oracle;
  URR_ASSIGN_OR_RETURN(OracleKind oracle_kind, ParseOracleKind(oracle_name));
  URR_ASSIGN_OR_RETURN(OracleStack stack,
                       BuildOracleStack(network, oracle_kind));
  DistanceOracle& oracle = *stack.active;
  std::printf("%s oracle built in %.2fs\n", OracleKindName(oracle_kind),
              prep.ElapsedSeconds());

  // --- Social substrate. -------------------------------------------------------
  SocialGenOptions sopt;
  sopt.num_users = std::max(500, static_cast<int>(network.num_nodes() * 0.74));
  URR_ASSIGN_OR_RETURN(SocialGraph social, GeneratePowerLawFriends(sopt, &rng));
  URR_ASSIGN_OR_RETURN(CheckInMap checkins,
                       CheckInMap::Generate(network, sopt.num_users, 3, &rng));

  // --- Trips. -------------------------------------------------------------------
  TripRecords records;
  if (!opt.trips_path.empty()) {
    URR_ASSIGN_OR_RETURN(records,
                         ReadTripRecords(opt.trips_path, network.num_nodes()));
    std::printf("loaded %zu trip records\n", records.size());
  } else {
    TripGenOptions topt;
    topt.num_trips = std::max(2000, opt.riders * 3);
    URR_ASSIGN_OR_RETURN(records, GenerateTrips(network, topt, &rng));
  }

  // --- Instance. ------------------------------------------------------------------
  InstanceBuilder builder(&network, &social, &checkins, &oracle);
  InstanceOptions iopt;
  iopt.num_riders = opt.riders;
  iopt.num_vehicles = opt.vehicles;
  iopt.capacity = opt.capacity;
  iopt.epsilon = opt.epsilon;
  iopt.pickup_deadline_min = opt.deadline_min_minutes * 60;
  iopt.pickup_deadline_max = opt.deadline_max_minutes * 60;
  URR_ASSIGN_OR_RETURN(UrrInstance instance,
                       builder.BuildFromRecords(records, iopt, &rng));

  UtilityModel model(&instance, UtilityParams{opt.alpha, opt.beta});
  std::vector<NodeId> locations;
  for (const Vehicle& v : instance.vehicles) locations.push_back(v.location);
  VehicleIndex index(network, locations);
  SolverContext ctx;
  ctx.oracle = &oracle;
  ctx.model = &model;
  ctx.vehicle_index = &index;
  ctx.rng = &rng;
  ctx.euclid_speed = network.MaxSpeed();

  // --- Evaluation path: the (rider, vehicle, schedule-version) cache and
  // its counters. ----------------------------------------------------------
  EvalCache eval_cache;
  EvalCounters counters;
  ctx.eval_cache = &eval_cache;
  ctx.counters = &counters;

  // --- Candidate retrieval (identical sets on either path). -------------------
  std::unique_ptr<StIndex> st_index;
  RetrievalStats retrieval_stats;
  ctx.retrieval_stats = &retrieval_stats;
  if ((opt.st_index || GetEnvInt("URR_ST_INDEX", 0) != 0) &&
      network.has_coords()) {
    Result<StIndex> st = StIndex::Build(network);
    if (st.ok()) {
      st_index = std::make_unique<StIndex>(std::move(*st));
      ctx.st_index = st_index.get();
      ctx.st_confirm_oracle = &oracle;  // no overlay: the stack is clean
      std::printf("st-index retrieval enabled (slab %.0fs)\n",
                  st_index->params().slab_seconds);
    }
  }

  // --- Evaluation pool (results identical at any thread count). ----------------
  const int threads = opt.threads > 0 ? opt.threads : NumThreads();
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) {
    pool = std::make_unique<ThreadPool>(threads);
    AttachThreadPool(&ctx, pool.get());
    if (ctx.eval_pool() != nullptr) {
      std::printf("evaluation pool: %d threads\n", threads);
    }
  }

  // --- Solve. -------------------------------------------------------------------
  Stopwatch watch;
  UrrSolution sol = MakeEmptySolution(instance, &oracle);
  if (opt.approach == "cf") {
    sol = SolveCostFirst(instance, &ctx);
  } else if (opt.approach == "eg") {
    sol = SolveEfficientGreedy(instance, &ctx);
  } else if (opt.approach == "ba") {
    sol = SolveBilateral(instance, &ctx);
  } else if (opt.approach == "gbs-eg" || opt.approach == "gbs-ba") {
    GbsOptions gopt;
    gopt.base = opt.approach == "gbs-eg" ? GbsBase::kEfficientGreedy
                                         : GbsBase::kBilateral;
    URR_ASSIGN_OR_RETURN(sol, SolveGbs(instance, &ctx, gopt));
  } else if (opt.approach == "online") {
    OnlineDispatcher dispatcher(&instance, &ctx, OnlineObjective::kUtilityGain);
    std::vector<RiderId> order(instance.riders.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<RiderId>(i);
    sol = dispatcher.DispatchAll(order);
  } else {
    return Status::InvalidArgument("unknown --approach " + opt.approach);
  }
  const double seconds = watch.ElapsedSeconds();
  URR_RETURN_NOT_OK(sol.Validate(instance));

  SolutionMetrics metrics = ComputeMetrics(instance, model, sol);
  AttachEvalStats(ctx, &metrics);
  AttachRejectionReasons(instance, &ctx, sol, &metrics);
  if (opt.json) {
    // Machine-readable path: the JSON object is the last stdout line.
    std::printf("%s\n", MetricsJson(metrics).c_str());
  } else {
    TablePrinter summary({"approach", "overall utility", "travel cost (s)",
                          "riders served", "solve time (s)"});
    summary.AddRow({opt.approach, TablePrinter::Num(sol.TotalUtility(model), 3),
                    TablePrinter::Num(sol.TotalCost(), 0),
                    std::to_string(sol.NumAssigned()),
                    TablePrinter::Num(seconds, 3)});
    summary.Print();
    std::printf("%s", FormatMetrics(metrics).c_str());
    std::printf(
        "eval path: %lld kernel evals, cache %lld/%lld hit/miss, "
        "%lld pairs screened (%lld queries elided)\n",
        static_cast<long long>(metrics.kernel_evals),
        static_cast<long long>(metrics.eval_cache_hits),
        static_cast<long long>(metrics.eval_cache_misses),
        static_cast<long long>(metrics.screened_pairs),
        static_cast<long long>(metrics.elided_queries));
  }

  if (!opt.out_path.empty()) {
    URR_RETURN_NOT_OK(DumpSchedules(opt.out_path, sol));
    std::printf("schedules written to %s\n", opt.out_path.c_str());
  }
  return Status::OK();
}

}  // namespace
}  // namespace urr

int main(int argc, char** argv) {
  urr::Options opt;
  return urr::cli::Main(argc, argv, urr::kUsage, urr::DispatchFlags(&opt),
                        [&] { return urr::Run(opt); });
}
