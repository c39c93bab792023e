#include "tools/cli.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>

#include "common/parse.h"

namespace urr::cli {

namespace {

Status SetValue(const Flag& flag, const std::string& value) {
  const FlagTarget& target = flag.target;
  if (auto* s = std::get_if<std::string*>(&target)) {
    **s = value;
  } else if (auto* d = std::get_if<double*>(&target)) {
    URR_ASSIGN_OR_RETURN(**d, ParseDouble(value, flag.name));
  } else if (auto* u = std::get_if<uint64_t*>(&target)) {
    URR_ASSIGN_OR_RETURN(**u, ParseUint(value, flag.name));
  } else if (auto* n = std::get_if<int*>(&target)) {
    URR_ASSIGN_OR_RETURN(const int64_t v, ParseInt(value, flag.name));
    if (v < std::numeric_limits<int>::min() ||
        v > std::numeric_limits<int>::max()) {
      return Status::InvalidArgument("bad " + flag.name + ": '" + value +
                                     "' is out of range");
    }
    **n = static_cast<int>(v);
  }
  return Status::OK();
}

}  // namespace

Result<bool> ParseFlags(int argc, char** argv, const Flags& flags,
                        std::vector<std::string>* words) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") return true;
    const auto flag = std::find_if(flags.begin(), flags.end(),
                                   [&](const Flag& f) { return f.name == arg; });
    if (flag == flags.end()) {
      if (words == nullptr || (!arg.empty() && arg[0] == '-')) {
        return Status::InvalidArgument("unknown flag: " + arg);
      }
      words->push_back(arg);
    } else if (bool* const* b = std::get_if<bool*>(&flag->target)) {
      **b = true;
    } else if (i + 1 >= argc) {
      return Status::InvalidArgument(arg + " needs a value");
    } else {
      URR_RETURN_NOT_OK(SetValue(*flag, argv[++i]));
    }
  }
  return false;
}

int Main(int argc, char** argv, const std::string& usage, const Flags& flags,
         const std::function<Status()>& run, const WordsCheck& check) {
  std::vector<std::string> words;
  const Result<bool> help =
      ParseFlags(argc, argv, flags, check ? &words : nullptr);
  Status st = help.status();
  if (st.ok() && !*help && check) st = check(words);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    std::printf("%s", usage.c_str());
    return 2;
  }
  if (*help) {
    std::printf("%s", usage.c_str());
    return 0;
  }
  st = run();
  if (!st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    return 1;
  }
  return 0;
}

Status WriteFile(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IOError("cannot open " + path);
  const size_t written = std::fwrite(content.data(), 1, content.size(), f);
  const bool flushed = std::fflush(f) == 0;
  const bool closed = std::fclose(f) == 0;
  if (written != content.size() || !flushed || !closed) {
    return Status::IOError("cannot write " + path);
  }
  return Status::OK();
}

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);
  std::string content{std::istreambuf_iterator<char>(in),
                      std::istreambuf_iterator<char>()};
  if (in.bad()) return Status::IOError("cannot read " + path);
  return content;
}

Result<CityKind> ParseCity(const std::string& name) {
  if (name == "nyc") return CityKind::kNycLike;
  if (name == "chicago") return CityKind::kChicagoLike;
  if (name == "grid") return CityKind::kGrid;
  return Status::InvalidArgument("unknown --city " + name +
                                 " (expected nyc|chicago|grid)");
}

ScenarioOptions::ScenarioOptions() {
  world.city_nodes = 4000;
  world.num_riders = 300;
  world.num_vehicles = 60;
  engine.window = 30;
}

Flags ScenarioFlags(ScenarioOptions* o) {
  ExperimentConfig& w = o->world;
  FaultPlanOptions& f = o->faults;
  EngineConfig& e = o->engine;
  return {
      {"--city", &o->city},
      {"--nodes", &w.city_nodes},
      {"--grid-width", &w.grid_width},
      {"--grid-height", &w.grid_height},
      {"--quantize", &w.quantize},
      {"--riders", &w.num_riders},
      {"--vehicles", &w.num_vehicles},
      {"--capacity", &w.capacity},
      {"--deadline-min", &w.rt_min_minutes},
      {"--deadline-max", &w.rt_max_minutes},
      {"--oracle", &w.oracle},
      {"--index", &w.index_snapshot},
      {"--seed", &w.seed},
      {"--threads", &w.num_threads},
      {"--arrival-rate", &o->workload.arrival_rate},
      {"--cancel-fraction", &o->workload.cancel_fraction},
      {"--cancel-delay", &o->workload.cancel_delay_mean},
      {"--breakdown-fraction", &f.breakdown_fraction},
      {"--no-show-fraction", &f.no_show_fraction},
      {"--edge-faults", &f.num_edge_faults},
      {"--closure-fraction", &f.closure_fraction},
      {"--slowdown-factor", &f.slowdown_factor},
      {"--fault-duration", &f.edge_fault_mean_duration},
      {"--fault-seed", &o->fault_seed},
      {"--window", &e.window},
      {"--solver", &o->solver},
      {"--max-queue", &e.max_queue},
      {"--max-redispatch", &e.max_redispatch},
      {"--redispatch-backoff", &e.redispatch_backoff},
      {"--validate-invariants", &e.validate_invariants},
  };
}

const char kScenarioUsage[] = R"(world (urr_engine and urr_server build the identical scenario):
  --city nyc|chicago|grid --nodes N
  --grid-width W --grid-height H --quantize Q   grid preset dimensions and
                          edge-cost quantum (matches urr_index build; the
                          golden fixture's recipe matches
                          tests/data/golden.urrx exactly)
  --riders M --vehicles N --capacity C
  --deadline-min MIN --deadline-max MIN   pickup deadline range (minutes)
  --oracle dijkstra|ch|caching|hl         distance oracle stack
  --index FILE            load the CH + hub labels from a .urrx snapshot
                          (build one with urr_index; must match the world's
                          network — queries are bitwise identical to a
                          fresh build, checkpoints record its checksum)
  --seed S --threads T    (solutions are identical at any thread count)

streaming workload (recorded; urr_server clients replay or ignore it):
  --arrival-rate R        mean rider arrivals per second (Poisson)
  --cancel-fraction F     share of riders that later request cancellation
  --cancel-delay S        mean seconds from arrival to that request

fault injection (seeded and replayable; all defaults off):
  --breakdown-fraction F  share of vehicles that break down mid-run
  --no-show-fraction F    share of riders absent when their pickup arrives
  --edge-faults N         number of road-edge disruption events
  --closure-fraction F    share of edge faults that fully close the edge
  --slowdown-factor X     cost multiplier of the non-closure faults
  --fault-duration S      mean seconds until a disrupted edge restores
  --fault-seed S          fault-plan RNG seed (0 = derived from --seed)

engine:
  --window W              micro-batch window in seconds (0 = dispatch each
                          arrival immediately, OnlineDispatcher-equivalent)
  --solver cf|eg|ba|gbs-eg|gbs-ba   approach solving each window
  --max-queue Q           reject arrivals beyond Q queued riders (0 = off;
                          urr_server answers them with a 429)
  --max-redispatch K      retry budget for fault-displaced riders
  --redispatch-backoff S  base retry backoff seconds (doubles per attempt,
                          capped by the rider's remaining pickup slack)
  --validate-invariants   run the full live-state check every window
)";

Result<std::unique_ptr<Scenario>> BuildScenario(const ScenarioOptions& opt) {
  auto s = std::make_unique<Scenario>();
  EngineConfig& ecfg = s->engine;
  ecfg = opt.engine;
  if (!ParseWindowSolver(opt.solver, &ecfg.solver)) {
    return Status::InvalidArgument("unknown --solver " + opt.solver);
  }
  if (ecfg.window < 0 || opt.workload.arrival_rate < 0) {
    return Status::InvalidArgument("--window/--arrival-rate must be >= 0");
  }

  ExperimentConfig cfg = opt.world;
  URR_ASSIGN_OR_RETURN(cfg.city, ParseCity(opt.city));
  cfg.num_social_users = std::max(500, cfg.city_nodes / 2);
  cfg.num_trip_records = std::max(2000, cfg.num_riders * 3);
  URR_ASSIGN_OR_RETURN(s->world, BuildWorld(cfg));

  s->workload =
      MakeStreamingWorkload(s->world->instance, opt.workload, &s->world->rng);
  const FaultPlanOptions& f = opt.faults;
  if (f.breakdown_fraction > 0 || f.no_show_fraction > 0 ||
      f.num_edge_faults > 0) {
    // A dedicated seed keeps the fault plan independent of how much
    // entropy world/workload generation consumed.
    Rng fault_rng(opt.fault_seed != 0 ? opt.fault_seed
                                      : cfg.seed ^ 0x9e3779b97f4a7c15ULL);
    s->workload.faults = MakeFaultPlan(s->workload, f, &fault_rng);
  }

  s->model = UtilityModel(&s->workload.instance,
                          UtilityParams{cfg.alpha, cfg.beta});
  s->ctx = s->world->Context();
  s->ctx.model = &s->model;

  ecfg.seed = cfg.seed;
  ecfg.gbs = cfg.gbs;
  ecfg.index_snapshot_path = cfg.index_snapshot;
  ecfg.index_snapshot_checksum = s->world->index_checksum;
  if (ecfg.solver == WindowSolver::kGbsEg ||
      ecfg.solver == WindowSolver::kGbsBa) {
    URR_ASSIGN_OR_RETURN(ecfg.gbs_preprocess, s->world->GbsPreprocessing());
  }
  return s;
}

}  // namespace urr::cli
