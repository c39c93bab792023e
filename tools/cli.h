// The command-line front end shared by the urr tools: one flag parser that
// reads numbers as whole tokens, one main() wrapper with the tools' exit
// codes, checked whole-file I/O, and the streaming scenario (world,
// recorded workload, engine knobs) that urr_engine and urr_server both
// build from the same flags, so their event logs can be compared byte for
// byte.
#ifndef URR_TOOLS_CLI_H_
#define URR_TOOLS_CLI_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "engine/engine.h"
#include "exp/harness.h"

namespace urr::cli {

/// Where a flag's value goes; the pointee type selects the parse. A bool
/// flag takes no value and sets its target. Numbers must be whole tokens:
/// "3O", "12x", "", out-of-range values and a signed uint64 are usage
/// errors naming the flag and the value.
using FlagTarget = std::variant<std::string*, bool*, int*, double*, uint64_t*>;

struct Flag {
  std::string name;  // e.g. "--window"
  FlagTarget target;
};
using Flags = std::vector<Flag>;

/// Parses argv[1..] into the flags' targets. Returns true when --help or -h
/// is reached. Arguments that are not flags and do not start with '-' are
/// appended to `words` when it is non-null; otherwise they are unknown
/// flags.
Result<bool> ParseFlags(int argc, char** argv, const Flags& flags,
                        std::vector<std::string>* words = nullptr);

/// Checks the bare words a tool takes (modes, file names) after parsing.
using WordsCheck = std::function<Status(const std::vector<std::string>&)>;

/// A whole tool: parses the flags, then runs `run`. Exit codes: 0 after a
/// successful run or --help (usage on stdout); 2 on a usage error, i.e. a
/// parse error or an error from `check` (message on stderr, usage on
/// stdout); 1 when `run` fails ("error: ..." on stderr). Without `check`
/// the tool takes no bare words.
int Main(int argc, char** argv, const std::string& usage, const Flags& flags,
         const std::function<Status()>& run, const WordsCheck& check = nullptr);

/// Writes `content` to `path`, creating or truncating it. A failed open,
/// write, flush or close is an IOError.
Status WriteFile(const std::string& path, const std::string& content);

/// Reads all of `path`.
Result<std::string> ReadFile(const std::string& path);

/// "nyc" | "chicago" | "grid".
Result<CityKind> ParseCity(const std::string& name);

/// The flags urr_engine and urr_server share. Most write straight into
/// the library configs; the constructor sets the tools' defaults where they
/// differ from the configs' own.
struct ScenarioOptions {
  ScenarioOptions();

  std::string city = "nyc";
  std::string solver = "eg";  // cf|eg|ba|gbs-eg|gbs-ba
  uint64_t fault_seed = 0;    // 0 = derived from --seed
  ExperimentConfig world;
  StreamingWorkloadOptions workload;
  FaultPlanOptions faults;    // all zero = no fault plan
  EngineConfig engine;
};

/// The scenario's flags, writing into `opt`.
Flags ScenarioFlags(ScenarioOptions* opt);

/// Usage text of the scenario's flags.
extern const char kScenarioUsage[];

/// A built scenario. Its members point at one another, so it lives on the
/// heap.
struct Scenario {
  std::unique_ptr<ExperimentWorld> world;
  StreamingWorkload workload;
  UtilityModel model{nullptr, {}};
  SolverContext ctx;
  EngineConfig engine;
};

/// Builds the world, the streaming workload with its fault plan, the
/// utility model, the solver context and the engine config.
Result<std::unique_ptr<Scenario>> BuildScenario(const ScenarioOptions& opt);

}  // namespace urr::cli

#endif  // URR_TOOLS_CLI_H_
