// urr_server: the long-lived dispatch service. Builds the same city-scale
// world as urr_engine (network, geo-social substrate, instance, recorded
// workload), opens a live DispatchEngine session behind the framed JSON
// protocol (DESIGN.md §12) and serves SubmitRider / CancelRider /
// QueryStatus / Metrics / InjectFault / Shutdown requests from any number
// of concurrent connections.
//
// Under the default virtual clock, serving the recorded workload through
// the socket (urr_loadgen --mode replay) produces an event log
// byte-identical to `urr_engine` on the same flags — the smoke script and
// CI hold that differential.
//
// Examples:
//   urr_server --nodes 2000 --riders 200 --vehicles 40 --port 0
//              --port-file /tmp/port --log server_events.log
//   urr_server --index city.urrx --socket /tmp/urr.sock --steady-clock
//              --timescale 60 --max-queue 32
#include <cstdio>
#include <memory>
#include <string>

#include "server/server.h"
#include "tools/cli.h"

namespace urr {
namespace {

/// The scenario flags (shared with urr_engine, so batch and server runs
/// share a workload) plus urr_server's own; --arm-faults writes into
/// scenario.engine.
struct Options {
  cli::ScenarioOptions scenario;
  // Server; --port and --socket write into `server`.
  ServerConfig server;
  std::string port_file;     // write the resolved TCP port here
  int max_sessions = 64;
  bool steady_clock = false; // wall-clock time stamps instead of virtual
  // Crash safety; --timescale, --checkpoint-every and --dedup-window write
  // into `service`.
  ServiceConfig service;
  std::string journal_dir;   // write-ahead journal + checkpoints ("" = off)
  std::string recover_dir;   // recover from this journal dir, then serve
  bool no_journal_fsync = false;
  // Output.
  std::string log_path;      // final event log after shutdown
  std::string fingerprint_path;  // final SolutionFingerprint after shutdown
  bool json = false;         // final EngineMetrics JSON on stdout
};

const char kUsageTail[] = R"(  --arm-faults            install the disruption overlay even with no
                          recorded edge faults, so inject_fault requests
                          can disrupt edges at runtime

server:
  --port P                TCP on 127.0.0.1:P (0 = pick an ephemeral port,
                          -1 = TCP off)
  --socket PATH           also/instead listen on a unix-domain socket
  --port-file FILE        write the resolved TCP port to FILE (scripts)
  --max-sessions N        concurrent connections; excess connections wait
                          in the listen backlog (backpressure)
  --steady-clock          stamp requests with elapsed wall time instead of
                          requiring a "time" field (breaks replay identity)
  --timescale X           steady clock: simulated seconds per real second

crash safety (DESIGN.md #15):
  --journal DIR           write-ahead journal + periodic checkpoints in DIR;
                          every mutating request is durable before it is
                          applied, so a kill -9 loses nothing
  --recover DIR           recover from DIR (latest valid checkpoint + journal
                          suffix replay, torn tails truncated), then serve,
                          appending to the same journal
  --checkpoint-every N    journaled mutations between checkpoints (256)
  --dedup-window N        idempotency window: cached responses kept for
                          req_id dedup (65536)
  --no-journal-fsync      skip the per-record fdatasync (faster; an OS crash
                          may lose the newest records)

output:
  --log FILE              write the final deterministic event log to FILE
                          after graceful shutdown
  --fingerprint FILE      write the final SolutionFingerprint to FILE after
                          graceful shutdown (crash-recovery differentials)
  --json                  print the final EngineMetrics JSON to stdout

The server runs until a client sends {"op":"shutdown"} (or SIGTERM-free
environments: kill it; with --journal a killed server is recovered
byte-exactly by --recover, otherwise the log is only written on graceful
shutdown).
)";

cli::Flags ServerFlags(Options* opt) {
  EngineConfig& e = opt->scenario.engine;
  cli::Flags flags = cli::ScenarioFlags(&opt->scenario);
  flags.insert(flags.end(),
               {
                   {"--arm-faults", &e.arm_overlay},
                   {"--port", &opt->server.port},
                   {"--socket", &opt->server.unix_path},
                   {"--port-file", &opt->port_file},
                   {"--max-sessions", &opt->max_sessions},
                   {"--steady-clock", &opt->steady_clock},
                   {"--timescale", &opt->service.timescale},
                   {"--journal", &opt->journal_dir},
                   {"--recover", &opt->recover_dir},
                   {"--checkpoint-every", &opt->service.checkpoint_every},
                   {"--dedup-window", &opt->service.dedup_window},
                   {"--no-journal-fsync", &opt->no_journal_fsync},
                   {"--log", &opt->log_path},
                   {"--fingerprint", &opt->fingerprint_path},
                   {"--json", &opt->json},
               });
  return flags;
}

Status Run(const Options& opt) {
  URR_ASSIGN_OR_RETURN(std::unique_ptr<cli::Scenario> scenario,
                       cli::BuildScenario(opt.scenario));

  ServiceConfig scfg = opt.service;
  scfg.virtual_clock = !opt.steady_clock;
  if (!opt.journal_dir.empty() && !opt.recover_dir.empty() &&
      opt.journal_dir != opt.recover_dir) {
    return Status::InvalidArgument(
        "--journal and --recover name different directories");
  }
  scfg.journal_dir =
      opt.recover_dir.empty() ? opt.journal_dir : opt.recover_dir;
  scfg.recover = !opt.recover_dir.empty();
  scfg.journal_fsync = !opt.no_journal_fsync;
  AdmissionController admission(opt.max_sessions);
  DispatchService service(&scenario->workload, &scenario->ctx,
                          scenario->engine, scfg, &admission);
  URR_RETURN_NOT_OK(service.Start());
  if (scfg.recover) {
    std::fprintf(stderr, "recovered: %lld journaled mutation(s) total, %lld replayed past the checkpoint\n",
                 static_cast<long long>(service.journal_records()),
                 static_cast<long long>(service.recovered_replayed()));
  }

  DispatchServer server(&service, &admission, opt.server);
  URR_RETURN_NOT_OK(server.Start());
  if (server.port() > 0) {
    std::printf("listening on 127.0.0.1:%d\n", server.port());
  }
  if (!opt.server.unix_path.empty()) {
    std::printf("listening on %s\n", opt.server.unix_path.c_str());
  }
  if (!opt.port_file.empty()) {
    URR_RETURN_NOT_OK(
        cli::WriteFile(opt.port_file, std::to_string(server.port()) + "\n"));
  }
  std::fflush(stdout);

  server.Wait();          // returns once a shutdown request arrived
  URR_RETURN_NOT_OK(server.Stop());  // graceful drain + engine finish

  if (!opt.log_path.empty()) {
    URR_RETURN_NOT_OK(cli::WriteFile(opt.log_path, service.SerializedLog()));
    std::fprintf(stderr, "event log written to %s\n", opt.log_path.c_str());
  }
  if (!opt.fingerprint_path.empty()) {
    URR_RETURN_NOT_OK(cli::WriteFile(
        opt.fingerprint_path, service.engine().SolutionFingerprint() + "\n"));
    std::fprintf(stderr, "fingerprint written to %s\n",
                 opt.fingerprint_path.c_str());
  }
  if (opt.json) {
    std::printf("%s\n", service.MetricsJson().c_str());
  }
  return Status::OK();
}

}  // namespace
}  // namespace urr

int main(int argc, char** argv) {
  urr::Options opt;
  const std::string usage =
      "urr_server - long-lived utility-aware dispatch service\n\n" +
      std::string(urr::cli::kScenarioUsage) + urr::kUsageTail;
  return urr::cli::Main(argc, argv, usage, urr::ServerFlags(&opt),
                        [&] { return urr::Run(opt); });
}
