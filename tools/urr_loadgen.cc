// urr_loadgen: open-loop load generator and replay driver for urr_server.
//
// Modes:
//   --mode open    (default) fires submit_rider requests on a Poisson or
//                  two-peak arrival schedule over N connections against a
//                  --steady-clock server, and reports end-to-end latency
//                  percentiles (measured from the scheduled instant, so
//                  server-side queueing is not silently absorbed), goodput
//                  and the admission-control rejection rate.
//   --mode replay  fetches the server's recorded workload and drives every
//                  arrival/cancellation at its recorded virtual time over
//                  one connection. Against a virtual-clock server this
//                  reproduces the batch engine's event log byte for byte.
//
// Examples:
//   urr_loadgen --port $(cat /tmp/port) --rate 200 --duration 5
//               --connections 8 --json
//   urr_loadgen --port $(cat /tmp/port) --mode replay --shutdown
#include <cstdio>
#include <string>

#include "server/loadgen.h"
#include "tools/cli.h"

namespace urr {
namespace {

/// The flags write straight into the library's option structs, whose
/// defaults are the tool's.
struct Options {
  Endpoint endpoint;
  std::string mode = "open";  // open | replay
  LoadGenOptions open_loop;
  int rider_offset = 0;
  int replay_limit = 0;   // replay only the first N schedule entries
  bool shutdown = false;  // send {"op":"shutdown"} when done
  bool json = false;
};

const char kUsage[] = R"(urr_loadgen - open-loop load generator for urr_server

target:
  --port P                TCP 127.0.0.1:P
  --socket PATH           or a unix-domain socket

mode:
  --mode open|replay      open loop (steady-clock server) or recorded-
                          workload replay (virtual-clock server)

open loop:
  --connections N         parallel connections (default 4)
  --rate R                mean requests per second (default 100)
  --profile const|peak    homogeneous Poisson or two-peak day profile
  --duration S            schedule length in seconds (default 5)
  --cancel-fraction F     also cancel this share of riders shortly after
  --rider-offset K        skip the first K riders of the server's universe
                          (disjoint phases against one server)
  --seed S

replay:
  --replay-limit N        send only the first N schedule entries (crash-
                          recovery harness: prefix, kill, full re-replay)

resilience (both modes; requests carry idempotent req_ids, so retries
after ambiguous failures are deduplicated server-side):
  --timeout S             per-request socket timeout (default 10)
  --max-retries K         attempts per request through backoff+jitter
                          reconnects (default 4)

common:
  --shutdown              send {"op":"shutdown"} after the run
  --json                  print the report as one JSON object
)";

cli::Flags LoadgenFlags(Options* opt) {
  LoadGenOptions& l = opt->open_loop;
  return {
      {"--port", &opt->endpoint.port},
      {"--socket", &opt->endpoint.unix_path},
      {"--mode", &opt->mode},
      {"--connections", &l.connections},
      {"--rate", &l.rate},
      {"--profile", &l.profile},
      {"--duration", &l.duration},
      {"--cancel-fraction", &l.cancel_fraction},
      {"--seed", &l.seed},
      {"--rider-offset", &opt->rider_offset},
      {"--replay-limit", &opt->replay_limit},
      {"--timeout", &l.retry.request_timeout},
      {"--max-retries", &l.retry.max_attempts},
      {"--shutdown", &opt->shutdown},
      {"--json", &opt->json},
  };
}

Status Run(const Options& opt) {
  const Endpoint& endpoint = opt.endpoint;
  LoadGenReport report;
  if (opt.mode == "replay") {
    URR_ASSIGN_OR_RETURN(report,
                         RunReplay(endpoint, opt.shutdown, opt.replay_limit));
  } else if (opt.mode == "open") {
    LoadGenOptions lopt = opt.open_loop;
    lopt.rider_offset = opt.rider_offset;
    URR_ASSIGN_OR_RETURN(report, RunOpenLoop(endpoint, lopt));
    if (opt.shutdown) {
      URR_ASSIGN_OR_RETURN(ClientConnection conn,
                           ClientConnection::Connect(endpoint));
      URR_ASSIGN_OR_RETURN(JsonValue resp,
                           conn.Call("{\"op\":\"shutdown\"}"));
      if (resp.GetInt("code", 0) != 200) {
        return Status::IOError("shutdown request failed");
      }
    }
  } else {
    return Status::InvalidArgument("unknown --mode " + opt.mode);
  }
  if (opt.json) {
    std::printf("%s\n", report.ToJson().c_str());
  } else {
    std::printf(
        "sent %lld | ok %lld (queued %lld, assigned %lld, infeasible %lld) | "
        "429 %lld | errors %lld\n",
        static_cast<long long>(report.sent), static_cast<long long>(report.ok),
        static_cast<long long>(report.queued),
        static_cast<long long>(report.assigned),
        static_cast<long long>(report.rejected_infeasible),
        static_cast<long long>(report.rejected_admission),
        static_cast<long long>(report.errors));
    std::printf(
        "served latency p50 %.1fms p95 %.1fms p99 %.1fms max %.1fms | "
        "shed p99 %.1fms | goodput %.1f/s | rejection %.1f%% | %.2fs "
        "elapsed\n",
        report.p50 * 1e3, report.p95 * 1e3, report.p99 * 1e3,
        report.max * 1e3, report.shed_p99 * 1e3, report.goodput,
        report.rejection_rate * 100, report.elapsed);
    if (report.reconnects > 0 || report.retries > 0) {
      std::printf("reconnects %lld | retries %lld | %.2fs in gaps\n",
                  static_cast<long long>(report.reconnects),
                  static_cast<long long>(report.retries),
                  report.gap_seconds);
    }
  }
  // Non-zero exit on transport errors so scripts and CI catch them.
  return report.errors == 0
             ? Status::OK()
             : Status::Internal(std::to_string(report.errors) +
                                " request(s) failed");
}

}  // namespace
}  // namespace urr

int main(int argc, char** argv) {
  urr::Options opt;
  return urr::cli::Main(argc, argv, urr::kUsage, urr::LoadgenFlags(&opt),
                        [&] { return urr::Run(opt); });
}
