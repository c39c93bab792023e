// urr_perfbench: runs one benchmark workload and prints its metrics.
//
//   urr_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 --workdir DIR [--tiny] [--prepare]
//
// Prints a stamp line (host, build, seed) and then, as the last line, one
// JSON object {"correct","attempted","failed","metrics"}. --trace 1 also
// writes the spans and routing histograms to DIR/trace-NAME-N.json.
// --prepare only writes what the workload cold-starts from (a .urrx
// snapshot) and prints nothing on stdout. Exit codes: 0 ok, 1 a correctness
// gate failed, 2 bad arguments, 3 the run could not be carried out.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "common/json_writer.h"
#include "workloads.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: urr_perfbench --workload stream_city|serve_open_loop "
               "--seed N --seconds S --trace 0|1 --workdir DIR [--tiny] "
               "[--prepare]\n");
}

std::string Compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string StampJson(const perfbench::RunOptions& opt) {
  urr::JsonWriter w;
  w.BeginObject().Key("stamp").BeginObject();
  w.Key("workload").Value(opt.workload);
  w.Key("seed").Value(static_cast<int64_t>(opt.seed));
  w.Key("seconds").Value(opt.seconds);
  w.Key("trace").Value(opt.trace);
  w.Key("tiny").Value(opt.tiny);
  w.Key("hardware_concurrency")
      .Value(static_cast<int64_t>(std::thread::hardware_concurrency()));
  w.Key("build_type").Value(URR_PERFBENCH_BUILD_TYPE);
  w.Key("compiler").Value(Compiler());
  w.Key("git_describe").Value(URR_PERFBENCH_GIT);
  w.EndObject().EndObject();
  return w.str();
}

std::string ResultJson(const perfbench::RunResult& r) {
  urr::JsonWriter w;
  w.BeginObject();
  w.Key("correct").Value(r.correct);
  w.Key("attempted").Value(r.attempted);
  w.Key("failed").Value(r.failed);
  w.Key("metrics").BeginObject();
  for (const perfbench::Metric& m : r.metrics) {
    w.Key(m.name).BeginObject();
    w.Key("value").Value(m.value);
    w.Key("unit").Value(m.unit);
    w.EndObject();
  }
  w.EndObject().EndObject();
  return w.str();
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opt;
  bool prepare = false;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--tiny") {
      opt.tiny = true;
    } else if (flag == "--prepare") {
      prepare = true;
    } else if (flag == "--workload" && has_value) {
      opt.workload = argv[++i];
      have_workload = true;
    } else if (flag == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (flag == "--seconds" && has_value) {
      opt.seconds = std::atof(argv[++i]);
    } else if (flag == "--trace" && has_value) {
      opt.trace = std::string(argv[++i]) == "1";
    } else if (flag == "--workdir" && has_value) {
      opt.workdir = argv[++i];
    } else {
      Usage();
      return 2;
    }
  }
  bool known = false;
  for (const std::string& name : perfbench::WorkloadNames()) {
    known = known || name == opt.workload;
  }
  if (!have_workload || !known || opt.workdir.empty() || opt.seconds <= 0) {
    Usage();
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(opt.workdir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", opt.workdir.c_str(),
                 ec.message().c_str());
    return 3;
  }

  if (prepare) {
    const urr::Status st = perfbench::PrepareWorkload(opt);
    if (!st.ok()) {
      std::fprintf(stderr, "prepare failed: %s\n", st.ToString().c_str());
      return 3;
    }
    return 0;
  }

  std::printf("%s\n", StampJson(opt).c_str());
  std::fflush(stdout);
  urr::Result<perfbench::RunResult> result = perfbench::RunWorkload(opt);
  if (!result.ok()) {
    std::fprintf(stderr, "run failed: %s\n",
                 result.status().ToString().c_str());
    return 3;
  }
  for (const std::string& f : result->failures) {
    std::fprintf(stderr, "correctness gate failed: %s\n", f.c_str());
  }
  if (opt.trace) {
    const std::string path = opt.workdir + "/trace-" + opt.workload + "-" +
                             std::to_string(opt.seed) + ".json";
    std::ofstream out(path);
    out << "{\"run\":" << StampJson(opt) << ",\"result\":"
        << ResultJson(*result) << ",\"detail\":" << result->trace_json
        << "}\n";
    if (!out) std::fprintf(stderr, "could not write %s\n", path.c_str());
  }
  std::printf("%s\n", ResultJson(*result).c_str());
  return result->correct ? 0 : 1;
}
