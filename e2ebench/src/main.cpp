// hspmv_e2e: the end-to-end benchmark driver.
//
//   hspmv_e2e --workload <samg-cg|server-hmep> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-out <file.json>]
//             [--git-head <sha>]
//
// Generates the workload's inputs in-process from the in-repo generators
// and --seed, runs it through the public API for --seconds, checks every
// result, and prints a table of metrics (name, value, unit, sample
// count) followed by one RESULT line. --trace 1 runs the same workload
// with spans recorded around the benchmark's calls into each layer,
// derives the per-layer ledger from them, and writes the spans as Chrome
// trace-event JSON to --trace-out.
//
// Every workload reports the same contract keys (see the alias table
// below), so one set of end-to-end metrics gates all of them. The reason
// for each workload is recorded in BENCHMARK.json.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common.hpp"
#include "layers.hpp"
#include "report.hpp"
#include "trace.hpp"

namespace {

using namespace e2e;

struct Workload {
  const char* name;
  void (*run)(const Args&, Report&, Tracer&);
  /// contract key -> this workload's metric it reports.
  std::vector<std::pair<const char*, const char*>> aliases;
};

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"samg-cg",
       run_samg_cg,
       {{"job_s", "solve_s.best"},
        {"latency_ms.p50", "apply_ms.p50.best"},
        {"light_latency_ms.p50", "dot_ms.p50.best"}}},
      {"server-hmep",
       run_server_hmep,
       {{"job_s", "burst_s.best"},
        {"latency_ms.p50", "latency_high_ms.p50.best"},
        {"light_latency_ms.p50", "latency_low_ms.p50.best"}}},
  };
  return all;
}

[[noreturn]] void usage(const std::string& message) {
  std::fprintf(stderr,
               "hspmv_e2e: %s\nusage: hspmv_e2e --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <file>] "
               "[--git-head <sha>]\n",
               message.c_str());
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string value = argv[++i];
    try {
      if (key == "--workload") {
        args.workload = value;
      } else if (key == "--seed") {
        args.seed = std::stoull(value);
      } else if (key == "--seconds") {
        args.seconds = std::stod(value);
      } else if (key == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else if (key == "--trace-out") {
        args.trace_out = value;
      } else if (key == "--git-head") {
        args.git_head = value;
      } else {
        usage("unknown option " + key);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + key + ": " + value);
    }
  }
  if (args.seconds <= 0.0) usage("--seconds must be positive");
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  const Workload* workload = nullptr;
  for (const Workload& w : workloads()) {
    if (args.workload == w.name) workload = &w;
  }
  if (workload == nullptr) usage("unknown workload '" + args.workload + "'");

  Report report;
  report.note(std::string("workload ") + workload->name);
  report.note("git HEAD " + args.git_head + " | nproc " +
              std::to_string(std::thread::hardware_concurrency()) +
              " | LLC " + std::to_string(llc_bytes() >> 20) + " MiB | seed " +
              std::to_string(args.seed) + " | " +
              fmt(args.seconds) + " s | trace " +
              (args.trace ? "on" : "off"));
  Tracer tracer(args.trace);
  try {
    workload->run(args, report, tracer);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hspmv_e2e: %s failed: %s\n", workload->name,
                 e.what());
    return 1;
  }

  report.add("peak_rss_mb", "MB", peak_rss_mb(), 1, "getrusage ru_maxrss");
  report.add("error_rate", "share",
             report.attempted() > 0
                 ? static_cast<double>(report.failed()) /
                       static_cast<double>(report.attempted())
                 : 1.0,
             report.attempted(), "failed / attempted operations");
  for (const auto& [key, source] : workload->aliases) {
    const auto& metrics = report.metrics();
    const auto it = std::find_if(
        metrics.begin(), metrics.end(),
        [source = source](const Report::Metric& m) { return m.name == source; });
    if (it == metrics.end()) continue;
    const Report::Metric m = *it;  // copy: add() may reallocate
    report.add(key, m.unit, m.value, m.samples, std::string("= ") + source);
  }
  report.print_table(stdout);
  if (args.trace && !args.trace_out.empty()) {
    if (!tracer.write_chrome_json(args.trace_out)) {
      std::fprintf(stderr, "hspmv_e2e: cannot write %s\n",
                   args.trace_out.c_str());
      return 1;
    }
    std::printf("# trace: %zu spans -> %s\n", tracer.spans().size(),
                args.trace_out.c_str());
  }
  report.print_result_line(stdout);
  return 0;
}
