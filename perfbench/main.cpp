// Benchmark entry point: one workload per process.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir DIR] [--git-sha SHA] [--source-digest HEX]
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding every metric the run measured: the end-to-end ones (--trace 0) or
// the per-layer ones of the layers the workload exercises (--trace 1);
// perfbench/run.py orders them as BENCHMARK.json lists them. A full record
// with provenance and sample counts is written to
// <out-dir>/<workload>-s<seed>-t<trace>.json. Exit status 1 when a
// correctness check failed, 2 on a usage error.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "bench.hpp"
#include "core/exec/jit/compiler.hpp"

namespace perfbench {
namespace {

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <dycore_c24_r24|forecast_mix> "
               "--seed N --seconds S --trace 0|1 [--out-dir DIR] [--git-sha SHA] "
               "[--source-digest HEX]\n",
               why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        o.workload = value;
      } else if (arg == "--seed") {
        o.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        o.seconds = std::stod(value);
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        o.trace = value == "1";
      } else if (arg == "--out-dir") {
        o.out_dir = value;
      } else if (arg == "--git-sha") {
        o.git_sha = value;
      } else if (arg == "--source-digest") {
        o.source_digest = value;
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg + ": " + value);
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (!(o.seconds > 0)) usage("--seconds must be positive");
  return o;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string metrics_json(const Metrics& m) {
  std::string out = "{";
  for (const std::string& name : m.order()) {
    out += (out.size() > 1 ? ", " : "") + json_string(name) +
           ": {\"value\": " + number(m.value(name)) + ", \"unit\": " + json_string(m.unit(name)) +
           "}";
  }
  return out + "}";
}

int run(const Options& options) {
  std::filesystem::create_directories(options.out_dir);
  // Generated-kernel compiles write temporaries; keep them inside the
  // output directory.
  const std::string tmp = options.out_dir + "/tmp";
  std::filesystem::create_directories(tmp);
  setenv("TMPDIR", tmp.c_str(), 1);


  RunResult result;
  if (options.workload == "forecast_mix") {
    result = run_forecast_mix(options);
  } else if (options.workload == "dycore_c24_r24") {
    result = run_dycore(options);
  } else {
    usage("unknown workload " + options.workload);
  }

  if (options.trace) {
    const long llc = llc_bytes();
    result.metrics.set("host.llc_mb", static_cast<double>(llc) / 1e6, "MB");
    // Each triad array is at least 4x the last-level cache (420 MiB when
    // the cache size is unknown).
    const size_t array_bytes = std::max<size_t>(4 * static_cast<size_t>(llc), 420ul << 20);
    result.metrics.set("host.stream_gbps",
                       stream_triad_gbps(array_bytes / sizeof(double), options.threads, 5),
                       "GB/s");
  }

  // Full record: provenance, every metric, sample counts, failures.
  const std::string record = options.out_dir + "/" + options.workload + "-s" +
                             std::to_string(options.seed) + "-t" +
                             (options.trace ? "1" : "0") + ".json";
  {
    std::ofstream out(record);
    out << "{\"provenance\": {\"git_sha\": " << json_string(options.git_sha)
        << ", \"source_digest\": " << json_string(options.source_digest)
        << ", \"workload\": " << json_string(options.workload)
        << ", \"seed\": " << options.seed << ", \"seconds\": " << number(options.seconds)
        << ", \"trace\": " << (options.trace ? 1 : 0) << ", \"nproc\": " << options.nproc
        << ", \"omp_threads\": " << options.threads
        << ", \"total_threads\": " << options.total_threads
        << ", \"cpu_model\": " << json_string(cpu_model()) << ", \"llc_bytes\": " << llc_bytes()
        << ", \"jit_toolchain\": " << json_string(cyclone::exec::jit::toolchain_fingerprint())
        << ", \"jit_compiler\": " << json_string(cyclone::exec::jit::host_compiler());
    for (const auto& [k, v] : result.provenance) {
      out << ", " << json_string(k) << ": " << json_string(v);
    }
    out << "}, \"metrics\": " << metrics_json(result.metrics)
        << ", \"samples\": {";
    bool first = true;
    for (const auto& [k, n] : result.metrics.counts()) {
      out << (first ? "" : ", ") << json_string(k) << ": " << n;
      first = false;
    }
    out << "}, \"failures\": [";
    for (size_t i = 0; i < result.failures.size(); ++i) {
      out << (i ? ", " : "") << json_string(result.failures[i]);
    }
    out << "]}\n";
  }

  for (const auto& why : result.failures) std::fprintf(stderr, "CHECK FAILED: %s\n", why.c_str());
  const auto& counts = result.metrics.counts();
  for (const auto& name : result.metrics.order()) {
    const auto it = counts.find(name);
    std::fprintf(stderr, "  %-28s %-18s %-6s%s\n", name.c_str(),
                 number(result.metrics.value(name)).c_str(), result.metrics.unit(name).c_str(),
                 it == counts.end() ? "" : (" n=" + std::to_string(it->second)).c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, \"metrics\": %s}\n",
              result.correct ? "true" : "false", result.attempted, result.failed,
              metrics_json(result.metrics).c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options options = perfbench::parse(argc, argv);
  options.nproc = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  // Half the CPUs for the dycore: with every vCPU of a shared guest busy,
  // CPU steal makes the step time of a full-width team vary far more from
  // run to run than that of a half-width one. The service's small models
  // run on one thread: a team's barriers there wait on whichever vCPU the
  // host has descheduled, and per-thread heaps make peak RSS depend on
  // thread timing.
  options.threads = options.workload == "forecast_mix" ? 1 : std::max(1, options.nproc / 2);
  // forecast_mix adds its generator thread to the service's team.
  options.total_threads = options.threads + (options.workload == "forecast_mix" ? 1 : 0);
  if (options.total_threads > options.nproc) {
    std::fprintf(stderr, "perfbench: refusing %d threads on %d CPUs\n", options.total_threads,
                 options.nproc);
    return 2;
  }
  try {
    return perfbench::run(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
