// Shared pieces of the benchmark program: options, metric records, sample
// statistics, the in-memory span recorder and the correctness gates.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/verify/corpus.hpp"

namespace cyclone::fv3 {
class DistributedModel;
}

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_out";
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
  int nproc = 1;    ///< online CPUs
  int threads = 1;  ///< OpenMP team size of the workload
  int total_threads = 0;  ///< team plus the workload's own client thread
};

/// Metrics of one run, by name, in insertion order of first use.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  /// Sample count behind a timing (written to the run record, not stdout).
  void count(const std::string& name, long n) { counts_[name] = n; }

  [[nodiscard]] const std::vector<std::string>& order() const { return order_; }
  [[nodiscard]] double value(const std::string& name) const { return values_.at(name).first; }
  [[nodiscard]] const std::string& unit(const std::string& name) const {
    return values_.at(name).second;
  }
  [[nodiscard]] const std::map<std::string, long>& counts() const { return counts_; }

 private:
  std::vector<std::string> order_;
  std::map<std::string, std::pair<double, std::string>> values_;
  std::map<std::string, long> counts_;
};

/// Linear-interpolated quantile (q in [0, 1]) of unsorted samples.
double quantile(std::vector<double> samples, double q);
double mean(const std::vector<double>& samples);

/// A p90 needs at least ten samples above it.
constexpr long kMinTailSamples = 100;

/// What a workload hands back to main().
struct RunResult {
  bool correct = true;
  std::vector<std::string> failures;  ///< one line per failed check
  long attempted = 0;
  long failed = 0;
  Metrics metrics;
  std::map<std::string, std::string> provenance;  ///< workload-specific additions

  void fail(const std::string& why) {
    correct = false;
    failures.push_back(why);
  }
};

// --- Tracing ------------------------------------------------------------------

/// One recorded interval. Spans nest through `parent` (index into the
/// recorder, -1 for a root); `id` is the step or request number the span
/// belongs to, `lane` the rank (or request slot) it ran for.
struct Span {
  std::string name;
  std::string layer;  ///< exec | comm | fv3 | jit | ensemble | service
  double start = 0;   ///< seconds since the recorder's epoch
  double end = 0;
  int parent = -1;
  long id = -1;
  int lane = 0;
};

class Trace {
 public:
  Trace() : epoch_(Clock::now()) {}

  /// Open a span now; returns its index. Close it with end().
  int begin(std::string name, std::string layer, int parent, long id, int lane = 0);
  void end(int index);
  /// Record a span whose interval is already known (seconds since epoch).
  int add(std::string name, std::string layer, double start, double end, int parent, long id,
          int lane = 0);

  [[nodiscard]] double now() const;
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Chrome trace-event JSON (chrome://tracing, Perfetto).
  void write_chrome_json(const std::string& path) const;
  /// Per-name aggregate: count, total and self seconds (self = duration
  /// minus the part covered by child spans), mean microseconds.
  [[nodiscard]] std::string layer_table() const;

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

// --- Correctness gates ----------------------------------------------------------

/// Fields of two runs must agree bit for bit (checksum and probe samples).
/// Returns an empty string when they do, else the first mismatch.
std::string compare_fields(const std::vector<cyclone::verify::GoldenField>& expected,
                           const std::vector<cyclone::verify::GoldenField>& actual);

/// Member `member`'s streamed fields must equal the golden's "m<member>.<f>"
/// records. Returns an empty string on a match.
std::string compare_to_golden(const cyclone::verify::GoldenSnapshot& golden, int member,
                              const std::vector<cyclone::verify::GoldenField>& fields);

/// Assembled, decomposition-invariant records of every dycore prognostic.
std::vector<cyclone::verify::GoldenField> dycore_checksums(cyclone::fv3::DistributedModel& model,
                                                           int ntracers);

std::string corpus_dir();

// --- Host ---------------------------------------------------------------------

/// Last-level cache size in bytes (0 when unknown).
long llc_bytes();
std::string cpu_model();
long peak_rss_bytes();

/// Triad a = b + s*c over three arrays of `elems` doubles each, with
/// `threads` OpenMP threads; best-of-`reps` bandwidth in GB/s (three arrays
/// counted, STREAM convention).
double stream_triad_gbps(size_t elems, int threads, int reps);

// --- Workloads ----------------------------------------------------------------

RunResult run_dycore(const Options& options);
RunResult run_forecast_mix(const Options& options);

}  // namespace perfbench
