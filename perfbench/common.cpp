#include <sys/resource.h>
#include <unistd.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <numeric>

#include "bench.hpp"

namespace perfbench {

void Metrics::set(const std::string& name, double value, const std::string& unit) {
  if (!values_.count(name)) order_.push_back(name);
  values_[name] = {value, unit};
}

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (pos - static_cast<double>(lo)) * (samples[hi] - samples[lo]);
}

double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

std::string compare_fields(const std::vector<cyclone::verify::GoldenField>& expected,
                           const std::vector<cyclone::verify::GoldenField>& actual) {
  if (expected.size() != actual.size()) {
    return "field count " + std::to_string(actual.size()) + " != " +
           std::to_string(expected.size());
  }
  for (size_t i = 0; i < expected.size(); ++i) {
    if (!(expected[i] == actual[i])) return "field '" + expected[i].name + "' differs";
  }
  return {};
}

std::string compare_to_golden(const cyclone::verify::GoldenSnapshot& golden, int member,
                              const std::vector<cyclone::verify::GoldenField>& fields) {
  if (fields.empty()) return "no fields to compare";
  for (const auto& field : fields) {
    cyclone::verify::GoldenField named = field;
    named.name = "m" + std::to_string(member) + "." + field.name;
    const auto it = std::find_if(golden.fields.begin(), golden.fields.end(),
                                 [&](const auto& g) { return g.name == named.name; });
    if (it == golden.fields.end()) return "golden has no field '" + named.name + "'";
    if (!(*it == named)) return "field '" + named.name + "' differs from golden";
  }
  return {};
}

std::string corpus_dir() { return PERFBENCH_CORPUS_DIR; }

long llc_bytes() {
#ifdef _SC_LEVEL3_CACHE_SIZE
  const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (l3 > 0) return l3;
#endif
#ifdef _SC_LEVEL2_CACHE_SIZE
  const long l2 = sysconf(_SC_LEVEL2_CACHE_SIZE);
  if (l2 > 0) return l2;
#endif
  return 0;
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned leaf = 0; leaf < 3; ++leaf) {
      __get_cpuid(0x80000002u + leaf, &regs[4 * leaf], &regs[4 * leaf + 1],
                  &regs[4 * leaf + 2], &regs[4 * leaf + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    s.erase(0, s.find_first_not_of(' '));
    return s;
  }
#endif
  return "unknown";
}

long peak_rss_bytes() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss * 1024L;
}

double stream_triad_gbps(size_t elems, int threads, int reps) {
  const auto n = static_cast<long>(elems);
  std::unique_ptr<double[]> a(new double[elems]);
  std::unique_ptr<double[]> b(new double[elems]);
  std::unique_ptr<double[]> c(new double[elems]);
  double* pa = a.get();
  double* pb = b.get();
  double* pc = c.get();
  // First touch with the same static partition the timed loop uses.
#pragma omp parallel for schedule(static) num_threads(threads)
  for (long i = 0; i < n; ++i) {
    pa[i] = 0.0;
    pb[i] = 1.0;
    pc[i] = 2.0;
  }
  const double s = 3.0;
  double best = 0;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
#pragma omp parallel for schedule(static) num_threads(threads)
    for (long i = 0; i < n; ++i) pa[i] = pb[i] + s * pc[i];
    const double t = seconds_since(t0);
    best = std::max(best, 3.0 * static_cast<double>(elems) * sizeof(double) / t / 1e9);
  }
  // Keep the result observable so the loop is not dropped.
  if (pa[n / 2] != 7.0) return 0.0;
  return best;
}

}  // namespace perfbench
