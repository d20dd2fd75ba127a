// Dycore workload dycore_c24_r24: fv3::DistributedModel (c24, 24 ranks)
// under the lockstep scheduler on the JIT backend, starting from an empty
// private kernel cache. The untraced run times DistributedModel::step(); the
// traced run replays comm::run_lockstep_step from here with a span around
// every execute_state and run_halo_node call.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>

#include "bench.hpp"
#include "comm/runtime.hpp"
#include "core/exec/jit/cache.hpp"
#include "core/ir/expand.hpp"
#include "core/perf/model.hpp"
#include "fv3/driver.hpp"
#include "fv3/init/baroclinic.hpp"
#include "grid/cube_topology.hpp"

namespace perfbench {

namespace {

using cyclone::exec::jit::KernelCache;
using cyclone::fv3::DistributedModel;
using cyclone::verify::GoldenField;

constexpr int kNpx = 24;
constexpr int kRanks = 24;

std::vector<cyclone::comm::RankDomain> rank_domains(DistributedModel& model) {
  std::vector<cyclone::comm::RankDomain> ranks;
  for (int r = 0; r < model.num_ranks(); ++r) {
    ranks.push_back({&model.state(r).catalog(), model.state(r).domain()});
  }
  return ranks;
}

}  // namespace

std::vector<GoldenField> dycore_checksums(DistributedModel& model, int ntracers) {
  std::vector<cyclone::verify::RankView> views;
  for (int r = 0; r < model.num_ranks(); ++r) {
    const cyclone::grid::RankInfo info = model.partitioner().info(r);
    views.push_back({&model.state(r).catalog(), info.tile, info.i0, info.j0, info.ni, info.nj});
  }
  std::vector<GoldenField> out;
  for (const auto& name : cyclone::fv3::ModelState::prognostic_names(ntracers)) {
    out.push_back(cyclone::verify::assemble_field(name, cyclone::grid::kNumFaces,
                                                  model.partitioner().n(), views));
  }
  return out;
}

namespace {

/// Computed bytes (perf::unique_bytes, perfect reuse) of one execute_state
/// call, by state name and rank.
std::map<std::string, std::vector<double>> computed_bytes(
    const cyclone::ir::Program& program, const std::vector<cyclone::comm::RankDomain>& ranks) {
  std::map<std::string, std::vector<double>> bytes;
  for (const auto& state : program.states()) {
    std::vector<double>& per_rank = bytes[state.name];
    per_rank.assign(ranks.size(), 0.0);
    for (const auto& node : state.nodes) {
      if (node.kind != cyclone::ir::SNode::Kind::Stencil) continue;
      for (size_t r = 0; r < ranks.size(); ++r) {
        for (const auto& k : cyclone::ir::expand_node(node, program, ranks[r].dom, 1)) {
          per_rank[r] += cyclone::perf::unique_bytes(k);
        }
      }
    }
  }
  return bytes;
}

/// Removes a directory when it goes out of scope.
class RemoveOnExit {
 public:
  explicit RemoveOnExit(std::string path) : path_(std::move(path)) {}
  ~RemoveOnExit() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  RemoveOnExit(const RemoveOnExit&) = delete;
  RemoveOnExit& operator=(const RemoveOnExit&) = delete;

 private:
  std::string path_;
};

double field_working_set_mb(DistributedModel& model) {
  double bytes = 0;
  for (int r = 0; r < model.num_ranks(); ++r) {
    bytes += static_cast<double>(model.state(r).catalog().owned_bytes());
  }
  return bytes / 1e6;
}

struct SetupTimes {
  double total = 0, build = 0, init = 0, precompile = 0, first_step = 0;
};

/// Construct + initial condition + precompile + first step.
std::unique_ptr<DistributedModel> set_up(const cyclone::fv3::FvConfig& cfg,
                                         const cyclone::exec::RunOptions& run, SetupTimes& t) {
  const auto t0 = Clock::now();
  auto model = std::make_unique<DistributedModel>(cfg, kRanks);
  t.build = seconds_since(t0);
  model->set_run_options(run);
  const auto t1 = Clock::now();
  cyclone::fv3::init_baroclinic(*model);
  t.init = seconds_since(t1);
  const auto t2 = Clock::now();
  model->program().precompile();
  t.precompile = seconds_since(t2);
  const auto t3 = Clock::now();
  model->step();
  t.first_step = seconds_since(t3);
  t.total = seconds_since(t0);
  return model;
}

/// Step until `seconds` have passed and at least `min_samples` steps ran
/// (never past `cap_seconds`).
std::vector<double> timed_steps(DistributedModel& model, double seconds, long min_samples,
                                double cap_seconds) {
  std::vector<double> samples;
  const auto t0 = Clock::now();
  while (seconds_since(t0) < seconds ||
         (static_cast<long>(samples.size()) < min_samples && seconds_since(t0) < cap_seconds)) {
    const auto ts = Clock::now();
    model.step();
    samples.push_back(seconds_since(ts));
  }
  return samples;
}

}  // namespace

RunResult run_dycore(const Options& options) {
  RunResult result;
  cyclone::fv3::FvConfig cfg;  // 16 levels, 4 tracers, default splits
  cfg.npx = kNpx;

  cyclone::exec::RunOptions jit;
  jit.backend = cyclone::exec::ExecBackend::Jit;
  jit.num_threads = options.threads;
  cyclone::exec::RunOptions omp = jit;
  omp.backend = cyclone::exec::ExecBackend::OpenMP;

  // Empty private kernel cache inside the output directory. The
  // process-wide cache reads its directory once, on first use, which is
  // below.
  const std::string cache_dir = options.out_dir + "/jit-cold-" + std::to_string(getpid());
  std::filesystem::remove_all(cache_dir);
  const RemoveOnExit cold_cache(cache_dir);
  std::filesystem::create_directories(cache_dir);
  setenv("CYCLONE_JIT_CACHE_DIR", cache_dir.c_str(), 1);
  KernelCache& cache = KernelCache::global();
  if (cache.dir() != cache_dir) throw std::runtime_error("kernel cache already bound elsewhere");
  const cyclone::exec::jit::CacheStats jit0 = cache.stats();
  result.provenance["jit_cache"] = "cold (empty private dir)";

  // Reference: the OpenMP engine after one step.
  std::vector<GoldenField> reference;
  {
    DistributedModel ref(cfg, kRanks);
    ref.set_run_options(omp);
    cyclone::fv3::init_baroclinic(ref);
    ref.step();
    reference = dycore_checksums(ref, cfg.ntracers);
  }

  // One timed set-up: it compiles every kernel, so it cannot be repeated
  // in-process without timing a warm cache instead.
  SetupTimes setup;
  std::unique_ptr<DistributedModel> model = set_up(cfg, jit, setup);
  const std::string step1_diff =
      compare_fields(reference, dycore_checksums(*model, cfg.ntracers));
  if (!step1_diff.empty()) {
    result.fail("JIT step 1 differs from the OpenMP engine: " + step1_diff);
  }
  const double working_set_mb = field_working_set_mb(*model);
  std::fprintf(stderr, "set-up: %.3f s (build %.3f, init %.3f, precompile %.3f, first step %.3f)\n",
               setup.total, setup.build, setup.init, setup.precompile, setup.first_step);

  constexpr double kCapSeconds = 90;
  if (!options.trace) {
    const auto t0 = Clock::now();
    const std::vector<double> steps =
        timed_steps(*model, options.seconds, kMinTailSamples, kCapSeconds);
    const double wall = seconds_since(t0);
    result.attempted = static_cast<long>(steps.size());
    if (!model->diagnostics().finite()) result.fail("diagnostics not finite after timed steps");
    const auto n = static_cast<long>(steps.size());
    if (n < kMinTailSamples) result.fail("fewer than 100 steps: no p90");
    Metrics& m = result.metrics;
    m.set("setup_s", setup.total, "s");
    m.count("setup_s", 1);
    // One request of a dycore client is one step: latency is step time.
    for (const char* metric : {"step_s", "latency_s"}) {
      m.set(std::string(metric) + ".p50", quantile(steps, 0.5), "s");
      m.set(std::string(metric) + ".p90", quantile(steps, 0.9), "s");
      m.count(std::string(metric) + ".p50", n);
      m.count(std::string(metric) + ".p90", n);
    }
    m.set("requests_per_s", static_cast<double>(n) / wall, "1/s");
    m.set("member_steps_per_s", static_cast<double>(n) / wall, "1/s");
    m.set("peak_rss_mb", static_cast<double>(peak_rss_bytes()) / 1e6, "MB");
    const cyclone::exec::jit::CacheStats jit1 = cache.stats();
    std::fprintf(stderr, "jit: %ld compiles, %ld disk hits, %ld memory hits\n",
                 jit1.compiles - jit0.compiles, jit1.disk_hits - jit0.disk_hits,
                 jit1.mem_hits - jit0.mem_hits);
    return result;
  }

  // --- Traced run -----------------------------------------------------------
  // Untraced half: reference step time and final state.
  const std::vector<double> untraced = timed_steps(*model, options.seconds / 2, 3, kCapSeconds);
  const auto nsteps = static_cast<long>(untraced.size());
  const std::vector<GoldenField> untraced_final = dycore_checksums(*model, cfg.ntracers);
  model.reset();

  // Traced half: a fresh model taken through the same 1 + nsteps steps,
  // every layer call wrapped in a span.
  Trace trace;
  int span = trace.begin("build", "fv3", -1, -1);
  model = std::make_unique<DistributedModel>(cfg, kRanks);
  trace.end(span);
  model->set_run_options(jit);
  span = trace.begin("init", "fv3", -1, -1);
  cyclone::fv3::init_baroclinic(*model);
  trace.end(span);
  span = trace.begin("precompile", "jit", -1, -1);
  model->program().precompile();
  trace.end(span);

  const cyclone::ir::Program& program = model->program();
  std::vector<cyclone::comm::RankDomain> ranks = rank_domains(*model);
  const auto bytes = computed_bytes(program, ranks);
  const std::vector<int> order = program.flatten_execution_order();
  for (long step = 0; step <= nsteps; ++step) {
    if (step == 1) model->comm().reset_counters();  // step 0 is the untimed first step
    const int step_span = trace.begin("step", "fv3", -1, step);
    for (const int sidx : order) {
      const cyclone::ir::State& st = program.states()[static_cast<size_t>(sidx)];
      if (cyclone::comm::is_halo_only(st)) {
        for (const auto& node : st.nodes) {
          const int s = trace.begin(node.label, "comm", step_span, step);
          cyclone::comm::run_halo_node(model->halo_updater(), node, ranks, model->comm());
          trace.end(s);
        }
        continue;
      }
      for (size_t r = 0; r < ranks.size(); ++r) {
        const int s = trace.begin(st.name, "exec", step_span, step, static_cast<int>(r));
        program.execute_state(sidx, *ranks[r].catalog, ranks[r].dom);
        trace.end(s);
      }
    }
    trace.end(step_span);
  }
  const long messages = model->comm().total_messages();
  const long message_bytes = model->comm().total_bytes();
  const std::string diff = compare_fields(untraced_final, dycore_checksums(*model, cfg.ntracers));
  if (!diff.empty()) result.fail("traced final state differs from untraced: " + diff);
  if (!model->diagnostics().finite()) result.fail("diagnostics not finite after traced steps");
  result.attempted = 2 * nsteps;

  // Aggregate spans of the measured steps 1..nsteps.
  std::map<std::string, double> group_s;  // kernel time by compute state
  double kernel_s = 0, halo_s = 0, step_total = 0, kernel_bytes = 0;
  long launches = 0;
  std::vector<double> traced_steps;
  double build_s = 0, init_s = 0, precompile_s = 0;
  for (const Span& sp : trace.spans()) {
    const double d = sp.end - sp.start;
    if (sp.id < 0) {
      if (sp.name == "build") build_s = d;
      if (sp.name == "init") init_s = d;
      if (sp.name == "precompile") precompile_s = d;
      continue;
    }
    if (sp.id == 0) continue;
    if (sp.layer == "exec") {
      kernel_s += d;
      group_s[sp.name] += d;
      ++launches;
      kernel_bytes += bytes.at(sp.name)[static_cast<size_t>(sp.lane)];
    } else if (sp.layer == "comm") {
      halo_s += d;
    } else if (sp.name == "step") {
      step_total += d;
      traced_steps.push_back(d);
    }
  }
  const auto per_step = [&](double v) { return v / static_cast<double>(nsteps); };
  Metrics& m = result.metrics;
  m.set("exec.kernel_s", per_step(kernel_s), "s");
  for (const auto& [state, t] : group_s) m.set("exec." + state + "_s", per_step(t), "s");
  m.set("exec.launches", per_step(static_cast<double>(launches)), "count");
  m.set("exec.launch_us.mean", kernel_s / static_cast<double>(launches) * 1e6, "us");
  m.set("exec.gbps", kernel_bytes / kernel_s / 1e9, "GB/s");
  m.set("comm.halo_s", per_step(halo_s), "s");
  m.set("comm.halo_share", halo_s / step_total, "ratio");
  m.set("comm.messages", per_step(static_cast<double>(messages)), "count");
  m.set("comm.bytes", per_step(static_cast<double>(message_bytes)), "B");
  m.set("comm.halo_gbps", static_cast<double>(message_bytes) / halo_s / 1e9, "GB/s");
  m.set("fv3.build_s", build_s, "s");
  m.set("fv3.init_s", init_s, "s");
  m.set("fv3.step_s", per_step(step_total), "s");
  m.set("fv3.step_overhead_s", per_step(step_total - kernel_s - halo_s), "s");
  m.set("fv3.working_set_mb", working_set_mb, "MB");
  const cyclone::exec::jit::CacheStats jit1 = cache.stats();
  m.set("jit.compile_s", setup.precompile, "s");
  m.set("jit.compiles", static_cast<double>(jit1.compiles - jit0.compiles), "count");
  m.set("jit.disk_hits", static_cast<double>(jit1.disk_hits - jit0.disk_hits), "count");
  m.set("jit.mem_hits", static_cast<double>(jit1.mem_hits - jit0.mem_hits), "count");
  m.set("trace.overhead_ratio", quantile(traced_steps, 0.5) / quantile(untraced, 0.5), "ratio");
  m.set("trace.spans", static_cast<double>(trace.spans().size()), "count");
  m.count("fv3.step_s", nsteps);
  m.count("trace.overhead_ratio", nsteps);
  std::fprintf(stderr, "traced: %ld steps, precompile %.3f s\n", nsteps, precompile_s);

  const std::string stem = options.out_dir + "/" + options.workload + "-s" +
                           std::to_string(options.seed);
  trace.write_chrome_json(stem + ".trace.json");
  const std::string table = trace.layer_table();
  if (FILE* f = std::fopen((stem + ".layers.txt").c_str(), "w")) {
    std::fputs(table.c_str(), f);
    std::fclose(f);
  }
  std::fputs(table.c_str(), stderr);
  return result;
}

}  // namespace perfbench
