#include "corpus/scenarios.hpp"

#include <cstdlib>

#include "ensemble/ensemble.hpp"
#include "ensemble/service.hpp"
#include "fv3/driver.hpp"
#include "swe/driver.hpp"

namespace cyclone::corpus {

namespace {

/// How a corpus backend name maps onto the runtime: executor selection,
/// scheduler (lockstep vs thread-per-rank), rank count, fault injection.
struct BackendSpec {
  exec::RunOptions run;
  bool concurrent = false;
  bool chaos = false;
  int ranks = 6;
};

BackendSpec parse_backend_spec(const std::string& backend) {
  BackendSpec spec;
  if (backend == "interp") {
    spec.run.backend = exec::ExecBackend::Interpreter;
  } else if (backend == "tape") {
    spec.run.backend = exec::ExecBackend::Tape;
  } else if (backend == "openmp") {
    spec.run.backend = exec::ExecBackend::OpenMP;
    spec.run.num_threads = 2;
  } else if (backend == "jit") {
    spec.run.backend = exec::ExecBackend::Jit;
  } else if (backend == "concurrent6") {
    spec.concurrent = true;
    spec.run.backend = exec::ExecBackend::Tape;
  } else if (backend == "concurrent24") {
    spec.concurrent = true;
    spec.ranks = 24;
    spec.run.backend = exec::ExecBackend::Tape;
  } else if (backend == "chaos") {
    spec.concurrent = true;
    spec.chaos = true;
    spec.run.backend = exec::ExecBackend::Tape;
  } else {
    throw Error("unknown corpus backend '" + backend +
                "' (interp|tape|openmp|jit|concurrent6|concurrent24|chaos)");
  }
  return spec;
}

/// Deterministic per-scenario fault plan: every chaos run replays
/// bit-exactly from the scenario name.
comm::FaultPlan chaos_plan(const std::string& scenario) {
  comm::FaultPlan plan;
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : scenario) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  plan.seed = h;
  plan.drop_rate = 0.05;
  plan.duplicate_rate = 0.05;
  plan.reorder_rate = 0.05;
  plan.corrupt_rate = 0.05;
  return plan;
}

comm::RuntimeOptions chaos_runtime_options(const std::string& scenario) {
  comm::RuntimeOptions options;
  options.faults = chaos_plan(scenario);
  options.recovery.enabled = true;
  return options;
}

template <typename Model>
void advance(Model& model, const std::string& scenario, const BackendSpec& spec, int steps) {
  model.set_run_options(spec.run);
  if (spec.chaos) {
    model.set_runtime_options(chaos_runtime_options(scenario));
    const comm::RunReport report = model.run_resilient(steps);
    CY_REQUIRE_MSG(report.ok, "chaos run of '" << scenario << "' failed: " << report.failure);
    CY_REQUIRE_MSG(report.steps_completed == steps,
                   "chaos run of '" << scenario << "' completed " << report.steps_completed
                                    << "/" << steps << " steps");
    return;
  }
  if (spec.concurrent) model.set_exec_mode(Model::ExecMode::Concurrent);
  for (int s = 0; s < steps; ++s) model.step();
}

/// Run one committed solo scenario on a corpus backend.
template <typename Model>
verify::ScenarioResult run_scenario(const std::string& scenario, const typename Model::Config& cfg,
                                    const std::string& ic, int steps,
                                    const std::string& backend) {
  const BackendSpec spec = parse_backend_spec(backend);
  Model model(cfg, spec.ranks);
  model.init(ic);
  advance(model, scenario, spec, steps);
  return verify::ScenarioResult{model.assemble()};
}

/// Fixed perturbation seed of the committed ensemble scenarios: the goldens
/// pin the whole (seed, member) -> IC-perturbation -> integration chain.
constexpr uint64_t kEnsembleCorpusSeed = 0x5EEDC0DEull;

/// Run one committed ensemble scenario on a corpus backend: a batched
/// EnsembleRunner under the lockstep schedulers, the per-member concurrent
/// runtime at 6 or 24 ranks (the 24-rank run must reproduce the 6-rank
/// golden — the decomposition-invariance pin), or the fault-injected
/// resilient runtime. Member k's fields are recorded as "m<k>.<name>" so one
/// golden snapshot pins every member.
template <typename Model>
verify::ScenarioResult run_ensemble_scenario(const std::string& scenario,
                                             const typename Model::Config& cfg,
                                             const std::string& ic, int members, int steps,
                                             const std::string& backend) {
  const BackendSpec spec = parse_backend_spec(backend);
  ensemble::EnsembleOptions opts;
  opts.members = ensemble::default_members(kEnsembleCorpusSeed, members);
  opts.num_ranks = spec.ranks;
  opts.run = spec.run;
  if (spec.concurrent) opts.scheduler = ensemble::EnsembleOptions::Scheduler::Concurrent;
  if (spec.chaos) opts.runtime = chaos_runtime_options(scenario);
  ensemble::EnsembleRunner<Model> runner(cfg, std::move(opts), ic);
  if (spec.chaos) {
    const comm::RunReport report = runner.run_resilient(steps);
    CY_REQUIRE_MSG(report.ok,
                   "chaos ensemble run of '" << scenario << "' failed: " << report.failure);
  } else {
    runner.run(steps);
  }
  verify::ScenarioResult result;
  for (int m = 0; m < runner.members(); ++m) {
    for (verify::GoldenField& field : runner.member(m).assemble()) {
      field.name = "m" + std::to_string(m) + "." + field.name;
      result.fields.push_back(std::move(field));
    }
  }
  return result;
}

/// One registry entry of `Model`'s core on grid `grid`: a solo run named
/// "<core>_<grid>_<ic>_t<tracers>", or with `members` > 0 a batched
/// ensemble named "ens_<core>_<grid>_<ic>_m<members>".
template <typename Model>
verify::Scenario scenario(const typename Model::Config& cfg, const std::string& grid,
                          const std::string& ic, int steps, int members = 0) {
  verify::Scenario sc;
  sc.core = Model::core_name;
  sc.ic = ic;
  sc.grid = grid;
  sc.steps = steps;
  sc.tracers = cfg.ntracers;
  sc.name = sc.core + "_" + grid + "_" + ic;
  if (members > 0) {
    sc.name = "ens_" + sc.name + "_m" + std::to_string(members);
    sc.run = [sc_name = sc.name, cfg, ic, members, steps](const std::string& backend) {
      return run_ensemble_scenario<Model>(sc_name, cfg, ic, members, steps, backend);
    };
  } else {
    sc.name += "_t" + std::to_string(cfg.ntracers);
    sc.run = [sc_name = sc.name, cfg, ic, steps](const std::string& backend) {
      return run_scenario<Model>(sc_name, cfg, ic, steps, backend);
    };
  }
  return sc;
}

verify::Scenario swe_scenario(const std::string& ic, int npx, int ntracers, int steps,
                              int members = 0) {
  return scenario<swe::SweModel>(ensemble::standard_swe_config(npx, ntracers),
                                 "c" + std::to_string(npx), ic, steps, members);
}

verify::Scenario dycore_scenario(const std::string& ic, int npx, int npz, int ntracers,
                                 int steps, int members = 0) {
  return scenario<fv3::DistributedModel>(
      ensemble::standard_dycore_config(npx, npz, ntracers),
      "c" + std::to_string(npx) + "z" + std::to_string(npz), ic, steps, members);
}

}  // namespace

std::vector<verify::Scenario> standard_scenarios() {
  std::vector<verify::Scenario> registry;

  // SWE core: two grid sizes, three ICs, tracer counts spanning the paper's
  // Table 3 axis (including the 35-tracer production count).
  registry.push_back(swe_scenario("hill", 12, 1, 2));
  registry.push_back(swe_scenario("vortex", 12, 2, 2));
  registry.push_back(swe_scenario("jet", 12, 8, 2));
  registry.push_back(swe_scenario("hill", 12, 35, 1));
  registry.push_back(swe_scenario("vortex", 24, 1, 2));
  registry.push_back(swe_scenario("jet", 24, 2, 2));

  // Dycore: two horizontal and two vertical sizes, two ICs.
  registry.push_back(dycore_scenario("baro", 12, 8, 1, 2));
  registry.push_back(dycore_scenario("solid", 12, 8, 2, 2));
  registry.push_back(dycore_scenario("baro", 12, 8, 8, 1));
  registry.push_back(dycore_scenario("baro", 12, 4, 2, 2));
  registry.push_back(dycore_scenario("baro", 24, 8, 2, 1));
  registry.push_back(dycore_scenario("solid", 24, 8, 1, 1));

  // Batched ensembles of both cores (the forecast service's standard
  // configurations): member-prefixed goldens pin the perturbation streams
  // and the batched runtime, and the concurrent24 backend doubles as the
  // ensemble decomposition-invariance pin.
  registry.push_back(swe_scenario("hill", 12, 2, 2, /*members=*/4));
  registry.push_back(dycore_scenario("baro", 12, 4, 1, 2, /*members=*/4));

  return registry;
}

std::string default_corpus_dir() {
  if (const char* env = std::getenv("CYCLONE_CORPUS_DIR"); env != nullptr && *env != '\0') {
    return env;
  }
#ifdef CYCLONE_SOURCE_DIR
  return std::string(CYCLONE_SOURCE_DIR) + "/tests/corpus";
#else
  return "tests/corpus";
#endif
}

}  // namespace cyclone::corpus
