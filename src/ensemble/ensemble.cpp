#include "ensemble/ensemble.hpp"

#include <algorithm>

#include "core/util/rng.hpp"

namespace cyclone::ensemble {

std::vector<MemberSpec> default_members(uint64_t seed, int count) {
  CY_REQUIRE_MSG(count >= 1, "ensemble needs at least one member");
  std::vector<MemberSpec> members;
  members.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) members.push_back(MemberSpec{seed, i});
  return members;
}

template <class Model>
EnsembleRunner<Model>::EnsembleRunner(const Config& config, EnsembleOptions options,
                                      const std::string& ic, std::shared_ptr<ir::Program> program)
    : config_(config),
      options_(std::move(options)),
      arena_(static_cast<int>(options_.members.size())) {
  CY_REQUIRE_MSG(!options_.members.empty(), "ensemble needs at least one member");
  const int n = members();
  auto placers = [this](int m) {
    return [this, m](int rank) { return arena_.placer(m, rank); };
  };
  models_.reserve(static_cast<size_t>(n));
  if (program) {
    models_.push_back(
        std::make_unique<Model>(config_, options_.num_ranks, std::move(program), placers(0)));
  } else {
    models_.push_back(std::make_unique<Model>(config_, options_.num_ranks,
                                              Model::Schedules::tuned(), placers(0)));
  }
  models_[0]->init(ic);
  for (int m = 1; m < n; ++m) models_.push_back(std::make_unique<Model>(*models_[0], placers(m)));
  for (int m = 0; m < n; ++m) {
    Model& model = *models_[static_cast<size_t>(m)];
    model.set_run_options(options_.run);
    comm::RuntimeOptions runtime = options_.runtime;
    runtime.faults.seed = Rng::mix(runtime.faults.seed, static_cast<uint64_t>(m));
    model.set_runtime_options(runtime);
    if (options_.scheduler == EnsembleOptions::Scheduler::Concurrent) {
      model.set_exec_mode(Model::ExecMode::Concurrent);
    }
    perturb_model(model, options_.members[static_cast<size_t>(m)], options_.amplitude);
  }
}

template <class Model>
void EnsembleRunner<Model>::step() {
  const int n = members();
  if (options_.scheduler == EnsembleOptions::Scheduler::Concurrent) {
    for (int m = 0; m < n; ++m) models_[static_cast<size_t>(m)]->step();
  } else {
    const int chunk = options_.run.member_batch > 0 ? options_.run.member_batch : n;
    std::vector<comm::LockstepMember> batch;
    for (int lo = 0; lo < n; lo += chunk) {
      batch.clear();
      for (int m = lo; m < std::min(lo + chunk, n); ++m) {
        batch.push_back(models_[static_cast<size_t>(m)]->lockstep_member());
      }
      comm::run_lockstep_step(batch);
    }
  }
  member_steps_ += n;
}

template <class Model>
void EnsembleRunner<Model>::run(int steps) {
  for (int s = 0; s < steps; ++s) step();
}

template <class Model>
comm::RunReport EnsembleRunner<Model>::run_resilient(int steps) {
  comm::RunReport aggregate;
  aggregate.steps_completed = steps;
  for (int m = 0; m < members(); ++m) {
    const comm::RunReport report = models_[static_cast<size_t>(m)]->run_resilient(steps);
    if (!report.ok && aggregate.ok) {
      aggregate.ok = false;
      aggregate.failure = "member " + std::to_string(m) + ": " + report.failure;
    }
    aggregate.steps_completed = std::min(aggregate.steps_completed, report.steps_completed);
    aggregate.restarts += report.restarts;
    aggregate.checkpoints += report.checkpoints;
    aggregate.rolled_back_steps += report.rolled_back_steps;
    aggregate.channel += report.channel;
    member_steps_ += report.steps_completed;
  }
  return aggregate;
}

template class EnsembleRunner<fv3::DistributedModel>;
template class EnsembleRunner<swe::SweModel>;

}  // namespace cyclone::ensemble
