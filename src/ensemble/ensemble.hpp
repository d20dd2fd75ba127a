#pragma once

#include <memory>
#include <vector>

#include "comm/runtime.hpp"
#include "ensemble/arena.hpp"
#include "ensemble/perturb.hpp"
#include "fv3/driver.hpp"
#include "swe/driver.hpp"

namespace cyclone::ensemble {

/// The default member roster for one experiment: member i carries
/// perturbation stream (seed, i); member 0 is the unperturbed control.
std::vector<MemberSpec> default_members(uint64_t seed, int count);

/// Configuration of one ensemble run.
struct EnsembleOptions {
  /// One entry per member, in batch-slot order. Specs are independent of
  /// their slot, so the forecast service can coalesce requests with
  /// different seeds into one batch.
  std::vector<MemberSpec> members{MemberSpec{}};
  double amplitude = 1e-3;
  int num_ranks = 6;
  /// Engine options for every member (backend, threads, member_batch).
  exec::RunOptions run{};
  /// How step() schedules members:
  ///  - Batched: one comm::run_lockstep_step pass over all members — state
  ///    loop outer, member loop inner — so each scheduled stencil sweep
  ///    advances every member while its code and the members' adjacent
  ///    arena blocks are hot (run.member_batch chunks the member loop for
  ///    cache blocking; results are bitwise identical for every chunk size).
  ///  - Concurrent: each member advances through its own thread-per-rank
  ///    concurrent runtime (bitwise identical to Batched by the
  ///    concurrent == lockstep contract).
  enum class Scheduler { Batched, Concurrent };
  Scheduler scheduler = Scheduler::Batched;
  /// Runtime options for the Concurrent scheduler and run_resilient()
  /// (overlap, channel jitter, fault plan, recovery). faults.seed is
  /// re-derived per member (Rng::mix with the member slot) so members draw
  /// decorrelated fault streams from one configured seed.
  comm::RuntimeOptions runtime{};
};

/// N perturbed-IC instances of one model core sharing member-major arena
/// storage, advanced together so one scheduled stencil sweep serves all
/// members. Every member is bitwise (0 ULP) identical to a solo run of the
/// same (config, ic, spec) — the batching is pure iteration-space and
/// storage reorganization, never a numerics change.
///
/// The shape is built once per batch: member 0 is constructed and given the
/// initial condition, members 1..N-1 are clones of it (byte copies of its
/// fields into their arena slots, sharing its program and grid geometry),
/// and then every member is perturbed by its own stream.
template <class Model>
class EnsembleRunner {
 public:
  using Config = typename Model::Config;

  /// Build the members and apply the named initial condition (throws on
  /// unknown names), then each member's perturbation stream (member 0 of a
  /// default roster stays the control). `program`, when given, is a program
  /// already built for `config` (the forecast service's per-worker cache);
  /// otherwise member 0 builds one.
  EnsembleRunner(const Config& config, EnsembleOptions options, const std::string& ic,
                 std::shared_ptr<ir::Program> program = {});

  [[nodiscard]] int members() const { return static_cast<int>(options_.members.size()); }
  [[nodiscard]] const EnsembleOptions& options() const { return options_; }
  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] Model& member(int m) { return *models_[static_cast<size_t>(m)]; }
  [[nodiscard]] const MemberArena& arena() const { return arena_; }

  /// Advance every member one timestep under options().scheduler.
  void step();
  void run(int steps);

  /// Advance every member `steps` timesteps through its self-healing
  /// concurrent runtime (fault injection + checkpoint/rollback-restart per
  /// member). Returns the aggregate: ok iff every member recovered,
  /// steps_completed is the minimum across members, counters are summed.
  comm::RunReport run_resilient(int steps);

  /// Total member-steps advanced (members x steps), the unit the ensemble
  /// benchmarks rate against solo processes.
  [[nodiscard]] long member_steps() const { return member_steps_; }

  /// Re-chunk the batched member loop (see RunOptions::member_batch). Pure
  /// iteration-space blocking — safe to change between steps, including by
  /// the tuner mid-run, without perturbing a single bit of any member.
  void set_member_batch(int chunk) { options_.run.member_batch = chunk; }

 private:
  Config config_;
  EnsembleOptions options_;
  MemberArena arena_;
  std::vector<std::unique_ptr<Model>> models_;
  long member_steps_ = 0;
};

using DycoreEnsemble = EnsembleRunner<fv3::DistributedModel>;
using SweEnsemble = EnsembleRunner<swe::SweModel>;

}  // namespace cyclone::ensemble
