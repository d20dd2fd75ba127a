#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "comm/halo.hpp"
#include "comm/runtime.hpp"
#include "core/field/catalog.hpp"
#include "core/util/error.hpp"
#include "core/verify/corpus.hpp"
#include "grid/partitioner.hpp"

namespace cyclone::comm {

/// Scheduler used by Model::step().
enum class ExecMode { Lockstep, Concurrent };

/// One named initial condition of a model core: fills one rank's state.
template <class State>
struct InitialCondition {
  std::string_view name;
  void (*init)(State& state, const grid::Partitioner& part);
};

/// Runs one model core on all ranks of a simulated cubed-sphere
/// decomposition. Both cores (the FV3 dycore and shallow water) share this
/// driver, so they share one comm layer, one halo-exchange path, both
/// schedulers and the resilient run loop:
///
///  - Lockstep (default): ranks execute sequentially, phase by phase,
///    through the deterministic SimComm mailboxes (run_lockstep_step) — the
///    reference scheduler.
///  - Concurrent: every rank runs on its own thread against a real
///    mutex/condvar channel (ConcurrentRuntime), optionally overlapping
///    interior compute with in-flight halo exchanges. Bitwise identical to
///    Lockstep by construction (verified in verify::check_distributed_agrees).
///
/// The program is shared — horizontal regions resolve per rank through the
/// launch domain's global placement, exactly as in the distributed GT4Py
/// model. No node captures the state it was built from, so one program also
/// serves every clone of a model and every later model of the same config
/// (the ensemble's members and the forecast service's cached shapes).
///
/// `Core` supplies only what differs between cores:
///  - the State, Config, Schedules and Diagnostics types;
///  - `name` (service/corpus vocabulary) and `title` (error messages);
///  - `build_program(state, schedules)`;
///  - `initial_conditions()`, the core's named initial-condition table;
///  - `diagnostics(model)`.
template <class Core>
class Model {
 public:
  using State = typename Core::State;
  using Config = typename Core::Config;
  using Schedules = typename Core::Schedules;
  using Diagnostics = typename Core::Diagnostics;
  using ExecMode = comm::ExecMode;
  /// Optionally a per-rank FieldPlacer routing every state-field allocation
  /// into external storage (the ensemble runtime's member-major arenas);
  /// empty = each state owns its fields.
  using Placers = std::function<FieldPlacer(int rank)>;

  /// The core's name in the service and corpus vocabulary.
  static constexpr const char* core_name = Core::name;

  Model(const Config& config, int num_ranks, const Schedules& schedules = Schedules::tuned(),
        const Placers& placers = {})
      : Model(config, num_ranks, placers) {
    program_ = std::make_shared<ir::Program>(Core::build_program(*states_[0], schedules));
  }

  /// Fresh states running `program`, already built for this config.
  Model(const Config& config, int num_ranks, std::shared_ptr<ir::Program> program,
        const Placers& placers = {})
      : Model(config, num_ranks, placers) {
    CY_REQUIRE_MSG(program, "model needs a program");
    program_ = std::move(program);
  }

  /// A clone of `source`: every rank's fields are byte copies of the
  /// source's, halos included, placed through `placers`, and the halo plans
  /// are copied. The program (with its compiled stencils and JIT bindings)
  /// and every rank's grid geometry are shared, not rebuilt, so run options
  /// set on either model apply to both.
  Model(const Model& source, const Placers& placers)
      : config_(source.config_),
        part_(source.part_),
        program_(source.program_),
        comm_(part_.num_ranks()),
        halo_(source.halo_),
        exec_mode_(source.exec_mode_),
        runtime_options_(source.runtime_options_) {
    for (int r = 0; r < part_.num_ranks(); ++r) {
      states_.push_back(
          std::make_unique<State>(source.state(r), placers ? placers(r) : FieldPlacer{}));
    }
    bind_ranks();
  }

  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] const grid::Partitioner& partitioner() const { return part_; }
  [[nodiscard]] int num_ranks() const { return part_.num_ranks(); }
  [[nodiscard]] State& state(int rank) { return *states_[static_cast<size_t>(rank)]; }
  [[nodiscard]] const State& state(int rank) const { return *states_[static_cast<size_t>(rank)]; }
  [[nodiscard]] const ir::Program& program() const { return *program_; }
  [[nodiscard]] ir::Program& program() { return *program_; }
  /// The program as shared by this model's clones (what a later model of
  /// the same config may run, see the program constructor).
  [[nodiscard]] const std::shared_ptr<ir::Program>& shared_program() const { return program_; }
  [[nodiscard]] SimComm& comm() { return comm_; }
  [[nodiscard]] const HaloUpdater& halo_updater() const { return halo_; }
  [[nodiscard]] HaloUpdater& halo_updater() { return halo_; }
  /// Every rank's catalog bound to its launch domain.
  [[nodiscard]] const std::vector<RankDomain>& rank_domains() const { return ranks_; }

  /// Names of the prognostic fields the core advances.
  [[nodiscard]] static std::vector<std::string> prognostic_names(const Config& config) {
    return State::prognostic_names(config.ntracers);
  }

  /// Engine options (thread count, parallel on/off) used by every compute
  /// state. Halo exchanges are unaffected; the reference backend ignores
  /// them (it stays the serial oracle). In Concurrent mode these also seed
  /// the per-rank programs (threads_per_rank caps each rank's OpenMP team).
  void set_run_options(const exec::RunOptions& run) {
    program_->set_run_options(run);
    runtime_.reset();  // per-rank program copies carry stale options
  }
  [[nodiscard]] const exec::RunOptions& run_options() const { return program_->run_options(); }

  /// Select the scheduler used by step(). Concurrent mode builds the
  /// thread-per-rank runtime lazily on the first step.
  void set_exec_mode(ExecMode mode) { exec_mode_ = mode; }
  [[nodiscard]] ExecMode exec_mode() const { return exec_mode_; }

  /// Concurrent-runtime behavior (overlap on/off, channel jitter/timeout).
  /// The `run` member is overwritten from run_options() at build time.
  void set_runtime_options(const RuntimeOptions& options) {
    runtime_options_ = options;
    runtime_.reset();
  }

  /// The concurrent runtime (built on demand) — stats, channel counters.
  [[nodiscard]] ConcurrentRuntime& concurrent_runtime() {
    if (!runtime_) {
      RuntimeOptions options = runtime_options_;
      options.run = program_->run_options();
      runtime_ = std::make_unique<ConcurrentRuntime>(*program_, halo_, ranks_, options);
    }
    return *runtime_;
  }

  /// This model as one member of a lockstep pass (see run_lockstep_step).
  [[nodiscard]] LockstepMember lockstep_member() {
    return LockstepMember{program_.get(), &halo_, &ranks_, &comm_};
  }

  /// Advance one physics timestep on every rank.
  void step() {
    if (exec_mode_ == ExecMode::Concurrent) {
      concurrent_runtime().step();
      return;
    }
    run_lockstep_step(*program_, halo_, ranks_, comm_);
  }

  /// Advance `steps` timesteps through the self-healing concurrent runtime:
  /// faults from the runtime options are injected, rank-local checkpoints go
  /// to runtime_options().recovery.store (the runtime's in-memory store when
  /// unset), and crashed/hung steps roll back and restart. Switches the
  /// model to Concurrent mode. Returns the structured outcome instead of
  /// throwing on rank failure.
  RunReport run_resilient(int steps) {
    set_exec_mode(ExecMode::Concurrent);
    ConcurrentRuntime& rt = concurrent_runtime();
    RecoveryOptions recovery = rt.options().recovery;
    recovery.enabled = true;
    rt.set_fault_options(rt.options().faults, recovery);
    return rt.run(steps);
  }

  /// Exchange the prognostic fields' halos (used after initialization).
  void exchange_prognostics() {
    // Winds go as a rotated vector pair, the rest as scalars.
    {
      std::vector<FieldD*> u, v;
      for (auto& st : states_) {
        u.push_back(&st->f("u"));
        v.push_back(&st->f("v"));
      }
      halo_.exchange_vector(u, v, comm_);
      halo_.fill_cube_corners(u, CornerFill::XDir);
      halo_.fill_cube_corners(v, CornerFill::YDir);
    }
    for (const auto& name : prognostic_names(config_)) {
      if (name == "u" || name == "v") continue;
      std::vector<FieldD*> fields;
      for (auto& st : states_) fields.push_back(&st->f(name));
      halo_.exchange_scalar(fields, comm_);
      halo_.fill_cube_corners(fields, CornerFill::XDir);
    }
  }

  /// Initialize every rank with `init(state, partitioner)`, then exchange
  /// the prognostic halos.
  template <class Init>
  void init_ranks(Init&& init) {
    for (auto& st : states_) init(*st, part_);
    exchange_prognostics();
  }

  /// Empty when `ic` names one of the core's initial conditions, otherwise
  /// the error message naming it.
  [[nodiscard]] static std::string initial_condition_error(std::string_view ic) {
    for (const auto& c : Core::initial_conditions()) {
      if (c.name == ic) return {};
    }
    return "unknown " + std::string(Core::title) + " initial condition '" + std::string(ic) + "'";
  }

  /// Apply the named initial condition to every rank (throws on unknown
  /// names).
  void init(std::string_view ic) {
    for (const auto& c : Core::initial_conditions()) {
      if (c.name == ic) {
        init_ranks(c.init);
        return;
      }
    }
    throw Error(initial_condition_error(ic));
  }

  [[nodiscard]] Diagnostics diagnostics() const { return Core::diagnostics(*this); }

  /// Every prognostic field gathered into its global, decomposition-invariant
  /// form (the corpus golden and forecast-service payload).
  [[nodiscard]] std::vector<verify::GoldenField> assemble() const {
    std::vector<verify::RankView> views;
    views.reserve(states_.size());
    for (int r = 0; r < num_ranks(); ++r) {
      const grid::RankInfo info = part_.info(r);
      views.push_back(
          verify::RankView{&state(r).catalog(), info.tile, info.i0, info.j0, info.ni, info.nj});
    }
    std::vector<verify::GoldenField> fields;
    for (const std::string& name : prognostic_names(config_)) {
      fields.push_back(verify::assemble_field(name, grid::kNumFaces, part_.n(), views));
    }
    return fields;
  }

 private:
  /// Fresh states; the public constructors supply the program.
  Model(const Config& config, int num_ranks, const Placers& placers)
      : config_(config),
        part_(grid::Partitioner::for_ranks(config.npx, num_ranks)),
        comm_(part_.num_ranks()),
        halo_(part_, 3) {
    for (int r = 0; r < part_.num_ranks(); ++r) {
      states_.push_back(
          std::make_unique<State>(config_, part_, r, placers ? placers(r) : FieldPlacer{}));
    }
    bind_ranks();
  }

  void bind_ranks() {
    ranks_.reserve(states_.size());
    for (auto& st : states_) ranks_.push_back(RankDomain{&st->catalog(), st->domain()});
  }

  Config config_;
  grid::Partitioner part_;
  std::vector<std::unique_ptr<State>> states_;
  std::vector<RankDomain> ranks_;  ///< one per state, bound at construction
  std::shared_ptr<ir::Program> program_;
  SimComm comm_;
  HaloUpdater halo_;
  ExecMode exec_mode_ = ExecMode::Lockstep;
  RuntimeOptions runtime_options_{};
  std::unique_ptr<ConcurrentRuntime> runtime_;
};

}  // namespace cyclone::comm
