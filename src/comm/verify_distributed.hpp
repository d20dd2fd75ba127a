#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "comm/model.hpp"
#include "comm/runtime.hpp"
#include "core/verify/verify.hpp"
#include "grid/partitioner.hpp"

namespace cyclone::verify {

/// One rank set of a synthetic program that owns its catalogs: rank r holds
/// make_test_catalog(program, program, its launch domain, Rng::mix(seed, r)),
/// so two sets built with the same arguments start out bitwise identical.
struct SeededRanks {
  SeededRanks(const ir::Program& program, const grid::Partitioner& part, int nk, uint64_t seed);
  SeededRanks(const SeededRanks&) = delete;
  SeededRanks& operator=(const SeededRanks&) = delete;

  /// Copy every field of `other` (same program, layout and seed) into this
  /// set: restores a subject to its initial state.
  void copy_from(const SeededRanks& other);

  std::vector<FieldCatalog> cats;
  std::vector<comm::RankDomain> ranks;  ///< cats bound to their launch domains
};

/// Compare every field of every rank of `subject` against `reference`
/// bitwise (labels "r<rank>/<field>") and fold the result into `dr`.
void compare_rank_sets(DomainResult& dr, const std::vector<comm::RankDomain>& reference,
                       const std::vector<comm::RankDomain>& subject);

/// Restores the subject rank set of a sweep to its initial state; called
/// before every configuration.
using ResetRanks = std::function<void()>;

/// Knobs of the distributed scheduler-equivalence checker.
struct DistributedVerifyOptions {
  /// OpenMP team budgets for each rank thread (RunOptions::threads_per_rank)
  /// to sweep. 1 exercises serial per-rank compute under concurrency, 2
  /// composes rank threads with engine teams.
  std::vector<int> thread_budgets = {1, 2};
  /// Randomized message-arrival-order repetitions per configuration: each
  /// repetition re-runs the concurrent runtime with a different channel
  /// jitter seed, perturbing when messages become visible (never what a recv
  /// returns).
  int repetitions = 20;
  /// Seed of the per-rank random field fills (and, mixed per repetition, of
  /// the arrival jitter).
  uint64_t data_seed = 0xD157ull;
  /// Program passes per run (halo state results feed later steps).
  int steps = 1;
  /// Channel recv timeout; generous by default so slow CI never misfires.
  double recv_timeout_seconds = 120.0;
  /// Also run every configuration with overlap disabled: interior/rim
  /// splitting must be unobservable in the results.
  bool include_overlap_off = true;
};

/// Verify that the thread-per-rank concurrent runtime reproduces the
/// sequential lockstep scheduler bitwise — every field of every rank,
/// halos included, at 0 ULP — for every thread budget, overlap mode, and
/// randomized message arrival order.
///
/// `reference` and `subject` bind two rank sets of `program`, laid out as
/// `halo`'s partitioner, that start out identical. The reference advances
/// `steps` passes once through run_lockstep_step and SimComm; each
/// concurrent configuration calls `reset`, re-runs the subject through a
/// ConcurrentRuntime and compares it field by field. Channel message/byte
/// counters must also match the SimComm totals.
///
/// One DomainResult is recorded per (thread budget, overlap mode,
/// repetition); its fill_seed logs the jitter seed so any failure replays
/// bit-exactly.
EquivalenceReport check_distributed_agrees(const ir::Program& program,
                                           const comm::HaloUpdater& halo,
                                           std::vector<comm::RankDomain> reference,
                                           std::vector<comm::RankDomain> subject,
                                           const ResetRanks& reset,
                                           const DistributedVerifyOptions& options = {});

/// The sweep on identically seeded synthetic rank sets (SeededRanks with
/// options.data_seed). The partitioner requires a rank count that is a
/// positive multiple of 6 (one cubed-sphere face per tile), so 6 is the
/// smallest verifiable layout — there is no 1-rank decomposition.
EquivalenceReport check_distributed_agrees(const ir::Program& program,
                                           const grid::Partitioner& part, int nk,
                                           int halo_width,
                                           const DistributedVerifyOptions& options = {});

/// One fault family of the chaos sweep. Message modes exercise the reliable
/// channel; Crash and Hang exercise checkpoint/rollback-restart.
enum class FaultMode { Drop, Duplicate, Reorder, Corrupt, Delay, Crash, Hang };

[[nodiscard]] const char* fault_mode_name(FaultMode mode);
/// Parse "drop" / "duplicate" / "reorder" / "corrupt" / "delay" / "crash" /
/// "hang" (throws on anything else).
[[nodiscard]] FaultMode parse_fault_mode(const std::string& name);

/// Knobs of the chaos checker.
struct FaultToleranceOptions {
  /// Fault families to sweep. Hang is opt-in: it costs a heartbeat timeout
  /// of wall-clock per seed.
  std::vector<FaultMode> modes = {FaultMode::Drop, FaultMode::Duplicate, FaultMode::Reorder,
                                  FaultMode::Corrupt, FaultMode::Crash};
  int seeds_per_mode = 20;
  uint64_t fault_seed_base = 0xC4405ull;
  /// Per-message probability for the message-fault modes.
  double rate = 0.25;
  /// Program passes per run — at least 2 so a recovered step's results feed
  /// a later exchange.
  int steps = 2;
  uint64_t data_seed = 0xD157ull;
  int threads_per_rank = 1;
  double recv_timeout_seconds = 120.0;
  /// Crash/hang placement: negative = derive rank/step/state deterministically
  /// from each fault seed; >= 0 pins it (the --crash-rank CLI knob).
  int crash_rank = -1;
  int crash_step = -1;
  /// Heartbeat timeout for Hang runs (a hang costs this much wall-clock per
  /// seed; the default trades detection latency against TSan-slow machines).
  double hang_heartbeat_seconds = 0.5;
};

/// Deterministic plan for one (mode, fault seed) cell of a chaos sweep.
/// Message modes set the mode's probability to `rate`; crash/hang placement
/// (rank, step, state position) is itself seed-derived — so N seeds probe N
/// different kill points — unless pinned via crash_rank/crash_step >= 0.
[[nodiscard]] comm::FaultPlan make_chaos_plan(FaultMode mode, uint64_t fault_seed, double rate,
                                              int steps, int crash_rank, int crash_step,
                                              int nranks, size_t order_len);

/// Chaos-verify the self-healing runtime: for every fault mode and seed,
/// build a deterministic FaultPlan, call `reset`, run the subject rank set
/// through one reused ConcurrentRuntime with fault injection + recovery
/// (checkpoints in the runtime's memory store), and require (a) the run to
/// complete (recovering as needed), (b) every field of every rank to match
/// the fault-free lockstep reference bitwise at 0 ULP and (c) the halo
/// staging pools to balance. `reference` and `subject` start out identical,
/// as for check_distributed_agrees. One DomainResult is recorded per (mode,
/// seed); its fill_seed logs the fault seed and its error names the
/// injected plan, so any failure replays bit-exactly.
EquivalenceReport check_fault_tolerant(const ir::Program& program,
                                       const comm::HaloUpdater& halo,
                                       std::vector<comm::RankDomain> reference,
                                       std::vector<comm::RankDomain> subject,
                                       const ResetRanks& reset,
                                       const FaultToleranceOptions& options = {});

/// The chaos sweep on identically seeded synthetic rank sets.
EquivalenceReport check_fault_tolerant(const ir::Program& program,
                                       const grid::Partitioner& part, int nk, int halo_width,
                                       const FaultToleranceOptions& options = {});

/// Both sweeps on a model core: `reference` and `subject` are two models of
/// one config. Both are initialised with `ic` here, and `subject.init(ic)`
/// is the reset, so any core gets the sweeps without core-specific code.
template <class Core>
EquivalenceReport check_distributed_agrees(comm::Model<Core>& reference,
                                           comm::Model<Core>& subject, std::string_view ic,
                                           const DistributedVerifyOptions& options = {}) {
  reference.init(ic);
  subject.init(ic);
  return check_distributed_agrees(reference.program(), reference.halo_updater(),
                                  reference.rank_domains(), subject.rank_domains(),
                                  [&] { subject.init(ic); }, options);
}

template <class Core>
EquivalenceReport check_fault_tolerant(comm::Model<Core>& reference, comm::Model<Core>& subject,
                                       std::string_view ic,
                                       const FaultToleranceOptions& options = {}) {
  reference.init(ic);
  subject.init(ic);
  return check_fault_tolerant(reference.program(), reference.halo_updater(),
                              reference.rank_domains(), subject.rank_domains(),
                              [&] { subject.init(ic); }, options);
}

}  // namespace cyclone::verify
