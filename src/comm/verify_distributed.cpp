#include "comm/verify_distributed.hpp"

#include <algorithm>
#include <exception>
#include <sstream>
#include <string>

#include "comm/simcomm.hpp"
#include "core/util/rng.hpp"

namespace cyclone::verify {

SeededRanks::SeededRanks(const ir::Program& program, const grid::Partitioner& part, int nk,
                         uint64_t seed)
    : cats(static_cast<size_t>(part.num_ranks())), ranks(comm::bind_ranks(cats, part, nk)) {
  for (size_t r = 0; r < cats.size(); ++r) {
    cats[r] = make_test_catalog(program, program, ranks[r].dom, Rng::mix(seed, r));
  }
}

void SeededRanks::copy_from(const SeededRanks& other) {
  CY_REQUIRE_MSG(other.cats.size() == cats.size(), "SeededRanks::copy_from: rank count mismatch");
  for (size_t r = 0; r < cats.size(); ++r) {
    for (const auto& name : other.cats[r].names()) {
      cats[r].at(name).copy_from(other.cats[r].at(name));
    }
  }
}

void compare_rank_sets(DomainResult& dr, const std::vector<comm::RankDomain>& reference,
                       const std::vector<comm::RankDomain>& subject) {
  CY_REQUIRE_MSG(reference.size() == subject.size(), "compare_rank_sets: rank count mismatch");
  std::vector<FieldDivergence> fields;
  for (size_t r = 0; r < reference.size(); ++r) {
    for (const auto& name : reference[r].catalog->names()) {
      fields.push_back(compare_fields_bitwise("r" + std::to_string(r) + "/" + name,
                                              reference[r].catalog->at(name),
                                              subject[r].catalog->at(name)));
    }
  }
  record_fields(dr, fields);
}

namespace {

template <class Options>
using Sweep = EquivalenceReport (*)(const ir::Program&, const comm::HaloUpdater&,
                                    std::vector<comm::RankDomain>,
                                    std::vector<comm::RankDomain>, const ResetRanks&,
                                    const Options&);

/// Run `sweep` on three identically seeded synthetic rank sets: the
/// reference, the subject, and the pristine copy the reset restores the
/// subject from.
template <class Options>
EquivalenceReport seeded_sweep(const ir::Program& program, const grid::Partitioner& part, int nk,
                               int halo_width, const Options& options, Sweep<Options> sweep) {
  const comm::HaloUpdater halo(part, halo_width);
  SeededRanks reference(program, part, nk, options.data_seed);
  SeededRanks subject(program, part, nk, options.data_seed);
  const SeededRanks initial(program, part, nk, options.data_seed);
  EquivalenceReport report = sweep(program, halo, reference.ranks, subject.ranks,
                                   [&] { subject.copy_from(initial); }, options);
  report.data_seed = options.data_seed;
  return report;
}

}  // namespace

EquivalenceReport check_distributed_agrees(const ir::Program& program,
                                           const comm::HaloUpdater& halo,
                                           std::vector<comm::RankDomain> reference,
                                           std::vector<comm::RankDomain> subject,
                                           const ResetRanks& reset,
                                           const DistributedVerifyOptions& options) {
  EquivalenceReport report;

  // Lockstep reference: the sequential phase-based scheduler through the
  // deterministic SimComm mailboxes.
  comm::SimComm sim(halo.partitioner().num_ranks());
  for (int s = 0; s < options.steps; ++s) comm::run_lockstep_step(program, halo, reference, sim);

  int config = 0;
  for (const int budget : options.thread_budgets) {
    for (const bool overlap : {true, false}) {
      if (!overlap && !options.include_overlap_off) continue;
      for (int rep = 0; rep < options.repetitions; ++rep, ++config) {
        const uint64_t jitter_seed = Rng::mix(options.data_seed ^ 0xA221117ull, config);
        DomainResult dr;
        dr.dom = reference[0].dom;
        dr.fill_seed = jitter_seed;
        try {
          reset();
          comm::RuntimeOptions ro;
          ro.overlap = overlap;
          ro.run = program.run_options();
          ro.run.threads_per_rank = budget;
          ro.channel.recv_timeout_seconds = options.recv_timeout_seconds;
          ro.channel.arrival_jitter_seed = jitter_seed;
          comm::ConcurrentRuntime rt(program, halo, subject, ro);
          for (int s = 0; s < options.steps; ++s) rt.step();

          compare_rank_sets(dr, reference, subject);
          // The concurrent channel must account for exactly the traffic the
          // lockstep mailboxes saw.
          if (rt.comm().total_messages() != sim.total_messages() ||
              rt.comm().total_bytes() != sim.total_bytes()) {
            std::ostringstream os;
            os << "channel counters diverge from lockstep reference: messages "
               << rt.comm().total_messages() << " vs " << sim.total_messages() << ", bytes "
               << rt.comm().total_bytes() << " vs " << sim.total_bytes();
            dr.error = os.str();
            dr.ok = false;
          }
        } catch (const std::exception& e) {
          std::ostringstream os;
          os << "threads_per_rank=" << budget << " overlap=" << (overlap ? "on" : "off")
             << " rep=" << rep << ": " << e.what();
          dr.error = os.str();
          dr.ok = false;
        }
        report.equivalent = report.equivalent && dr.ok;
        report.domains.push_back(std::move(dr));
      }
    }
  }
  return report;
}

EquivalenceReport check_distributed_agrees(const ir::Program& program,
                                           const grid::Partitioner& part, int nk,
                                           int halo_width,
                                           const DistributedVerifyOptions& options) {
  return seeded_sweep(program, part, nk, halo_width, options, check_distributed_agrees);
}

const char* fault_mode_name(FaultMode mode) {
  switch (mode) {
    case FaultMode::Drop: return "drop";
    case FaultMode::Duplicate: return "duplicate";
    case FaultMode::Reorder: return "reorder";
    case FaultMode::Corrupt: return "corrupt";
    case FaultMode::Delay: return "delay";
    case FaultMode::Crash: return "crash";
    case FaultMode::Hang: return "hang";
  }
  return "?";
}

FaultMode parse_fault_mode(const std::string& name) {
  for (const FaultMode m : {FaultMode::Drop, FaultMode::Duplicate, FaultMode::Reorder,
                            FaultMode::Corrupt, FaultMode::Delay, FaultMode::Crash,
                            FaultMode::Hang}) {
    if (name == fault_mode_name(m)) return m;
  }
  CY_REQUIRE_MSG(false, "unknown fault mode '" << name
                                               << "' (want drop/duplicate/reorder/corrupt/"
                                                  "delay/crash/hang)");
  return FaultMode::Drop;  // unreachable
}

comm::FaultPlan make_chaos_plan(FaultMode mode, uint64_t fault_seed, double rate, int steps,
                                int crash_rank, int crash_step, int nranks, size_t order_len) {
  comm::FaultPlan plan;
  plan.seed = fault_seed;
  switch (mode) {
    case FaultMode::Drop: plan.drop_rate = rate; break;
    case FaultMode::Duplicate: plan.duplicate_rate = rate; break;
    case FaultMode::Reorder: plan.reorder_rate = rate; break;
    case FaultMode::Corrupt: plan.corrupt_rate = rate; break;
    case FaultMode::Delay: plan.delay_rate = rate; break;
    case FaultMode::Crash:
    case FaultMode::Hang: {
      plan.failure = mode == FaultMode::Crash ? comm::FaultPlan::Failure::Crash
                                              : comm::FaultPlan::Failure::Hang;
      Rng rng = Rng::derive(fault_seed, 0x0DDull);
      plan.fail_rank = crash_rank >= 0
                           ? crash_rank
                           : static_cast<int>(rng.next_below(static_cast<uint64_t>(nranks)));
      plan.fail_step =
          crash_step >= 0
              ? crash_step
              : static_cast<long>(rng.next_below(static_cast<uint64_t>(std::max(steps, 1))));
      plan.fail_at_state = static_cast<int>(rng.next_below(order_len ? order_len : 1));
      break;
    }
  }
  return plan;
}

EquivalenceReport check_fault_tolerant(const ir::Program& program,
                                       const comm::HaloUpdater& halo,
                                       std::vector<comm::RankDomain> reference,
                                       std::vector<comm::RankDomain> subject,
                                       const ResetRanks& reset,
                                       const FaultToleranceOptions& options) {
  EquivalenceReport report;
  const int nranks = halo.partitioner().num_ranks();
  const size_t order_len = program.flatten_execution_order().size();

  // Fault-free lockstep reference, run once.
  comm::SimComm sim(nranks);
  for (int s = 0; s < options.steps; ++s) comm::run_lockstep_step(program, halo, reference, sim);

  // One subject runtime reused across all plans (rebuilding per-rank program
  // copies per plan would dominate the sweep); `reset` restores the initial
  // fields before every run.
  comm::RuntimeOptions ro;
  ro.run = program.run_options();
  ro.run.threads_per_rank = options.threads_per_rank;
  ro.channel.recv_timeout_seconds = options.recv_timeout_seconds;
  comm::ConcurrentRuntime rt(program, halo, subject, ro);

  int config = 0;
  for (const FaultMode mode : options.modes) {
    for (int s = 0; s < options.seeds_per_mode; ++s, ++config) {
      const uint64_t fault_seed = Rng::mix(options.fault_seed_base, config);
      const comm::FaultPlan plan =
          make_chaos_plan(mode, fault_seed, options.rate, options.steps, options.crash_rank,
                          options.crash_step, nranks, order_len);
      const std::string where =
          std::string(fault_mode_name(mode)) + " plan [" + comm::describe_plan(plan) + "]";
      comm::RecoveryOptions rec;  // checkpoints go to the runtime's memory store
      rec.enabled = true;
      if (mode == FaultMode::Hang) rec.heartbeat_timeout_seconds = options.hang_heartbeat_seconds;
      DomainResult dr;
      dr.dom = reference[0].dom;
      dr.fill_seed = fault_seed;
      try {
        reset();
        rt.set_fault_options(plan, rec);
        const comm::RunReport rr = rt.run(options.steps);
        if (!rr.ok) {
          dr.error = where + " did not recover: " + rr.failure;
          dr.ok = false;
        } else {
          compare_rank_sets(dr, reference, subject);
          if (!dr.ok) dr.error = "recovered run diverges under " + where;
          // Staging buffers must all be back in their pools once drained.
          if (rt.halo().pool_outstanding() != 0) {
            dr.error = "halo pool leak under " + where + ": " +
                       std::to_string(rt.halo().pool_outstanding()) +
                       " buffers outstanding after drain";
            dr.ok = false;
          }
        }
      } catch (const std::exception& e) {
        dr.error = where + ": " + e.what();
        dr.ok = false;
      }
      report.equivalent = report.equivalent && dr.ok;
      report.domains.push_back(std::move(dr));
    }
  }
  return report;
}

EquivalenceReport check_fault_tolerant(const ir::Program& program,
                                       const grid::Partitioner& part, int nk, int halo_width,
                                       const FaultToleranceOptions& options) {
  return seeded_sweep(program, part, nk, halo_width, options, check_fault_tolerant);
}

}  // namespace cyclone::verify
