#include "fv3/verify_distributed.hpp"

#include <exception>
#include <string>

#include "core/util/rng.hpp"
#include "fv3/init/baroclinic.hpp"

namespace cyclone::fv3 {

verify::EquivalenceReport verify_concurrent_dycore(const FvConfig& config, int num_ranks,
                                                   const DycoreVerifyOptions& options) {
  verify::EquivalenceReport report;
  verify::DomainResult dr;
  try {
    DistributedModel lockstep(config, num_ranks);
    DistributedModel concurrent(config, num_ranks);
    dr.dom = lockstep.state(0).domain();
    lockstep.set_run_options(options.run);
    concurrent.set_run_options(options.run);
    concurrent.set_exec_mode(DistributedModel::ExecMode::Concurrent);
    concurrent.set_runtime_options(options.runtime);

    init_baroclinic(lockstep);
    init_baroclinic(concurrent);

    for (int s = 0; s < options.steps; ++s) {
      lockstep.step();
      concurrent.step();
    }

    verify::FieldDivergence worst;
    for (int r = 0; r < lockstep.num_ranks(); ++r) {
      const FieldCatalog& a = lockstep.state(r).catalog();
      const FieldCatalog& b = concurrent.state(r).catalog();
      for (const auto& name : a.names()) {
        verify::FieldDivergence d = verify::compare_fields_bitwise(
            "r" + std::to_string(r) + "/" + name, a.at(name), b.at(name));
        if (!d.ok) dr.fields.push_back(d);
        if (worst.field.empty() || d.max_ulps > worst.max_ulps) worst = d;
      }
    }
    if (dr.fields.empty() && !worst.field.empty()) dr.fields.push_back(worst);
    dr.ok = dr.fields.empty() || (dr.fields.size() == 1 && dr.fields[0].ok);
  } catch (const std::exception& e) {
    dr.error = e.what();
    dr.ok = false;
  }
  report.equivalent = dr.ok;
  report.domains.push_back(std::move(dr));
  return report;
}

verify::EquivalenceReport verify_resilient_dycore(const FvConfig& config, int num_ranks,
                                                  const DycoreChaosOptions& options) {
  verify::EquivalenceReport report;
  try {
    // Fault-free lockstep reference trajectory, computed once.
    DistributedModel lockstep(config, num_ranks);
    init_baroclinic(lockstep);
    for (int s = 0; s < options.steps; ++s) lockstep.step();

    // One subject model reused across every plan: re-initialized to the
    // identical baroclinic state, then re-armed via set_fault_options so the
    // per-rank program copies are precompiled exactly once.
    DistributedModel subject(config, num_ranks);
    exec::RunOptions run = subject.run_options();
    run.threads_per_rank = options.threads_per_rank;
    subject.set_run_options(run);
    subject.set_exec_mode(DistributedModel::ExecMode::Concurrent);
    comm::RuntimeOptions ro;
    ro.channel.recv_timeout_seconds = options.recv_timeout_seconds;
    subject.set_runtime_options(ro);
    const size_t order_len = subject.program().flatten_execution_order().size();

    int cell = 0;
    for (const verify::FaultMode mode : options.modes) {
      for (int s = 0; s < options.seeds_per_mode; ++s, ++cell) {
        const uint64_t fault_seed = Rng::mix(options.fault_seed_base, cell);
        const comm::FaultPlan plan = verify::make_chaos_plan(
            mode, fault_seed, options.rate, options.steps, options.crash_rank,
            options.crash_step, num_ranks, order_len);
        verify::DomainResult dr;
        dr.dom = lockstep.state(0).domain();
        dr.fill_seed = fault_seed;
        try {
          init_baroclinic(subject);
          comm::ConcurrentRuntime& rt = subject.concurrent_runtime();
          comm::RecoveryOptions rec;  // checkpoints go to the runtime's memory store
          rec.enabled = true;
          if (mode == verify::FaultMode::Hang) {
            rec.heartbeat_timeout_seconds = options.hang_heartbeat_seconds;
          }
          rt.set_fault_options(plan, rec);
          const comm::RunReport rr = rt.run(options.steps);
          if (!rr.ok) {
            dr.error = std::string(verify::fault_mode_name(mode)) + " plan [" +
                       comm::describe_plan(plan) + "] did not recover: " + rr.failure;
            dr.ok = false;
          } else {
            verify::FieldDivergence worst;
            for (int r = 0; r < lockstep.num_ranks(); ++r) {
              const FieldCatalog& a = lockstep.state(r).catalog();
              const FieldCatalog& b = subject.state(r).catalog();
              for (const auto& name : a.names()) {
                verify::FieldDivergence d = verify::compare_fields_bitwise(
                    "r" + std::to_string(r) + "/" + name, a.at(name), b.at(name));
                if (!d.ok) dr.fields.push_back(d);
                if (worst.field.empty() || d.max_ulps > worst.max_ulps) worst = d;
              }
            }
            if (dr.fields.empty() && !worst.field.empty()) dr.fields.push_back(worst);
            dr.ok = dr.fields.empty() || (dr.fields.size() == 1 && dr.fields[0].ok);
            if (!dr.ok) {
              dr.error = std::string("recovered dycore diverges under ") +
                         verify::fault_mode_name(mode) + " plan [" + comm::describe_plan(plan) +
                         "]";
            }
            if (rt.halo().pool_outstanding() != 0) {
              dr.error = std::string("halo pool leak under ") + verify::fault_mode_name(mode) +
                         " plan [" + comm::describe_plan(plan) + "]";
              dr.ok = false;
            }
          }
        } catch (const std::exception& e) {
          dr.error = std::string(verify::fault_mode_name(mode)) + " plan [" +
                     comm::describe_plan(plan) + "]: " + e.what();
          dr.ok = false;
        }
        report.equivalent = report.equivalent && dr.ok;
        report.domains.push_back(std::move(dr));
      }
    }
  } catch (const std::exception& e) {
    verify::DomainResult dr;
    dr.error = e.what();
    dr.ok = false;
    report.equivalent = false;
    report.domains.push_back(std::move(dr));
  }
  return report;
}

}  // namespace cyclone::fv3
