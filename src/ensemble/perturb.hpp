#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "comm/model.hpp"
#include "core/field/field.hpp"

namespace cyclone::ensemble {

/// Identity of one ensemble member's perturbation stream: `seed` names the
/// experiment, `index` the member within it. Index 0 is the unperturbed
/// control by convention (SEEDS/GEFS keep a control member too). Two
/// requests with different seeds can share one batch — the spec, not the
/// batch slot, determines the member's initial condition.
struct MemberSpec {
  uint64_t seed = 0;
  int index = 0;

  friend bool operator==(const MemberSpec&, const MemberSpec&) = default;
};

/// Multiplicative IC perturbation factor for one grid cell: a pure function
/// of (spec, field name, tile, global i, global j, k, amplitude), uniform in
/// [1 - amplitude, 1 + amplitude). Because the factor depends only on
/// *global* coordinates, a member's initial condition is identical across
/// processes, decompositions, and batch layouts — which is what makes the
/// batched-vs-solo 0-ULP contract possible. Index 0 always returns 1.0.
double perturbation_factor(const MemberSpec& spec, std::string_view field, int tile, int gi,
                           int gj, int k, double amplitude);

/// Scale the compute domain of `field` in place by the perturbation factor.
/// (gi0, gj0) place local (0, 0) on tile `tile`. Halos are left stale — the
/// caller re-exchanges prognostic halos afterwards, so halo cells agree with
/// their owning rank bit-for-bit on every decomposition.
void perturb_field(FieldD& field, const MemberSpec& spec, int tile, int gi0, int gj0,
                   double amplitude);

/// Perturb every prognostic field of every rank, then re-exchange prognostic
/// halos. The same helper serves batched members and their solo replicas, so
/// both see exactly the same stores in the same order.
template <class Core>
void perturb_model(comm::Model<Core>& model, const MemberSpec& spec, double amplitude) {
  if (spec.index != 0) {
    for (int r = 0; r < model.num_ranks(); ++r) {
      const grid::RankInfo info = model.partitioner().info(r);
      auto& catalog = model.state(r).catalog();
      for (const std::string& name : model.prognostic_names(model.config())) {
        perturb_field(catalog.at(name), spec, info.tile, info.i0, info.j0, amplitude);
      }
    }
  }
  // Unconditional so control and perturbed members run the same exchange
  // sequence (the exchange is deterministic, but symmetry keeps the solo
  // replica's step count identical for any future stateful comm layer).
  model.exchange_prognostics();
}

}  // namespace cyclone::ensemble
