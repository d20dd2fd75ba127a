#pragma once

#include <span>

#include "comm/model.hpp"
#include "fv3/dyn_core.hpp"
#include "fv3/state.hpp"

namespace cyclone::fv3 {

/// Global integrals used for validation (mass conservation, stability).
struct GlobalDiagnostics {
  double total_mass = 0;        ///< sum delp * area (propto air mass)
  double tracer_mass_q0 = 0;    ///< sum q0 * delp * area
  double max_wind = 0;          ///< max |u|, |v|
  double max_w = 0;
  double mean_pt = 0;

  [[nodiscard]] bool finite() const;
};

/// What the shared model driver (comm::Model) needs from the dycore.
struct DycoreCore {
  using State = ModelState;
  using Config = FvConfig;
  using Schedules = DycoreSchedules;
  using Diagnostics = GlobalDiagnostics;
  static constexpr const char* name = "dycore";
  static constexpr const char* title = "dycore";

  static ir::Program build_program(const ModelState& state, const DycoreSchedules& schedules) {
    return build_dycore_program(state, schedules);
  }
  /// "baro" (baroclinic wave) and "solid" (solid-body rotation).
  static std::span<const comm::InitialCondition<ModelState>> initial_conditions();
  static GlobalDiagnostics diagnostics(const comm::Model<DycoreCore>& model);
};

/// Runs the dycore on all ranks of a simulated cubed-sphere decomposition
/// through the shared driver (see comm::Model for the two schedulers).
class DistributedModel : public comm::Model<DycoreCore> {
 public:
  using Model::Model;
};

}  // namespace cyclone::fv3
