#pragma once

#include <span>

#include "comm/model.hpp"
#include "swe/state.hpp"
#include "swe/swe_core.hpp"

namespace cyclone::swe {

/// Global integrals used for validation (mass conservation, stability).
struct SweDiagnostics {
  double total_mass = 0;      ///< sum h * area (propto fluid mass)
  double tracer_mass_q0 = 0;  ///< sum q0 * h * area
  double max_wind = 0;        ///< max |u|, |v|
  double min_h = 0;           ///< minimum depth (positivity check)

  [[nodiscard]] bool finite() const;
};

/// What the shared model driver (comm::Model) needs from the shallow-water
/// core.
struct SweCore {
  using State = SweState;
  using Config = SweConfig;
  using Schedules = SweSchedules;
  using Diagnostics = SweDiagnostics;
  static constexpr const char* name = "swe";
  static constexpr const char* title = "SWE";

  static ir::Program build_program(const SweState& state, const SweSchedules& schedules) {
    return build_swe_program(state, schedules);
  }
  /// "hill" (Gaussian hill), "vortex" (translating vortex) and "jet"
  /// (steady zonal flow).
  static std::span<const comm::InitialCondition<SweState>> initial_conditions();
  static SweDiagnostics diagnostics(const comm::Model<SweCore>& model);
};

/// Runs the shallow-water core on all ranks of a simulated cubed-sphere
/// decomposition through the same driver as fv3::DistributedModel, so every
/// runtime feature is exercised by two independent program shapes.
class SweModel : public comm::Model<SweCore> {
 public:
  using Model::Model;
};

}  // namespace cyclone::swe
