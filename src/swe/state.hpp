#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/exec/launch.hpp"
#include "core/field/catalog.hpp"
#include "core/ir/program.hpp"
#include "grid/geometry.hpp"
#include "swe/config.hpp"

namespace cyclone::swe {

/// One rank's shallow-water state: prognostics (depth h, winds u/v, tracers
/// q0..), transport intermediates, and the grid metric terms — every field a
/// single 2-D plane (nk = 1). Mirrors fv3::ModelState so the two cores run
/// through identical driver/comm machinery, but exercises the Plane2D field
/// kind end to end: DSL, IR expansion, all executors, and JIT codegen.
class SweState {
 public:
  /// `placer` optionally routes every catalog allocation into external
  /// storage (the ensemble runtime's member-major arenas); empty = owning.
  SweState(const SweConfig& config, const grid::Partitioner& part, int rank,
           FieldPlacer placer = {});

  /// A copy of `source` on new storage: every catalog field's bytes, halos
  /// included, land through `placer`; the read-only grid geometry is shared.
  SweState(const SweState& source, FieldPlacer placer);

  [[nodiscard]] const SweConfig& config() const { return config_; }
  [[nodiscard]] const grid::GridGeometry& geometry() const { return *geom_; }
  [[nodiscard]] const exec::LaunchDomain& domain() const { return domain_; }
  [[nodiscard]] FieldCatalog& catalog() { return catalog_; }
  [[nodiscard]] const FieldCatalog& catalog() const { return catalog_; }

  [[nodiscard]] FieldD& f(const std::string& name) { return catalog_.at(name); }
  [[nodiscard]] const FieldD& f(const std::string& name) const { return catalog_.at(name); }

  [[nodiscard]] std::vector<std::string> tracer_names() const;

  /// Register staggering / transientness of every state field with a
  /// program (all fields here are Plane2D).
  void register_meta(ir::Program& program) const;

  /// Names of the prognostic fields advanced by the SWE core.
  [[nodiscard]] static std::vector<std::string> prognostic_names(int ntracers);

 private:
  SweConfig config_;
  std::shared_ptr<const grid::GridGeometry> geom_;
  exec::LaunchDomain domain_;
  FieldCatalog catalog_;
};

}  // namespace cyclone::swe
