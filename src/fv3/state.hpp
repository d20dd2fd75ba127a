#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/exec/launch.hpp"
#include "core/field/catalog.hpp"
#include "core/ir/program.hpp"
#include "fv3/config.hpp"
#include "grid/geometry.hpp"

namespace cyclone::fv3 {

/// One rank's model state: every prognostic, diagnostic and intermediate
/// field of the dynamical core, plus the grid metric terms, in a catalog the
/// stencil programs resolve against. The class mirrors the paper's
/// object-oriented design (Sec. IV-A): modules find their operands by name.
class ModelState {
 public:
  /// `placer` optionally routes every catalog allocation into external
  /// storage (the ensemble runtime's member-major arenas); empty = owning.
  ModelState(const FvConfig& config, const grid::Partitioner& part, int rank,
             FieldPlacer placer = {});

  /// A copy of `source` on new storage: every catalog field's bytes, halos
  /// included, land through `placer`; the read-only grid geometry is shared.
  ModelState(const ModelState& source, FieldPlacer placer);

  [[nodiscard]] const FvConfig& config() const { return config_; }
  [[nodiscard]] const grid::GridGeometry& geometry() const { return *geom_; }
  [[nodiscard]] const exec::LaunchDomain& domain() const { return domain_; }
  [[nodiscard]] FieldCatalog& catalog() { return catalog_; }
  [[nodiscard]] const FieldCatalog& catalog() const { return catalog_; }

  [[nodiscard]] FieldD& f(const std::string& name) { return catalog_.at(name); }
  [[nodiscard]] const FieldD& f(const std::string& name) const { return catalog_.at(name); }

  [[nodiscard]] std::vector<std::string> tracer_names() const;

  /// Register the vertical staggering / transientness of every state field
  /// with a program (used by expansion and fusion).
  void register_meta(ir::Program& program) const;

  /// Names of the prognostic fields advanced by the dycore.
  [[nodiscard]] static std::vector<std::string> prognostic_names(int ntracers);

 private:
  FvConfig config_;
  std::shared_ptr<const grid::GridGeometry> geom_;
  exec::LaunchDomain domain_;
  FieldCatalog catalog_;
};

}  // namespace cyclone::fv3
