#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/field/field.hpp"

namespace cyclone {

/// Storage-placement hook for catalog field creation: given the field's name
/// and shape, return externally-owned storage of at least shape.alloc_elems()
/// zero-initialized doubles to back the field as a view, or nullptr to let
/// the catalog allocate normally. The ensemble runtime uses this to place
/// every member's copy of a field into one member-major arena.
using FieldPlacer = std::function<double*(const std::string& name, const FieldShape& shape)>;

/// Owns a set of named double fields and resolves them by name. Stencil
/// executors look up their operands here; FV3 model state is a catalog.
class FieldCatalog {
 public:
  /// Route subsequent create() calls through `placer` (see FieldPlacer).
  /// Must be set before the fields it should place are created.
  void set_placer(FieldPlacer placer) { placer_ = std::move(placer); }

  /// Create (or replace) a field with the given shape; returns a reference.
  FieldD& create(const std::string& name, const FieldShape& shape) {
    double* storage = placer_ ? placer_(name, shape) : nullptr;
    auto field = storage != nullptr ? std::make_unique<FieldD>(name, shape, storage)
                                    : std::make_unique<FieldD>(name, shape);
    FieldD& ref = *field;
    fields_[name] = std::move(field);
    return ref;
  }

  FieldD& create(const std::string& name, int ni, int nj, int nk, HaloSpec halo = {},
                 Layout layout = Layout::KJI, int align_elems = 8) {
    return create(name, FieldShape(ni, nj, nk, halo, layout, align_elems));
  }

  /// Create a field of the same name and shape for every field `source`
  /// owns (aliases are not followed) and copy its bytes, halos included.
  /// The new fields land through this catalog's placer.
  void clone_fields(const FieldCatalog& source) {
    for (const auto& [name, field] : source.fields_) create(name, field->shape()).copy_from(*field);
  }

  /// Register an externally-owned field under an alias (non-owning). The
  /// caller must keep it alive; used to bind stencil formal names to model
  /// state fields.
  void alias(const std::string& name, FieldD& field) { aliases_[name] = &field; }

  void remove(const std::string& name) {
    fields_.erase(name);
    aliases_.erase(name);
  }

  [[nodiscard]] bool contains(const std::string& name) const {
    return aliases_.count(name) > 0 || fields_.count(name) > 0;
  }

  [[nodiscard]] FieldD& at(const std::string& name) {
    if (auto it = aliases_.find(name); it != aliases_.end()) return *it->second;
    auto it = fields_.find(name);
    CY_REQUIRE_MSG(it != fields_.end(), "no field named '" << name << "' in catalog");
    return *it->second;
  }

  [[nodiscard]] const FieldD& at(const std::string& name) const {
    return const_cast<FieldCatalog*>(this)->at(name);
  }

  [[nodiscard]] std::vector<std::string> names() const {
    std::vector<std::string> out;
    out.reserve(fields_.size() + aliases_.size());
    for (const auto& [name, _] : fields_) out.push_back(name);
    for (const auto& [name, _] : aliases_) out.push_back(name);
    return out;
  }

  /// Total bytes owned by this catalog (excluding aliases).
  [[nodiscard]] size_t owned_bytes() const {
    size_t total = 0;
    for (const auto& [_, f] : fields_) total += f->shape().alloc_elems() * sizeof(double);
    return total;
  }

 private:
  std::map<std::string, std::unique_ptr<FieldD>> fields_;
  std::map<std::string, FieldD*> aliases_;
  FieldPlacer placer_;
};

}  // namespace cyclone
