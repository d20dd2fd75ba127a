#pragma once

#include <map>
#include <string>
#include <vector>

#include "core/field/catalog.hpp"

namespace cyclone::fv3 {

/// Savepoint serialization — the paper's testing methodology (Sec. IV-A):
/// module inputs/outputs are serialized so every module can be validated
/// standalone against a reference, and regressions are caught by diffing
/// saved state. Files are a simple self-describing binary format.
class Savepoint {
 public:
  /// Capture a snapshot of the named fields (full allocation incl. halos).
  static Savepoint capture(const FieldCatalog& catalog,
                           const std::vector<std::string>& fields);

  /// Capture every field of the catalog (checkpointing a whole rank).
  static Savepoint capture_all(const FieldCatalog& catalog);

  /// Restore the snapshot into a catalog (shapes must match).
  void restore(FieldCatalog& catalog) const;

  /// Max |a - b| between this snapshot and the catalog's current fields.
  [[nodiscard]] double max_diff(const FieldCatalog& catalog) const;

  /// Binary round trip. load() validates every length it reads against the
  /// bytes left in the file and every entry's data against its dims, and
  /// throws cyclone::Error on a malformed file.
  void save(const std::string& path) const;
  static Savepoint load(const std::string& path);

  [[nodiscard]] const std::vector<std::string>& field_names() const { return names_; }

 private:
  struct Entry {
    int ni = 0, nj = 0, nk = 0, halo_i = 0, halo_j = 0;
    std::vector<double> data;  ///< compute domain + halos, i-fastest
  };
  std::vector<std::string> names_;
  std::map<std::string, Entry> entries_;
};

}  // namespace cyclone::fv3
