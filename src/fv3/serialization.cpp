#include "fv3/serialization.hpp"

#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>

#include "core/util/error.hpp"

namespace cyclone::fv3 {

namespace {
constexpr uint64_t kMagic = 0x43594353415645ull;  // "CYCSAVE"
}

Savepoint Savepoint::capture(const FieldCatalog& catalog,
                             const std::vector<std::string>& fields) {
  Savepoint sp;
  for (const auto& name : fields) {
    const FieldD& f = catalog.at(name);
    const FieldShape& sh = f.shape();
    Entry e;
    e.ni = sh.ni();
    e.nj = sh.nj();
    e.nk = sh.nk();
    e.halo_i = sh.halo().i;
    e.halo_j = sh.halo().j;
    e.data.reserve(sh.volume_with_halo());
    for (int k = 0; k < e.nk; ++k) {
      for (int j = -e.halo_j; j < e.nj + e.halo_j; ++j) {
        for (int i = -e.halo_i; i < e.ni + e.halo_i; ++i) e.data.push_back(f(i, j, k));
      }
    }
    sp.names_.push_back(name);
    sp.entries_[name] = std::move(e);
  }
  return sp;
}

Savepoint Savepoint::capture_all(const FieldCatalog& catalog) {
  return capture(catalog, catalog.names());
}

void Savepoint::restore(FieldCatalog& catalog) const {
  for (const auto& name : names_) {
    const Entry& e = entries_.at(name);
    FieldD& f = catalog.at(name);
    const FieldShape& sh = f.shape();
    CY_REQUIRE_MSG(sh.ni() == e.ni && sh.nj() == e.nj && sh.nk() == e.nk &&
                       sh.halo().i == e.halo_i && sh.halo().j == e.halo_j,
                   "savepoint shape mismatch for field '" << name << "'");
    size_t idx = 0;
    for (int k = 0; k < e.nk; ++k) {
      for (int j = -e.halo_j; j < e.nj + e.halo_j; ++j) {
        for (int i = -e.halo_i; i < e.ni + e.halo_i; ++i) f(i, j, k) = e.data[idx++];
      }
    }
  }
}

double Savepoint::max_diff(const FieldCatalog& catalog) const {
  double m = 0;
  for (const auto& name : names_) {
    const Entry& e = entries_.at(name);
    const FieldD& f = catalog.at(name);
    size_t idx = 0;
    for (int k = 0; k < e.nk; ++k) {
      for (int j = -e.halo_j; j < e.nj + e.halo_j; ++j) {
        for (int i = -e.halo_i; i < e.ni + e.halo_i; ++i) {
          m = std::max(m, std::abs(f(i, j, k) - e.data[idx++]));
        }
      }
    }
  }
  return m;
}

void Savepoint::save(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  CY_REQUIRE_MSG(out.good(), "cannot open '" << path << "' for writing");
  auto put_u64 = [&](uint64_t v) { out.write(reinterpret_cast<const char*>(&v), 8); };
  put_u64(kMagic);
  put_u64(names_.size());
  for (const auto& name : names_) {
    const Entry& e = entries_.at(name);
    put_u64(name.size());
    out.write(name.data(), static_cast<std::streamsize>(name.size()));
    for (int v : {e.ni, e.nj, e.nk, e.halo_i, e.halo_j}) put_u64(static_cast<uint64_t>(v));
    put_u64(e.data.size());
    out.write(reinterpret_cast<const char*>(e.data.data()),
              static_cast<std::streamsize>(e.data.size() * sizeof(double)));
  }
  CY_ENSURE_MSG(out.good(), "short write to '" << path << "'");
}

Savepoint Savepoint::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  CY_REQUIRE_MSG(in.good(), "cannot open '" << path << "' for reading");
  uint64_t left = static_cast<uint64_t>(in.tellg());
  in.seekg(0);
  auto read = [&](void* dst, uint64_t bytes) {
    CY_REQUIRE_MSG(bytes <= left, "truncated savepoint '" << path << "'");
    in.read(static_cast<char*>(dst), static_cast<std::streamsize>(bytes));
    left -= bytes;
  };
  auto get_u64 = [&] {
    uint64_t v = 0;
    read(&v, 8);
    return v;
  };
  auto get_dim = [&] {
    const auto v = static_cast<int64_t>(get_u64());
    CY_REQUIRE_MSG(v >= 0 && v <= std::numeric_limits<int>::max(),
                   "savepoint '" << path << "' has invalid dimension " << v);
    return static_cast<int>(v);
  };
  CY_REQUIRE_MSG(get_u64() == kMagic, "'" << path << "' is not a cyclone savepoint");
  Savepoint sp;
  const uint64_t count = get_u64();
  for (uint64_t f = 0; f < count; ++f) {
    const uint64_t name_len = get_u64();
    CY_REQUIRE_MSG(name_len <= left, "savepoint '" << path << "' name length " << name_len
                                                   << " exceeds the file");
    std::string name(name_len, '\0');
    read(name.data(), name_len);
    Entry e;
    e.ni = get_dim();
    e.nj = get_dim();
    e.nk = get_dim();
    e.halo_i = get_dim();
    e.halo_j = get_dim();
    const uint64_t len = get_u64();
    CY_REQUIRE_MSG(len <= left / sizeof(double),
                   "savepoint '" << path << "' field '" << name << "' data length " << len
                                 << " exceeds the file");
    // restore() and max_diff() index the data by the entry's full volume.
    uint64_t volume = 1;
    bool overflow = false;
    for (const int64_t extent : {int64_t{e.ni} + 2 * e.halo_i, int64_t{e.nj} + 2 * e.halo_j,
                                 int64_t{e.nk}}) {
      overflow |= __builtin_mul_overflow(volume, static_cast<uint64_t>(extent), &volume);
    }
    CY_REQUIRE_MSG(!overflow && len == volume,
                   "savepoint '" << path << "' field '" << name << "' holds " << len
                                 << " values, which does not match its dims");
    e.data.resize(len);
    read(e.data.data(), len * sizeof(double));
    sp.names_.push_back(name);
    sp.entries_[name] = std::move(e);
  }
  CY_ENSURE_MSG(in.good(), "truncated savepoint '" << path << "'");
  return sp;
}

}  // namespace cyclone::fv3
