#include "ensemble/perturb.hpp"

#include "core/util/rng.hpp"

namespace cyclone::ensemble {

namespace {

/// FNV-1a over the field name so "u" and "v" draw decorrelated streams.
uint64_t hash_name(std::string_view name) {
  uint64_t h = 0xCBF29CE484222325ull;
  for (unsigned char c : name) {
    h ^= c;
    h *= 0x100000001B3ull;
  }
  return h;
}

}  // namespace

double perturbation_factor(const MemberSpec& spec, std::string_view field, int tile, int gi,
                           int gj, int k, double amplitude) {
  if (spec.index == 0) return 1.0;
  uint64_t h = Rng::mix(spec.seed, static_cast<uint64_t>(spec.index));
  h = Rng::mix(h, hash_name(field));
  h = Rng::mix(h, static_cast<uint64_t>(tile));
  h = Rng::mix(h, static_cast<uint64_t>(static_cast<uint32_t>(gi)) |
                      (static_cast<uint64_t>(static_cast<uint32_t>(gj)) << 32));
  h = Rng::mix(h, static_cast<uint64_t>(k));
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;  // [0, 1)
  return 1.0 + amplitude * (2.0 * u - 1.0);
}

void perturb_field(FieldD& field, const MemberSpec& spec, int tile, int gi0, int gj0,
                   double amplitude) {
  if (spec.index == 0) return;
  const FieldShape& s = field.shape();
  for (int k = 0; k < s.nk(); ++k) {
    for (int j = 0; j < s.nj(); ++j) {
      for (int i = 0; i < s.ni(); ++i) {
        field(i, j, k) *= perturbation_factor(spec, field.name(), tile, gi0 + i, gj0 + j, k,
                                              amplitude);
      }
    }
  }
}

}  // namespace cyclone::ensemble
