#include "swe/driver.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "swe/init.hpp"

namespace cyclone::swe {

bool SweDiagnostics::finite() const {
  for (double v : {total_mass, tracer_mass_q0, max_wind, min_h}) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

std::span<const comm::InitialCondition<SweState>> SweCore::initial_conditions() {
  static constexpr std::array<comm::InitialCondition<SweState>, 3> kTable{{
      {"hill", [](SweState& s, const grid::Partitioner& p) { init_gaussian_hill(s, p); }},
      {"vortex", [](SweState& s, const grid::Partitioner& p) { init_vortex(s, p); }},
      {"jet", [](SweState& s, const grid::Partitioner& p) { init_zonal_flow(s, p); }},
  }};
  return kTable;
}

SweDiagnostics SweCore::diagnostics(const comm::Model<SweCore>& model) {
  SweDiagnostics d;
  d.min_h = std::numeric_limits<double>::infinity();
  const bool has_q0 = model.config().ntracers > 0;
  for (int r = 0; r < model.num_ranks(); ++r) {
    const SweState& st = model.state(r);
    const auto& dom = st.domain();
    const FieldD& h = st.f("h");
    const FieldD& area = st.f("area");
    const FieldD& u = st.f("u");
    const FieldD& v = st.f("v");
    for (int j = 0; j < dom.nj; ++j) {
      for (int i = 0; i < dom.ni; ++i) {
        const double cell = h(i, j) * area(i, j);
        d.total_mass += cell;
        if (has_q0) d.tracer_mass_q0 += st.f("q0")(i, j) * cell;
        d.max_wind = std::max({d.max_wind, std::abs(u(i, j)), std::abs(v(i, j))});
        d.min_h = std::min(d.min_h, h(i, j));
      }
    }
  }
  return d;
}

}  // namespace cyclone::swe
