#include "fv3/driver.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "fv3/init/baroclinic.hpp"

namespace cyclone::fv3 {

bool GlobalDiagnostics::finite() const {
  for (double v : {total_mass, tracer_mass_q0, max_wind, max_w, mean_pt}) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

std::span<const comm::InitialCondition<ModelState>> DycoreCore::initial_conditions() {
  static constexpr std::array<comm::InitialCondition<ModelState>, 2> kTable{{
      {"baro", [](ModelState& s, const grid::Partitioner& p) { init_baroclinic(s, p); }},
      {"solid", [](ModelState& s, const grid::Partitioner& p) { init_solid_body(s, p); }},
  }};
  return kTable;
}

GlobalDiagnostics DycoreCore::diagnostics(const comm::Model<DycoreCore>& model) {
  GlobalDiagnostics d;
  double pt_sum = 0;
  long pt_count = 0;
  const bool has_q0 = model.config().ntracers > 0;
  for (int r = 0; r < model.num_ranks(); ++r) {
    const ModelState& st = model.state(r);
    const auto& dom = st.domain();
    const FieldD& delp = st.f("delp");
    const FieldD& area = st.f("area");
    const FieldD& u = st.f("u");
    const FieldD& v = st.f("v");
    const FieldD& w = st.f("w");
    const FieldD& pt = st.f("pt");
    for (int k = 0; k < dom.nk; ++k) {
      for (int j = 0; j < dom.nj; ++j) {
        for (int i = 0; i < dom.ni; ++i) {
          const double cell = delp(i, j, k) * area(i, j, 0);
          d.total_mass += cell;
          if (has_q0) d.tracer_mass_q0 += st.f("q0")(i, j, k) * cell;
          d.max_wind = std::max({d.max_wind, std::abs(u(i, j, k)), std::abs(v(i, j, k))});
          d.max_w = std::max(d.max_w, std::abs(w(i, j, k)));
          pt_sum += pt(i, j, k);
          ++pt_count;
        }
      }
    }
  }
  d.mean_pt = pt_count ? pt_sum / static_cast<double>(pt_count) : 0.0;
  return d;
}

}  // namespace cyclone::fv3
