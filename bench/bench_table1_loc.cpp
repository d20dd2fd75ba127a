// Table I reproduction: Lines-of-Code comparison between the declarative
// DSL implementation of the dynamical core and the FORTRAN-style loop
// baseline. The paper reports Python at 0.42x the FORTRAN length overall,
// with module-level rows (FVT 686 vs 858, Riemann-C 253 vs 267) nearly
// equal — the DSL's win concentrates at the orchestration level.

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/util/loc.hpp"

using namespace cyclone;

namespace {

struct Row {
  const char* name;
  long dsl;
  long baseline;
};

long count(const std::string& rel, const std::string& filter = "") {
  return loc::count_dir(std::string(CYCLONE_SOURCE_DIR) + "/" + rel, filter).code_lines;
}

}  // namespace

int main() {
  bench::print_header("Table I — Lines of Code (code lines, comments/blank excluded)");

  // Module-level rows: the DSL stencil definition files vs. the loop files.
  const long dsl_fvt = count("src/fv3/stencils", "fv_tp2d");
  const long base_fvt = count("src/baseline", "transport");
  const long dsl_riem = count("src/fv3/stencils", "riem_solver");
  const long base_riem = count("src/baseline", "riemann");

  // Dycore-level: everything under src/fv3 (stencils + program assembly +
  // core glue + init) vs. everything under src/baseline. The model driver
  // both cores share lives in src/comm and is not counted as dycore code.
  const long dsl_core = count("src/fv3");
  const long base_core = count("src/baseline");

  std::printf("%-28s %12s %16s %10s\n", "Module", "DSL LoC", "Baseline LoC", "ratio");
  for (const Row& row : {Row{"Dynamical Core", dsl_core, base_core},
                         Row{"Finite Volume Transport", dsl_fvt, base_fvt},
                         Row{"Riemann Solver C", dsl_riem, base_riem}}) {
    std::printf("%-28s %12ld %16ld %9.2fx\n", row.name, row.dsl, row.baseline,
                row.baseline ? static_cast<double>(row.dsl) / row.baseline : 0.0);
  }
  bench::print_rule();
  std::printf(
      "Paper (Python vs FORTRAN): dycore 12450/29458 = 0.42x; FVT 686/858 = 0.80x;\n"
      "Riemann-C 253/267 = 0.95x. Shape to match: module-level near parity, the\n"
      "DSL does not balloon the numerics. (Our baseline omits the FORTRAN model's\n"
      "extra features — hydrostatic mode, nesting — so the dycore-level ratio\n"
      "here is closer to 1 than the paper's 0.42x; see EXPERIMENTS.md.)\n");

  // Code lines per src/ module, the size record simplicity changes report
  // before/after from.
  std::vector<std::string> modules;
  for (const auto& entry :
       std::filesystem::directory_iterator(std::string(CYCLONE_SOURCE_DIR) + "/src")) {
    if (entry.is_directory()) modules.push_back(entry.path().filename().string());
  }
  std::sort(modules.begin(), modules.end());
  std::printf("\n%-28s %12s\n", "src/ module", "code lines");
  for (const std::string& module : modules) {
    std::printf("%-28s %12ld\n", module.c_str(), count("src/" + module));
  }
  std::printf("%-28s %12ld\n", "total", count("src"));
  return 0;
}
