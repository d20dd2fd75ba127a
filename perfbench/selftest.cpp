// Self-test of the benchmark's correctness gates: each gate passes on the
// real outputs and fails when a single bit of them is flipped.
//   perfbench_selftest   (exit 0 = every check behaved)
#include <cstdio>
#include <cstring>

#include "bench.hpp"
#include "ensemble/service.hpp"
#include "fv3/driver.hpp"
#include "fv3/init/baroclinic.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

void flip_low_bit(double& v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  bits ^= 1u;
  std::memcpy(&v, &bits, sizeof bits);
}

/// Dycore gate: two identical runs agree; one flipped mantissa bit in one
/// owned cell of one rank makes the assembled records differ.
void dycore_gate() {
  cyclone::fv3::FvConfig cfg;
  cfg.npx = 12;
  cfg.npz = 4;
  cfg.ntracers = 1;
  cyclone::exec::RunOptions run;
  run.backend = cyclone::exec::ExecBackend::OpenMP;
  run.num_threads = 1;
  auto stepped = [&] {
    auto model = std::make_unique<cyclone::fv3::DistributedModel>(cfg, 6);
    model->set_run_options(run);
    cyclone::fv3::init_baroclinic(*model);
    model->step();
    return model;
  };
  auto a = stepped();
  auto b = stepped();
  const auto sums_a = perfbench::dycore_checksums(*a, cfg.ntracers);
  expect(perfbench::compare_fields(sums_a, perfbench::dycore_checksums(*b, cfg.ntracers)).empty(),
         "dycore gate passes on identical runs");
  flip_low_bit(b->state(3).f("pt")(5, 7, 2));
  expect(!perfbench::compare_fields(sums_a, perfbench::dycore_checksums(*b, cfg.ntracers)).empty(),
         "dycore gate fails on a one-bit difference in one cell");
}

/// Forecast gate: a served corpus-seed member matches its golden; one bit
/// flipped in its checksum or in one probe sample fails the comparison.
void forecast_gate() {
  cyclone::ensemble::ForecastService::Options so;
  so.run.num_threads = 1;
  cyclone::ensemble::ForecastService service(so);
  cyclone::ensemble::ForecastRequest req;
  req.core = "swe";
  req.ic = "hill";
  req.npx = 12;
  req.ntracers = 2;
  req.steps = 2;
  req.members = 2;
  req.seed = 0x5EEDC0DEull;
  cyclone::ensemble::ForecastResult res = service.submit(req).result.get();
  expect(res.ok && res.members.size() == 2, "service serves the corpus request");
  if (!res.ok || res.members.size() != 2) return;
  const auto golden = cyclone::verify::GoldenSnapshot::load(perfbench::corpus_dir() +
                                                            "/ens_swe_c12_hill_m4.gold");
  auto& member = res.members[1];
  expect(perfbench::compare_to_golden(golden, member.spec.index, member.fields).empty(),
         "served member matches the golden");
  auto checksum_flip = member.fields;
  checksum_flip[0].checksum ^= 1u;
  expect(!perfbench::compare_to_golden(golden, member.spec.index, checksum_flip).empty(),
         "golden gate fails on a one-bit checksum difference");
  auto sample_flip = member.fields;
  sample_flip.back().samples.front() ^= 1u << 20;
  expect(!perfbench::compare_to_golden(golden, member.spec.index, sample_flip).empty(),
         "golden gate fails on a one-bit sample difference");
  expect(!perfbench::compare_to_golden(golden, member.spec.index + 1, member.fields).empty(),
         "golden gate fails on another member's record");
}

}  // namespace

int main() {
  try {
    dycore_gate();
    forecast_gate();
  } catch (const std::exception& e) {
    std::printf("FAIL exception: %s\n", e.what());
    return 1;
  }
  std::printf("%s\n", failures ? "SELFTEST FAILED" : "selftest passed");
  return failures ? 1 : 0;
}
