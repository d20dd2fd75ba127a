// JIT codegen backend: kernel-cache behavior (miss/hit/eviction, on-disk
// reuse across process "restarts", poisoned-entry recovery, concurrent
// gets), kernel sharing by content across stencils and programs, tape-engine
// fallback paths, and translation validation of the generated native
// kernels against the reference interpreter at 0 ULP — including the
// 200-program random sweep across thread counts and the full baroclinic
// dycore step.
//
// Naming note: suite/test names deliberately avoid the substrings the
// sanitizer CI jobs select on (they would dlopen libgomp-linked kernels
// into the clang/libomp TSan build). The one exception is
// JitCache.ConcurrentGetCompilesEachKeyOnce, which the TSan job selects by
// its full name: its probe modules contain no OpenMP code.

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/dsl/builder.hpp"
#include "core/exec/jit/cache.hpp"
#include "core/exec/jit/compiler.hpp"
#include "core/exec/jit/jit.hpp"
#include "core/util/rng.hpp"
#include "core/verify/random_program.hpp"
#include "core/verify/verify.hpp"
#include "fv3/dyn_core.hpp"
#include "fv3/state.hpp"
#include "grid/partitioner.hpp"

namespace cyclone {
namespace {

namespace fs = std::filesystem;
using exec::jit::CacheStats;
using exec::jit::KernelCache;

// Scratch paths live under the build tree (CYCLONE_TEST_TMPDIR), never the
// cwd: a test run from the source checkout must not litter it.
std::string test_tmp(const std::string& name) {
  fs::create_directories(CYCLONE_TEST_TMPDIR);
  return std::string(CYCLONE_TEST_TMPDIR) + "/" + name;
}

// Keep the process-global kernel cache (used by Program's Jit backend) in a
// build-tree directory instead of the user's ~/.cache. Static init runs
// before the global cache is first constructed.
const bool kCacheEnvReady = [] {
  if (!std::getenv("CYCLONE_JIT_CACHE_DIR")) {
    ::setenv("CYCLONE_JIT_CACHE_DIR", test_tmp("jit-global-cache").c_str(), 1);
  }
  return true;
}();

std::string fresh_dir(const std::string& name) {
  const std::string dir = test_tmp("jit-test-" + name);
  fs::remove_all(dir);
  return dir;
}

bool have_compiler() { return !exec::jit::host_compiler().empty(); }

constexpr const char* kProbeSrcA = "extern \"C\" int cy_probe(void) { return 7; }\n";
constexpr const char* kProbeSrcB = "extern \"C\" int cy_probe(void) { return 8; }\n";
constexpr const char* kProbeSrcC = "extern \"C\" int cy_probe(void) { return 9; }\n";

int call_probe(const std::shared_ptr<exec::jit::LoadedModule>& mod) {
  using Fn = int (*)();
  auto* fn = reinterpret_cast<Fn>(mod->symbol("cy_probe"));
  return fn ? fn() : -1;
}

// ------------------------------------------------------------- cache -----

TEST(JitCache, MissCompilesHitServesFromMemoryAndLruEvicts) {
  if (!have_compiler()) GTEST_SKIP() << "no host compiler";
  KernelCache cache(fresh_dir("lru"), /*max_memory_entries=*/2);
  std::string err;

  auto a = cache.get(KernelCache::make_key(kProbeSrcA), kProbeSrcA, err);
  ASSERT_TRUE(a) << err;
  EXPECT_EQ(call_probe(a), 7);
  auto a2 = cache.get(KernelCache::make_key(kProbeSrcA), kProbeSrcA, err);
  EXPECT_EQ(a.get(), a2.get());
  CacheStats st = cache.stats();
  EXPECT_EQ(st.compiles, 1);
  EXPECT_EQ(st.mem_hits, 1);
  EXPECT_EQ(st.evictions, 0);

  // Two more distinct entries overflow the 2-entry memory level.
  ASSERT_TRUE(cache.get(KernelCache::make_key(kProbeSrcB), kProbeSrcB, err)) << err;
  ASSERT_TRUE(cache.get(KernelCache::make_key(kProbeSrcC), kProbeSrcC, err)) << err;
  st = cache.stats();
  EXPECT_EQ(st.compiles, 3);
  EXPECT_EQ(st.evictions, 1);
  // The evicted entry ('a', least recently used) reloads from disk, not a
  // recompile; the handle obtained before eviction stays valid throughout.
  auto a3 = cache.get(KernelCache::make_key(kProbeSrcA), kProbeSrcA, err);
  ASSERT_TRUE(a3) << err;
  EXPECT_EQ(call_probe(a3), 7);
  EXPECT_EQ(call_probe(a), 7);
  st = cache.stats();
  EXPECT_EQ(st.compiles, 3);
  EXPECT_EQ(st.disk_hits, 1);
}

TEST(JitCache, DiskEntriesSurviveRestart) {
  if (!have_compiler()) GTEST_SKIP() << "no host compiler";
  const std::string dir = fresh_dir("restart");
  const std::string key = KernelCache::make_key(kProbeSrcA);
  std::string err;
  {
    KernelCache first(dir);
    ASSERT_TRUE(first.get(key, kProbeSrcA, err)) << err;
    EXPECT_EQ(first.stats().compiles, 1);
  }
  // A fresh cache instance over the same directory models a new process:
  // the module loads from disk with zero compiler invocations.
  KernelCache second(dir);
  auto mod = second.get(key, kProbeSrcA, err);
  ASSERT_TRUE(mod) << err;
  EXPECT_EQ(call_probe(mod), 7);
  const CacheStats st = second.stats();
  EXPECT_EQ(st.compiles, 0);
  EXPECT_EQ(st.disk_hits, 1);
}

TEST(JitCache, PoisonedDiskEntryIsRebuiltNotFatal) {
  if (!have_compiler()) GTEST_SKIP() << "no host compiler";
  const std::string dir = fresh_dir("poison");
  const std::string key = KernelCache::make_key(kProbeSrcA);
  std::string err;
  {
    KernelCache first(dir);
    ASSERT_TRUE(first.get(key, kProbeSrcA, err)) << err;
  }
  {
    std::ofstream so(dir + "/" + key + ".so", std::ios::trunc);
    so << "this is not a shared object";
  }
  KernelCache second(dir);
  auto mod = second.get(key, kProbeSrcA, err);
  ASSERT_TRUE(mod) << err;
  EXPECT_EQ(call_probe(mod), 7);
  const CacheStats st = second.stats();
  EXPECT_EQ(st.poisoned, 1);
  EXPECT_EQ(st.compiles, 1);
  EXPECT_EQ(st.disk_hits, 0);
}

/// One in-flight compile per key: threads racing on one key all receive
/// the single module its one compile produced, while distinct keys compile
/// side by side (the host compile runs outside the cache lock). Runs under
/// TSan in CI.
TEST(JitCache, ConcurrentGetCompilesEachKeyOnce) {
  if (!have_compiler()) GTEST_SKIP() << "no host compiler";
  constexpr int kThreads = 4;
  KernelCache cache(fresh_dir("concurrent"));

  std::vector<std::shared_ptr<exec::jit::LoadedModule>> same(kThreads);
  std::vector<std::string> errors(kThreads);
  {
    std::vector<std::thread> threads;
    const std::string key = KernelCache::make_key(kProbeSrcA);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] { same[t] = cache.get(key, kProbeSrcA, errors[t]); });
    }
    for (std::thread& t : threads) t.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_TRUE(same[t]) << errors[t];
    EXPECT_EQ(same[t].get(), same[0].get()) << "thread " << t << " got a second module";
  }
  EXPECT_EQ(call_probe(same[0]), 7);
  EXPECT_EQ(cache.stats().compiles, 1);

  std::vector<std::string> sources;
  for (int t = 0; t < kThreads; ++t) {
    sources.push_back("extern \"C\" int cy_probe(void) { return " + std::to_string(100 + t) +
                      "; }\n");
  }
  std::vector<std::shared_ptr<exec::jit::LoadedModule>> distinct(kThreads);
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        distinct[t] = cache.get(KernelCache::make_key(sources[t]), sources[t], errors[t]);
      });
    }
    for (std::thread& t : threads) t.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_TRUE(distinct[t]) << errors[t];
    EXPECT_EQ(call_probe(distinct[t]), 100 + t);
  }
  EXPECT_EQ(cache.stats().compiles, 1 + kThreads);
}

// -------------------------------------------------- kernel sharing -----

dsl::StencilFunc cross_stencil(const std::string& name = "cross") {
  dsl::StencilBuilder b(name);
  auto in = b.field("in");
  auto out = b.field("out");
  b.parallel().full().assign(out, in(1, 0) + in(-1, 0) + in(0, 1) + in(0, -1));
  return b.build();
}

dsl::StencilFunc blend_stencil(const std::string& name, double weight) {
  dsl::StencilBuilder b(name);
  auto in = b.field("in");
  auto out = b.field("out");
  b.parallel().full().assign(out, weight * dsl::E(in) + in(0, 1));
  return b.build();
}

/// One node per (stencil, in, out) triple, each node its own StencilFunc.
struct NodeSpec {
  dsl::StencilFunc stencil;
  std::string in, out;
};

ir::Program chain_program(const std::string& name, const std::vector<NodeSpec>& nodes) {
  ir::Program p(name);
  ir::State state{"s", {}};
  for (const NodeSpec& n : nodes) {
    exec::StencilArgs args;
    args.bind = {{"in", n.in}, {"out", n.out}};
    state.nodes.push_back(ir::SNode::make_stencil(n.stencil.name(), n.stencil, args));
  }
  p.append_state(std::move(state));
  return p;
}

exec::jit::JitProgram::StencilList stencil_list(const std::vector<NodeSpec>& nodes) {
  exec::jit::JitProgram::StencilList list;
  for (const NodeSpec& n : nodes) {
    list.emplace_back(n.stencil.name(), std::make_shared<exec::CompiledStencil>(n.stencil));
  }
  return list;
}

exec::RunOptions jit_run(int threads) {
  exec::RunOptions run;
  run.backend = exec::ExecBackend::Jit;
  run.num_threads = threads;
  return run;
}

/// Kernel objects are addressed by generated source, not by stencil
/// identity or name: content-identical stencils share one object within a
/// program, and a second program reuses every kernel it has in common with
/// the first, compiling only the one it adds.
TEST(JitKernelSharing, IdenticalKernelsCompileOnceWithinAndAcrossPrograms) {
  if (!have_compiler()) GTEST_SKIP() << "no host compiler";
  // "cross" and "cross_copy" are distinct StencilFunc objects with one body.
  const std::vector<NodeSpec> first = {{cross_stencil(), "f0", "f1"},
                                       {cross_stencil("cross_copy"), "f1", "f2"},
                                       {blend_stencil("blend", 0.5), "f2", "f3"}};
  const std::vector<NodeSpec> second = {{cross_stencil(), "f0", "f1"},
                                        {blend_stencil("blend", 0.5), "f1", "f2"},
                                        {blend_stencil("blend", 0.25), "f2", "f3"}};
  KernelCache cache(fresh_dir("sharing"));
  auto a = exec::jit::JitProgram::build("first", stencil_list(first), cache);
  ASSERT_TRUE(a->native()) << a->error();
  EXPECT_EQ(cache.stats().compiles, 2) << "cross and cross_copy must share one object";

  auto b = exec::jit::JitProgram::build("second", stencil_list(second), cache);
  ASSERT_TRUE(b->native()) << b->error();
  const CacheStats st = cache.stats();
  EXPECT_EQ(st.compiles, 3) << "only the 0.25 blend is new in the second program";
  EXPECT_EQ(st.mem_hits, 2);

  for (const auto* nodes : {&first, &second}) {
    const auto report =
        verify::check_parallel_agrees(chain_program("sharing", *nodes), jit_run(2));
    EXPECT_TRUE(report.equivalent) << report.first_failure();
  }
}

// -------------------------------------------------------- fallbacks -----

ir::Program cross_program(exec::StencilArgs args = {}) {
  ir::Program p("cross");
  p.append_state(ir::State{"s", {ir::SNode::make_stencil("cross", cross_stencil(), args)}});
  return p;
}

TEST(JitBackend, AliasedSlotBindingTakesTapePathWithSameValues) {
  if (!have_compiler()) GTEST_SKIP() << "no host compiler";
  auto cs = std::make_shared<exec::CompiledStencil>(cross_stencil());
  KernelCache cache(fresh_dir("alias"));
  auto jp = exec::jit::JitProgram::build("alias", {{"cross", cs}}, cache);
  ASSERT_TRUE(jp->native()) << jp->error();

  // Both formals bound to one catalog field: slots alias, so the restrict-
  // carrying kernel must not run. The launch still executes (tape engine)
  // and produces exactly what the engine produces.
  exec::StencilArgs args;
  args.bind = {{"in", "f"}, {"out", "f"}};
  const exec::LaunchDomain dom{8, 7, 4};
  const ir::Program aliased = cross_program(args);
  FieldCatalog jc = verify::make_test_catalog(aliased, aliased, dom, 0x5EED);
  FieldCatalog tc = verify::make_test_catalog(aliased, aliased, dom, 0x5EED);
  jp->run(*cs, jc, args, dom, sched::Schedule{}, exec::RunOptions{});
  EXPECT_EQ(jp->fallbacks(), 1);
  cs->run(tc, args, dom);
  const auto div = verify::compare_fields_bitwise("f", jc.at("f"), tc.at("f"));
  EXPECT_TRUE(div.ok) << "aliased fallback diverged from tape engine";
}

TEST(JitBackend, UnbuildableModuleFallsBackToTape) {
  auto cs = std::make_shared<exec::CompiledStencil>(cross_stencil());
  // A cache rooted somewhere unwritable can never produce a module; the
  // build must degrade, not throw, and runs must still compute.
  KernelCache cache("/proc/cyclone-jit-nonexistent/cache");
  auto jp = exec::jit::JitProgram::build("broken", {{"cross", cs}}, cache);
  EXPECT_FALSE(jp->native());
  EXPECT_FALSE(jp->error().empty());

  const exec::LaunchDomain dom{6, 5, 3};
  const ir::Program plain = cross_program();
  FieldCatalog jc = verify::make_test_catalog(plain, plain, dom, 0xF00D);
  FieldCatalog tc = verify::make_test_catalog(plain, plain, dom, 0xF00D);
  jp->run(*cs, jc, {}, dom, sched::Schedule{}, exec::RunOptions{});
  EXPECT_EQ(jp->fallbacks(), 1);
  cs->run(tc, {}, dom);
  const auto div = verify::compare_fields_bitwise("out", jc.at("out"), tc.at("out"));
  EXPECT_TRUE(div.ok);
}

TEST(JitBackend, MissingCompilerDegradesGracefully) {
  // End-to-end through the CLI so compiler discovery itself (a process-wide
  // memoized lookup) sees the broken CYCLONE_JIT_CXX.
  const char* tool = "../tools/verify_pipeline";
  if (!fs::exists(tool)) GTEST_SKIP() << "verify_pipeline not built here";
  const std::string cache_dir = test_tmp("jit-test-nocc");
  const std::string log_path = test_tmp("jit-test-nocc.out");
  const std::string cmd = std::string("CYCLONE_JIT_CXX=/nonexistent/cxx CYCLONE_JIT_CACHE_DIR=") +
                          cache_dir + " " + tool +
                          " --program fuzz:1 --backend jit --compare-serial > " + log_path +
                          " 2>&1";
  const int rc = std::system(cmd.c_str());
  EXPECT_EQ(rc, 0) << "jit backend without a compiler must still verify clean";
  std::ifstream log(log_path);
  std::string text((std::istreambuf_iterator<char>(log)), std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("falling back to tape engine"), std::string::npos) << text;
}

// ----------------------------------------- translation validation -----

TEST(JitBackend, CrossStencilBitwiseVsInterpreter) {
  if (!have_compiler()) GTEST_SKIP() << "no host compiler";
  const auto report = verify::check_parallel_agrees(cross_program(), jit_run(2));
  EXPECT_TRUE(report.equivalent) << report.first_failure();
}

/// The acceptance sweep: 200 random programs (same seed family as the
/// engine's determinism sweep), each run on the JIT backend at thread
/// counts {1, 2, 7} over a reduced domain list — bulk, corner placement on
/// a larger global tile, and a degenerate strip — and compared bitwise
/// against the serial reference interpreter. One compiled module per
/// kernel serves all thread counts (schedule knobs are runtime arguments),
/// and kernels shared between programs compile once.
TEST(JitSweep, TwoHundredRandomProgramsBitwiseAcrossThreads) {
  if (!have_compiler()) GTEST_SKIP() << "no host compiler";
  constexpr uint64_t kSweepBase = 0x9A7A11E1ull;  // matches the engine sweep
  verify::VerifyOptions vo;
  exec::LaunchDomain corner{9, 7, 6};
  corner.gni = 18;
  corner.gnj = 14;
  corner.gi0 = 9;
  corner.gj0 = 7;
  vo.domains = {exec::LaunchDomain{13, 11, 6}, corner, exec::LaunchDomain{1, 6, 5}};
  for (uint64_t i = 0; i < 200; ++i) {
    const uint64_t seed = Rng::mix(kSweepBase, i);
    const ir::Program p = verify::random_program(seed);
    for (const int threads : {1, 2, 7}) {
      const auto report = verify::check_parallel_agrees(p, jit_run(threads), -1, -1, vo);
      EXPECT_TRUE(report.equivalent)
          << "seed=" << seed << " threads=" << threads << " " << report.first_failure();
      if (!report.equivalent) return;  // one reproducer is enough to debug
    }
  }
}

/// Full baroclinic dynamical-core step on the JIT backend, bitwise against
/// the reference interpreter on the model's own placement.
TEST(JitBackend, DycoreStepBitwiseVsInterpreter) {
  if (!have_compiler()) GTEST_SKIP() << "no host compiler";
  fv3::FvConfig cfg;
  cfg.npx = 12;
  cfg.npz = 8;
  cfg.ntracers = 2;
  grid::Partitioner part(cfg.npx, 1, 1);
  fv3::ModelState state(cfg, part, 0);
  const ir::Program prog = fv3::build_dycore_program(state);
  verify::VerifyOptions vo;
  vo.domains = {state.domain()};
  const auto report =
      verify::check_parallel_agrees(verify::without_callbacks(prog), jit_run(2), -1, -1, vo);
  EXPECT_TRUE(report.equivalent) << report.first_failure();
}

}  // namespace
}  // namespace cyclone
