#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "comm/runtime.hpp"
#include "comm/verify_distributed.hpp"
#include "core/dsl/builder.hpp"
#include "core/util/rng.hpp"
#include "core/verify/random_program.hpp"
#include "fv3/driver.hpp"
#include "grid/partitioner.hpp"

namespace cyclone::comm {
namespace {

using dsl::E;
using dsl::StencilBuilder;

// ---- Test programs ---------------------------------------------------------

/// exchange(q) -> lap = 5-point laplacian of q -> out = 5-point of lap.
/// Transitive read radius of the compute state is 2.
ir::Program make_diffusion_program() {
  ir::Program p("diffusion");
  p.append_state(ir::State{"hx", {ir::SNode::make_halo_exchange("hx.q", {"q"}, 3)}});
  StencilBuilder b("diffuse");
  auto q = b.field("q");
  auto lap = b.field("lap");
  auto out = b.field("out");
  b.parallel().full().assign(
      lap, q(1, 0) + q(-1, 0) + q(0, 1) + q(0, -1) - E(q) * 4.0);
  b.parallel().full().assign(
      out, E(q) + (lap(1, 0) + lap(-1, 0) + lap(0, 1) + lap(0, -1) - E(lap) * 4.0) * 0.1);
  p.append_state(ir::State{"compute", {ir::SNode::make_stencil("diffuse", b.build())}});
  return p;
}

/// Vector exchange (u, v) followed by a divergence-like stencil. Exercises
/// the rotated vector path (sign flips across cube faces) under overlap.
ir::Program make_vector_program() {
  ir::Program p("vector");
  p.append_state(
      ir::State{"hx", {ir::SNode::make_halo_exchange("hx.uv", {"u", "v"}, 3, true)}});
  StencilBuilder b("div");
  auto u = b.field("u");
  auto v = b.field("v");
  auto d = b.field("d");
  b.parallel().full().assign(d, u(1, 0) - u(-1, 0) + v(0, 1) - v(0, -1));
  p.append_state(ir::State{"compute", {ir::SNode::make_stencil("div", b.build())}});
  return p;
}

/// Two program passes through a loop: the second trip consumes halos the
/// first trip's compute dirtied, so the exchange must re-run correctly.
ir::Program make_looped_program() {
  ir::Program p("looped");
  const int hx = p.add_state(ir::State{"hx", {ir::SNode::make_halo_exchange("hx.q", {"q"}, 3)}});
  StencilBuilder b("smooth");
  auto q = b.field("q");
  b.parallel().full().assign(q, (q(1, 0) + q(-1, 0) + q(0, 1) + q(0, -1) + E(q) * 4.0) * 0.125);
  const int sm = p.add_state(ir::State{"smooth", {ir::SNode::make_stencil("smooth", b.build())}});
  p.control_flow().children.push_back(
      ir::CFNode::loop("it", 3, {ir::CFNode::state_ref(hx), ir::CFNode::state_ref(sm)}));
  return p;
}

// ---- Overlap analysis ------------------------------------------------------

TEST(Runtime, OverlapAnalysisComposesReadRadius) {
  const ir::Program p = make_diffusion_program();
  const OverlapPlan plan = analyze_overlap(p, 1);
  EXPECT_TRUE(plan.splittable) << plan.reason;
  // lap reads q at offset 1 (depth 1); out reads lap at offset 1 on top.
  EXPECT_EQ(plan.radius, 2);
  // The halo-only state itself is not a compute state.
  EXPECT_FALSE(analyze_overlap(p, 0).splittable);
}

TEST(Runtime, OverlapAnalysisRejectsAntiDependence) {
  // a = q(+1); q = a: the rim pass would re-read a cell of q that the full
  // launch already overwrote.
  ir::Program p("anti");
  StencilBuilder b("anti");
  auto q = b.field("q");
  auto a = b.field("a");
  b.parallel().full().assign(a, q(1, 0) * 2.0);
  b.parallel().full().assign(q, E(a) + 1.0);
  p.append_state(ir::State{"s", {ir::SNode::make_stencil("anti", b.build())}});
  const OverlapPlan plan = analyze_overlap(p, 0);
  EXPECT_FALSE(plan.splittable);
  EXPECT_NE(plan.reason.find("'q'"), std::string::npos) << plan.reason;
}

TEST(Runtime, OverlapAnalysisRejectsSelfOffsetRead) {
  // q = q(+1): reads its own LHS at a horizontal offset.
  ir::Program p("shift");
  StencilBuilder b("shift");
  auto q = b.field("q");
  b.parallel().full().assign(q, q(1, 0));
  p.append_state(ir::State{"s", {ir::SNode::make_stencil("shift", b.build())}});
  EXPECT_FALSE(analyze_overlap(p, 0).splittable);
}

TEST(Runtime, OverlapAnalysisRejectsMismatchedWriterExtents) {
  // Two nodes write the same field with different apply extensions: a rim
  // launch would run the wider writer over cells whose final value the full
  // launch took from the narrower one.
  ir::Program p("outdep");
  auto make_set = [](const std::string& label, double value) {
    StencilBuilder b(label);
    auto q = b.field("q");
    auto src = b.field("src");
    b.parallel().full().assign(q, E(src) * 0.0 + value);
    return b.build();
  };
  ir::SNode wide = ir::SNode::make_stencil("wide", make_set("wide", 1.0));
  wide.ext = exec::DomainExt{1, 1, 1, 1};
  ir::SNode narrow = ir::SNode::make_stencil("narrow", make_set("narrow", 2.0));
  p.append_state(ir::State{"s", {std::move(wide), std::move(narrow)}});
  const OverlapPlan plan = analyze_overlap(p, 0);
  EXPECT_FALSE(plan.splittable);
  EXPECT_NE(plan.reason.find("extension"), std::string::npos) << plan.reason;
}

TEST(Runtime, OverlapAnalysisAllowsVerticalRecurrence) {
  // Column sweep reading its own k-1 value: every sub-launch re-runs the
  // whole column, so the recurrence recomputes identically.
  ir::Program p("cumsum");
  StencilBuilder b("cumsum");
  auto a = b.field("a");
  b.forward().interval(dsl::inner_levels(1, 0)).assign(a, a.at_k(-1) + E(a));
  p.append_state(ir::State{"s", {ir::SNode::make_stencil("cumsum", b.build())}});
  const OverlapPlan plan = analyze_overlap(p, 0);
  EXPECT_TRUE(plan.splittable) << plan.reason;
  EXPECT_EQ(plan.radius, 0);
}

// ---- Concurrent runtime ----------------------------------------------------

TEST(Distributed, DiffusionAgreesAcrossRankCountsAndBudgets) {
  // The acceptance sweep: rank counts x thread budgets x >= 20 randomized
  // arrival orders, overlap on and off, all bitwise against lockstep.
  const ir::Program p = make_diffusion_program();
  for (const int nranks : {6, 24}) {
    const grid::Partitioner part = grid::Partitioner::for_ranks(12, nranks);
    verify::DistributedVerifyOptions opt;
    opt.repetitions = 20;
    const verify::EquivalenceReport report =
        verify::check_distributed_agrees(p, part, 3, 3, opt);
    EXPECT_TRUE(report.equivalent) << nranks << " ranks: " << report.first_failure();
    // budgets {1,2} x overlap {on,off} x 20 reps.
    EXPECT_EQ(report.domains.size(), 80u);
  }
}

TEST(Distributed, VectorExchangeAgrees) {
  const ir::Program p = make_vector_program();
  const grid::Partitioner part = grid::Partitioner::for_ranks(12, 6);
  verify::DistributedVerifyOptions opt;
  opt.repetitions = 5;
  const verify::EquivalenceReport report = verify::check_distributed_agrees(p, part, 4, 3, opt);
  EXPECT_TRUE(report.equivalent) << report.first_failure();
}

TEST(Distributed, LoopedExchangeAgreesOverSteps) {
  const ir::Program p = make_looped_program();
  const grid::Partitioner part = grid::Partitioner::for_ranks(12, 6);
  verify::DistributedVerifyOptions opt;
  opt.repetitions = 5;
  opt.steps = 2;
  const verify::EquivalenceReport report = verify::check_distributed_agrees(p, part, 3, 3, opt);
  EXPECT_TRUE(report.equivalent) << report.first_failure();
}

TEST(Distributed, OverlapActuallySplitsStates) {
  // With overlap on, the diffusion step must be executed as interior + rim
  // (observable through the runtime stats), and still match lockstep (the
  // agreement is asserted by the sweep above; here we pin the mechanism).
  const ir::Program p = make_diffusion_program();
  const grid::Partitioner part = grid::Partitioner::for_ranks(12, 6);
  const HaloUpdater halo(part, 3);
  verify::SeededRanks set(p, part, 3, 0xABC);

  ConcurrentRuntime rt(p, halo, set.ranks, RuntimeOptions{});
  EXPECT_TRUE(rt.plan(1).splittable);
  rt.step();
  rt.step();
  EXPECT_EQ(rt.stats().steps, 2);
  EXPECT_EQ(rt.stats().halo_states, 2);
  EXPECT_EQ(rt.stats().overlapped_states, 2);
}

/// One lockstep member: its own program copy, halo updater, comm and
/// seeded per-rank catalogs.
struct LockstepFixture {
  LockstepFixture(const ir::Program& p, const grid::Partitioner& part, int nk, uint64_t seed)
      : program(p), halo(part, 3), comm(part.num_ranks()), set(p, part, nk, seed) {}
  LockstepMember member() { return LockstepMember{&program, &halo, &set.ranks, &comm}; }

  ir::Program program;
  HaloUpdater halo;
  SimComm comm;
  verify::SeededRanks set;
};

TEST(Distributed, MemberLoopLockstepMatchesOneMemberPasses) {
  // k members advanced by one run_lockstep_step pass (state loop outer,
  // member loop inner) must each end bitwise equal to a separate
  // one-member run over the same data.
  std::vector<ir::Program> programs = {make_diffusion_program(), make_vector_program(),
                                       make_looped_program()};
  for (const uint64_t seed : {3u, 17u, 42u}) programs.push_back(verify::random_program(seed));
  const grid::Partitioner part = grid::Partitioner::for_ranks(12, 6);
  constexpr int kNk = 4;
  constexpr int kSteps = 2;
  for (size_t pi = 0; pi < programs.size(); ++pi) {
    const ir::Program& p = programs[pi];
    for (const int k : {1, 3}) {
      std::vector<std::unique_ptr<LockstepFixture>> batched;
      std::vector<LockstepMember> members;
      for (int m = 0; m < k; ++m) {
        batched.push_back(std::make_unique<LockstepFixture>(p, part, kNk, Rng::mix(0xBA7C, m)));
        members.push_back(batched.back()->member());
      }
      for (int s = 0; s < kSteps; ++s) run_lockstep_step(members);

      for (int m = 0; m < k; ++m) {
        LockstepFixture solo(p, part, kNk, Rng::mix(0xBA7C, m));
        for (int s = 0; s < kSteps; ++s) {
          run_lockstep_step(solo.program, solo.halo, solo.set.ranks, solo.comm);
        }
        EXPECT_EQ(batched[static_cast<size_t>(m)]->comm.total_messages(),
                  solo.comm.total_messages());
        verify::DomainResult dr;
        verify::compare_rank_sets(dr, solo.set.ranks, batched[static_cast<size_t>(m)]->set.ranks);
        EXPECT_TRUE(dr.ok) << "program " << pi << " k=" << k << " member " << m << ": "
                           << dr.fields.front().field << " diverges";
      }
    }
  }
}

TEST(Distributed, DycoreConcurrentMatchesLockstepBitwise) {
  // Full FV3 program graph: acoustic loop, transport, remap, every halo
  // node — two timesteps, compared field by field at 0 ULP.
  fv3::FvConfig cfg;
  cfg.npx = 12;
  cfg.npz = 8;
  cfg.k_split = 1;
  cfg.n_split = 2;
  cfg.ntracers = 2;
  cfg.dt = 300.0;

  // One configuration: thread budget 2, overlap on, one jitter seed.
  verify::DistributedVerifyOptions opt;
  opt.thread_budgets = {2};
  opt.repetitions = 1;
  opt.include_overlap_off = false;
  opt.steps = 2;
  fv3::DistributedModel lockstep(cfg, 6);
  fv3::DistributedModel concurrent(cfg, 6);
  const verify::EquivalenceReport report =
      verify::check_distributed_agrees(lockstep, concurrent, "baro", opt);
  EXPECT_TRUE(report.equivalent) << report.first_failure();
  EXPECT_EQ(report.domains.size(), 1u);
}

TEST(Distributed, RankFailurePropagatesAndAbortsChannel) {
  // A program whose stencil divides by a field that rank 0 zeroes is too
  // contrived; instead drive the failure through a rank-count mismatch at
  // construction and through a missing field at step time.
  const ir::Program p = make_diffusion_program();
  const grid::Partitioner part = grid::Partitioner::for_ranks(12, 6);
  const HaloUpdater halo(part, 3);
  verify::SeededRanks set(p, part, 3, 0xABC);
  // Rank 2's catalog is empty: its thread throws on the first field lookup,
  // and the abort must unblock every other rank's recv.
  set.cats[2] = FieldCatalog{};
  RuntimeOptions opt;
  opt.channel.recv_timeout_seconds = 30.0;
  ConcurrentRuntime rt(p, halo, set.ranks, opt);
  EXPECT_THROW(rt.step(), Error);
}

// ---- Channel ---------------------------------------------------------------

TEST(Channel, RecvBlocksUntilCrossThreadSend) {
  ConcurrentComm comm(2);
  std::thread sender([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    comm.isend(0, 1, 4, {42.0});
  });
  const auto data = comm.recv(1, 0, 4);  // blocks until the send lands
  sender.join();
  ASSERT_EQ(data.size(), 1u);
  EXPECT_EQ(data[0], 42.0);
  EXPECT_TRUE(comm.all_drained());
}

TEST(Channel, FifoPreservedUnderJitter) {
  ConcurrentComm::Options opt;
  opt.arrival_jitter_seed = 7;
  opt.arrival_jitter_max_us = 300;
  ConcurrentComm comm(2, opt);
  for (int i = 0; i < 16; ++i) comm.isend(0, 1, 1, {static_cast<double>(i)});
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(comm.recv(1, 0, 1)[0], static_cast<double>(i));
  }
}

TEST(Channel, AbortWakesBlockedRecv) {
  ConcurrentComm comm(2);
  std::thread aborter([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    comm.abort("neighbor died");
  });
  try {
    (void)comm.recv(1, 0, 4);
    FAIL() << "expected abort to interrupt recv";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("neighbor died"), std::string::npos);
  }
  aborter.join();
}

TEST(Channel, ConcurrentAbortsKeepFirstReasonAndAppendRest) {
  // Two ranks failing at once race to abort the channel. The first reason
  // must win the headline and the second must still be recorded — losing
  // either would hide a root cause from the failure report.
  for (int trial = 0; trial < 20; ++trial) {
    ConcurrentComm comm(2);
    std::thread a([&] { comm.abort("rank 0 died"); });
    std::thread b([&] { comm.abort("rank 1 died"); });
    a.join();
    b.join();
    try {
      (void)comm.recv(1, 0, 4);
      FAIL() << "expected abort to interrupt recv";
    } catch (const Error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("rank 0 died"), std::string::npos) << msg;
      EXPECT_NE(msg.find("rank 1 died"), std::string::npos) << msg;
      EXPECT_NE(msg.find("; also: "), std::string::npos) << msg;
    }
  }
}

TEST(Channel, TimeoutErrorListsPendingMessages) {
  ConcurrentComm::Options opt;
  opt.recv_timeout_seconds = 0.05;
  ConcurrentComm comm(3, opt);
  comm.isend(0, 1, 7, {1.0, 2.0, 3.0});
  try {
    (void)comm.recv(2, 1, 5);  // never sent
    FAIL() << "expected timeout";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("recv deadlock"), std::string::npos) << msg;
    EXPECT_NE(msg.find("0->1 tag 7"), std::string::npos) << msg;
  }
}

TEST(Channel, CountersConsistentUnderConcurrency) {
  ConcurrentComm comm(4);
  std::vector<std::thread> threads;
  for (int src = 0; src < 4; ++src) {
    threads.emplace_back([&, src] {
      for (int m = 0; m < 50; ++m) {
        comm.isend(src, (src + 1) % 4, 1, {1.0, 2.0});
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(comm.total_messages(), 200);
  EXPECT_EQ(comm.total_bytes(), 200 * 2 * 8);
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(comm.messages_from(r), 50);
    EXPECT_EQ(comm.bytes_from(r), 50 * 2 * 8);
  }
  for (int dst = 0; dst < 4; ++dst) {
    for (int m = 0; m < 50; ++m) (void)comm.recv(dst, (dst + 3) % 4, 1);
  }
  EXPECT_TRUE(comm.all_drained());
}

}  // namespace
}  // namespace cyclone::comm
