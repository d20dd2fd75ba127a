#include "core/exec/jit/jit.hpp"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <system_error>
#include <thread>

#include "core/exec/engine.hpp"
#include "core/exec/jit/codegen.hpp"

namespace cyclone::exec::jit {

namespace {

/// CPUs this process may run on (its affinity mask), at least 1.
size_t available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<size_t>(std::max(1, CPU_COUNT(&set)));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

/// Native kernels bake the i stride as 1 and restrict-qualify output rows,
/// so they only run when every slot is I-contiguous and no two slots alias
/// the same storage (a binding can map two formal fields onto one catalog
/// field). Anything else takes the tape engine, which handles both.
bool jit_runnable(const std::vector<SlotBind>& slots) {
  for (size_t a = 0; a < slots.size(); ++a) {
    if (slots[a].si != 1) return false;
    for (size_t b = a + 1; b < slots.size(); ++b) {
      if (slots[a].origin == slots[b].origin) return false;
    }
  }
  return true;
}

}  // namespace

std::shared_ptr<JitProgram> JitProgram::build(const std::string& tag,
                                              const StencilList& stencils, KernelCache& cache) {
  // One unit per distinct kernel source, shared by every stencil that
  // lowers to it.
  struct Unit {
    std::string name;  ///< first stencil lowering to it, for diagnostics
    std::string source;
    std::string key;
    std::shared_ptr<LoadedModule> mod;
    std::string error;
  };
  std::vector<Unit> units;
  std::map<std::string, size_t> unit_of_key;
  std::vector<size_t> unit_of_stencil;
  unit_of_stencil.reserve(stencils.size());
  for (const auto& [name, cs] : stencils) {
    std::string source = emit_kernel_unit(*cs);
    std::string key = KernelCache::make_key(source);
    auto [it, fresh] = unit_of_key.emplace(key, units.size());
    if (fresh) units.push_back(Unit{name, std::move(source), std::move(key), nullptr, {}});
    unit_of_stencil.push_back(it->second);
  }

  // Loaded or on disk first; then compile what is left, one host-compiler
  // process per worker. The calling thread is one of the workers.
  std::vector<size_t> misses;
  for (size_t u = 0; u < units.size(); ++u) {
    units[u].mod = cache.find(units[u].key);
    if (!units[u].mod) misses.push_back(u);
  }
  std::atomic<size_t> next{0};
  auto compile_misses = [&] {
    for (size_t m = next++; m < misses.size(); m = next++) {
      Unit& unit = units[misses[m]];
      try {
        unit.mod = cache.get(unit.key, unit.source, unit.error);
      } catch (const std::exception& e) {
        unit.error = e.what();
      }
    }
  };
  const size_t workers = std::min(misses.size(), available_cpus());
  std::vector<std::thread> helpers;
  try {
    while (helpers.size() + 1 < workers) helpers.emplace_back(compile_misses);
  } catch (const std::system_error&) {
    // Fewer helper threads than asked for; the queue still drains.
  }
  compile_misses();
  for (std::thread& t : helpers) t.join();

  auto jp = std::make_shared<JitProgram>();
  std::vector<KernelFn> fns(units.size(), nullptr);
  for (size_t u = 0; u < units.size(); ++u) {
    Unit& unit = units[u];
    if (unit.mod) {
      fns[u] = reinterpret_cast<KernelFn>(unit.mod->symbol(kKernelSymbol));
      if (fns[u]) {
        jp->modules_.push_back(unit.mod);
      } else {
        unit.error = "module " + unit.key + " lacks symbol " + kKernelSymbol;
      }
    }
    if (!unit.error.empty() && jp->error_.empty()) {
      jp->error_ = "program '" + tag + "', kernel '" + unit.name + "': " + unit.error;
    }
  }
  for (size_t s = 0; s < stencils.size(); ++s) {
    if (KernelFn fn = fns[unit_of_stencil[s]]) jp->kernels_[stencils[s].second.get()] = fn;
  }
  return jp;
}

void JitProgram::run(const CompiledStencil& cs, FieldCatalog& catalog, const StencilArgs& args,
                     const LaunchDomain& dom, const sched::Schedule& schedule,
                     const RunOptions& run) {
  const std::vector<SlotBind> slots = cs.resolve_slots(catalog, args, dom);
  const std::vector<double> params = cs.resolve_params(args);

  KernelFn fn = nullptr;
  auto it = kernels_.find(&cs);
  if (it != kernels_.end()) fn = it->second;
  if (!fn || !jit_runnable(slots)) {
    ++fallbacks_;
    if (!warned_) {
      warned_ = true;
      std::fprintf(stderr, "[cyclone-jit] falling back to tape engine for '%s': %s\n",
                   cs.stencil().name().c_str(),
                   !fn ? (error_.empty() ? "kernel not bound" : error_.c_str())
                       : "storage not JIT-runnable (strided or aliased slots)");
    }
    run_blocks(cs.blocks(), dom, slots, params, schedule, run);
    return;
  }

  // Resolve all bounds host-side with the engine's own clipping rules; the
  // kernel sees pre-digested rectangles. The walk order here must mirror
  // codegen's flat statement/interval numbering exactly.
  slot_tab_.resize(slots.size());
  for (size_t s = 0; s < slots.size(); ++s) {
    slot_tab_[s] = CyJitSlot{slots[s].origin, slots[s].sj, slots[s].sk, slots[s].koff,
                             slots[s].nk};
  }
  stmt_tab_.clear();
  iv_tab_.clear();
  long scratch_need = 0;
  for (const CBlock& block : cs.blocks()) {
    const bool parallel_block = block.order == dsl::IterOrder::Parallel;
    for (const CInterval& iv : block.intervals) {
      const int k0 = iv.k_range.lo_level(dom.nk);
      const int k1 = iv.k_range.hi_level(dom.nk);
      CyJitIv ve{k0, k1, 0, 0, 0, 0};
      bool have_uni = false;
      for (const CStmt& stmt : iv.body) {
        const SlotBind& out = slots[stmt.lhs_slot];
        int klo = parallel_block ? k0 - stmt.info.ext_k_lo_levels : k0;
        int khi = parallel_block ? k1 + stmt.info.ext_k_hi_levels : k1;
        klo = std::max(klo, -out.koff);
        khi = std::min(khi, out.nk - out.koff);
        const Rect rect = stmt_apply_rect(stmt, dom);
        stmt_tab_.push_back(CyJitBounds{rect.i.lo, rect.i.hi, rect.j.lo, rect.j.hi, klo, khi});
        if (khi <= klo || rect.empty()) continue;
        if (!have_uni) {
          ve.ilo = rect.i.lo;
          ve.ihi = rect.i.hi;
          ve.jlo = rect.j.lo;
          ve.jhi = rect.j.hi;
          have_uni = true;
        } else {
          ve.ilo = std::min(ve.ilo, rect.i.lo);
          ve.ihi = std::max(ve.ihi, rect.i.hi);
          ve.jlo = std::min(ve.jlo, rect.j.lo);
          ve.jhi = std::max(ve.jhi, rect.j.hi);
        }
        if (stmt.info.self_read_offset) {
          // Parallel maps buffer the whole apply volume for the two-phase
          // commit; the plane-sweep fallback buffers one plane at a time.
          const long planes = (parallel_block || !iv.columns_independent)
                                  ? (parallel_block ? khi - klo : 1)
                                  : 0;
          scratch_need = std::max(
              scratch_need, static_cast<long>(rect.i.size()) * rect.j.size() * planes);
        }
      }
      if (!have_uni) ve = CyJitIv{0, 0, 0, 0, 0, 0};
      iv_tab_.push_back(ve);
    }
  }
  if (scratch_need > static_cast<long>(scratch_.size())) {
    scratch_.resize(static_cast<size_t>(scratch_need));
  }

  CyJitArgs a{};
  a.slots = slot_tab_.data();
  a.params = params.data();
  a.stmts = stmt_tab_.data();
  a.intervals = iv_tab_.data();
  a.scratch = scratch_.data();
  a.tile_j = schedule.tile_j;
  a.k_as_map = schedule.k_as_map ? 1 : 0;
  a.num_threads = resolved_num_threads(run);
  a.parallel = run.parallel ? 1 : 0;
  fn(&a);
}

}  // namespace cyclone::exec::jit
