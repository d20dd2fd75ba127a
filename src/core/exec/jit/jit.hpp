#pragma once

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/exec/jit/abi.hpp"
#include "core/exec/jit/cache.hpp"
#include "core/exec/tape.hpp"

namespace cyclone::exec::jit {

/// All stencils of one ir::Program lowered to native kernels, one
/// content-addressed object per distinct kernel body (see
/// emit_kernel_unit). Building resolves the kernels already loaded or on
/// disk first, then compiles the missing ones concurrently, with at most
/// one host-compiler process per CPU available to the process. Building
/// never throws on toolchain problems: a stencil whose kernel cannot be
/// produced degrades to the tape engine per call, with one logged warning.
class JitProgram {
 public:
  using StencilList =
      std::vector<std::pair<std::string, std::shared_ptr<const CompiledStencil>>>;

  /// Lower, compile (or fetch from `cache`), and bind each stencil's kernel.
  /// `tag` names the program in diagnostics (usually the program name).
  static std::shared_ptr<JitProgram> build(const std::string& tag, const StencilList& stencils,
                                           KernelCache& cache = KernelCache::global());

  /// True when every stencil has a bound kernel; false means at least one
  /// stencil falls back to the tape engine on every run().
  [[nodiscard]] bool native() const { return error_.empty(); }

  /// Why build() fell back, naming the first kernel that failed ("" when
  /// native).
  [[nodiscard]] const std::string& error() const { return error_; }

  /// Execute one stencil launch through its native kernel. Slot and
  /// parameter resolution, bounds clipping, scratch sizing, and the
  /// runnability guards (I-contiguous storage, no aliased slot bindings)
  /// all happen here on the host; a launch that fails a guard runs through
  /// run_blocks on the same resolved bindings instead, preserving behavior.
  void run(const CompiledStencil& cs, FieldCatalog& catalog, const StencilArgs& args,
           const LaunchDomain& dom, const sched::Schedule& schedule, const RunOptions& run);

  /// Launches that took the tape-engine fallback path (guards or missing
  /// kernel) since construction. Exposed for tests.
  [[nodiscard]] long fallbacks() const { return fallbacks_; }

 private:
  /// Keeps every module a bound kernel lives in loaded.
  std::vector<std::shared_ptr<LoadedModule>> modules_;
  std::map<const CompiledStencil*, KernelFn> kernels_;
  std::string error_;
  /// Reused per-launch host tables and the two-phase commit buffer. A
  /// JitProgram belongs to one Program copy (rank thread), mirroring the
  /// tape executor's per-copy temp pool, so these are not shared state.
  std::vector<CyJitSlot> slot_tab_;
  std::vector<CyJitBounds> stmt_tab_;
  std::vector<CyJitIv> iv_tab_;
  std::vector<double> scratch_;
  long fallbacks_ = 0;
  bool warned_ = false;
};

}  // namespace cyclone::exec::jit
