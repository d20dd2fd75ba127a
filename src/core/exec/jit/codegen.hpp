#pragma once

#include <string>

namespace cyclone::exec {
class CompiledStencil;
}

namespace cyclone::exec::jit {

/// Exported entry point of every generated kernel unit. The symbol is the
/// same in every unit: each unit is its own dlopen'd module (RTLD_LOCAL),
/// so the name never collides, and it leaves no per-program index in the
/// source.
inline constexpr const char* kKernelSymbol = "cyk_kernel";

/// Lower one compiled stencil into a self-contained C++ translation unit
/// exporting `extern "C" void cyk_kernel(const CyJitArgs*)`. The generated
/// code replays the tape engine's execution structure exactly — parallel
/// maps with optional k maps, broadcast-write k serialization, two-phase
/// scratch commit for self-reading statements, column sweeps for
/// horizontally independent vertical solvers, plane-by-plane sweeps
/// otherwise — with each statement's postfix tape unrolled into a native
/// expression over I-contiguous row pointers.
///
/// The text depends only on the stencil's lowered body: no stencil name,
/// no position in a program. Content-identical stencils therefore produce
/// identical units, which the kernel cache keys by content, so they share
/// one compiled object within a program, across programs and across ranks.
/// The unit has no #include to keep host-compiler invocations fast, and all
/// schedule knobs (tile width, k-map, thread count) arrive at run time
/// through CyJitArgs, so one compilation serves every schedule.
std::string emit_kernel_unit(const CompiledStencil& cs);

/// Number of flattened statement / interval entries the generated kernel of
/// `cs` expects in CyJitArgs::stmts / CyJitArgs::intervals. The host walks
/// blocks in the same order as the generator; these are exposed so it can
/// size its tables (and tests can cross-check the walk).
int flat_stmt_count(const CompiledStencil& cs);
int flat_interval_count(const CompiledStencil& cs);

}  // namespace cyclone::exec::jit
