//===- serve/prepare.h - Shared plan/compile/bind/execute path -*- C++ -*-===//
//
// Part of the etch project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one code path that turns "a product of named catalog tensors,
/// fully contracted" into a prepared `CachedPlan` and runs it — factored
/// out of `ContractionService` so the IVM maintenance driver can reuse it
/// with *synthetic* factors: a delta batch is presented as a catalog
/// tensor under a fresh name, resolved through the caller-supplied
/// `TensorResolver` instead of a snapshot. This is how `Σ ΔA·B` lowers
/// through the existing planner / formats / backends unchanged.
///
/// One executor per plan: preparation binds the accesses, then tries the
/// JIT. A plan whose native kernel compiles and binds keeps only its
/// `NativeCall`; otherwise (UseNative off, no toolchain, a JIT decline,
/// or a native bind error) it keeps bytecode over `BoundMem`, and its
/// EXPLAIN names the reason. Every executor computes the same
/// contraction, so the choice is made once, at prepare time.
///
/// Rebinding: a prepared plan can be pointed at new tensor payloads
/// without re-planning or re-compiling (`rebindPlan`) — the plan records
/// its realized accesses and the version each was last bound from, so a
/// refresh does nothing unless some factor changed. Retained delta plans
/// key on the *view*, not the tensor versions, and live across appends
/// this way.
///
//===----------------------------------------------------------------------===//

#ifndef ETCH_SERVE_PREPARE_H
#define ETCH_SERVE_PREPARE_H

#include "serve/catalog.h"
#include "serve/plancache.h"

#include <functional>
#include <string>
#include <vector>

namespace etch {

/// Maps a factor name to its tensor. Returning null fails preparation
/// with an "unknown tensor" diagnostic. Callers close over a snapshot
/// (the service) or a snapshot-plus-synthetic-deltas overlay (the IVM
/// driver).
using TensorResolver =
    std::function<CatalogTensorRef(const std::string &)>;

/// A resolver reading \p Snap only.
TensorResolver snapshotResolver(CatalogSnapshotRef Snap);

struct PrepareOptions {
  bool AllowHashed = true; ///< Planner may choose hashed-level copies.
                           ///< Keep false for plans meant to be rebound:
                           ///< a hashed copy bakes its table size.
  int OptLevel = 2;
  bool UseNative = true;   ///< JIT when a toolchain is available.
  std::string JitCacheDir;
  bool Retain = false;     ///< Mark the plan survives tensor invalidation.
};

/// Plans, compiles, and binds the full contraction of the product of
/// \p Factors (duplicates allowed — `{"x","x"}` is Σ x·x) for one
/// executor, native or bytecode. Counts one planner run against \p Cache
/// when non-null. Returns null with a diagnostic in \p Err on failure.
CachedPlanRef prepareContraction(const std::string &Key,
                                 const std::vector<std::string> &Factors,
                                 const TensorResolver &Resolve,
                                 const PrepareOptions &PO, PlanCache *Cache,
                                 std::string *Err);

/// When some access's resolved tensor version differs from the one last
/// bound (or always, when \p Force), rebinds the plan's executor: a
/// bytecode plan rebinds the moved accesses into `BoundMem`; a native
/// plan binds every access into scratch memory and re-marshals its
/// `NativeCall` from it. A plan with no `Call` yet is a bytecode plan. The
/// caller must hold `P.ExecMu` (or otherwise own the plan exclusively).
/// Returns false and sets \p Err if a factor no longer resolves or a bind
/// fails.
bool rebindPlan(CachedPlan &P, const TensorResolver &Resolve, bool Force,
                std::string *Err);

/// How a prepared plan runs. `Auto` runs the executor the plan holds.
/// `Tree` runs the tree-walking reference interpreter on a copy of a
/// bytecode plan's bound memory (it mutates state in place); a native
/// plan has no bound memory, so `Tree` on it is an error.
enum class ExecBackend { Auto, Tree };

struct ExecOutcome {
  bool Ok = false;
  std::string Error;
  double Value = 0.0;
  std::string Backend; ///< "native", "bytecode", or "tree".
};

/// Dispatches \p P once under its ExecMu and reads the scalar output. When
/// \p Rebind is non-null the stale accesses are re-bound first, under the
/// same ExecMu hold, so refresh-and-run is atomic against concurrent
/// dispatches of the same plan.
ExecOutcome executePlan(CachedPlan &P, ExecBackend B = ExecBackend::Auto,
                        const TensorResolver *Rebind = nullptr);

} // namespace etch

#endif // ETCH_SERVE_PREPARE_H
