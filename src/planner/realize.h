//===- planner/realize.h - Realizing a plan as expr + bindings -*- C++ -*-===//
//
// Part of the etch project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Turns a chosen `Plan` back into compilable artifacts. The global
/// attribute order is the interning order (core/attr.h), so a plan's order
/// is *realized* by interning a fresh attribute per query attribute, in
/// plan sequence, and rebuilding the query over them: each physical access
/// becomes a variable bound directly at its (sorted) fresh attributes —
/// no Rename nodes survive — and the sum-of-products structure is
/// reassembled with `mulExpand` / `Σ`. Transposed accesses get a `_T`
/// binding name; the caller supplies the matching level-permuted data
/// (e.g. via `transpose(CsrMatrix)`).
///
/// `installPlan` pushes the bindings and extents into a `LowerCtx`, which
/// is how the compiler frontend "accepts a planner-chosen order".
///
//===----------------------------------------------------------------------===//

#ifndef ETCH_PLANNER_REALIZE_H
#define ETCH_PLANNER_REALIZE_H

#include "planner/plan.h"

namespace etch {

/// A plan made concrete: an expression over fresh attributes plus the
/// tensor bindings (formats chosen by the plan) it is typed under.
struct RealizedPlan {
  ExprPtr E;                         ///< Rewritten query; no renames.
  std::map<uint32_t, Attr> AttrMap;  ///< Query attr id -> fresh attr.
  std::vector<TensorBinding> Bindings; ///< One per physical access.
  std::vector<PlanAccess> Accesses;  ///< Copied from the plan (bind names,
                                     ///< transposed flags) for data binding.
  std::vector<std::pair<Attr, int64_t>> FreshDims; ///< Fresh attr extents.

  /// The fresh attribute realizing query attribute \p A.
  Attr fresh(Attr A) const;
};

/// Realizes \p P for \p Q. \p Tag namespaces the fresh attribute names
/// ("<tag>_<k>" for plan position k), so realizing one plan twice yields
/// the same attributes and the same program.
RealizedPlan realizePlan(const PlanQuery &Q, const Plan &P,
                         const std::string &Tag);

/// Installs the realized bindings and extents into \p Ctx; afterwards
/// `compileExpr(Ctx, R.E, ...)` compiles the planned kernel. The caller
/// still binds the actual arrays (transposed where Accesses say so) into
/// the VM memory under each access's `bindName()`.
void installPlan(LowerCtx &Ctx, const RealizedPlan &R);

} // namespace etch

#endif // ETCH_PLANNER_REALIZE_H
