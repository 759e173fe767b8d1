//===- planner/realize.cpp - Realizing a plan as expr + bindings ----------===//
//
// Part of the etch project.
//
//===----------------------------------------------------------------------===//

#include "planner/realize.h"

#include "support/assert.h"

#include <algorithm>

namespace etch {

Attr RealizedPlan::fresh(Attr A) const {
  auto It = AttrMap.find(A.id());
  ETCH_ASSERT(It != AttrMap.end(), "attribute not part of the plan");
  return It->second;
}

RealizedPlan realizePlan(const PlanQuery &Q, const Plan &P,
                         const std::string &Tag) {
  RealizedPlan R;
  R.Accesses = P.Accesses;

  // One fresh attribute per plan position, named `<Tag>_<k>`: the interning
  // order is the global order, and every realization interns positions
  // 0, 1, ... in turn, so `<Tag>_<k>` precedes `<Tag>_<k+1>` for every plan
  // under one tag. The fresh shapes below therefore come out sorted exactly
  // when they follow the plan, and re-realizing a plan reuses the same
  // attributes instead of growing the process-wide interner.
  for (size_t K = 0; K < P.Order.size(); ++K) {
    Attr A = P.Order[K];
    Attr F = Attr::named(Tag + "_" + std::to_string(K));
    R.AttrMap[A.id()] = F;
    R.FreshDims.emplace_back(F, Q.dimOf(A));
  }

  // One binding per physical access; `Used` is sorted by plan order, so its
  // image under the fresh map is a valid (sorted) shape.
  TypeContext Ctx;
  for (const PlanAccess &A : R.Accesses) {
    TensorBinding B;
    B.Name = A.bindName();
    for (Attr U : A.Used)
      B.Shp.push_back(R.fresh(U));
    ETCH_ASSERT(std::is_sorted(B.Shp.begin(), B.Shp.end()),
                "realized shape must follow the fresh interning order");
    B.Levels = A.Levels;
    Ctx[B.Name] = B.Shp;
    R.Bindings.push_back(std::move(B));
  }

  // Reassemble the sum-of-products query over the fresh attributes.
  ExprPtr Root;
  for (const PlanTerm &T : Q.Terms) {
    ExprPtr Term;
    for (const PlanFactor &F : T.Factors) {
      // Find the access realizing this factor to recover its bind name.
      const PlanAccess *Acc = nullptr;
      for (const PlanAccess &A : R.Accesses)
        if (A.Tensor == F.Tensor && A.Stored == F.Query)
          Acc = &A;
      ETCH_ASSERT(Acc, "factor without a realized access");
      ExprPtr V = Expr::var(Acc->bindName());
      std::string Err;
      Term = Term ? mulExpand(std::move(Term), std::move(V), Ctx, &Err)
                  : std::move(V);
      ETCH_ASSERT(Term, "realized product failed to type-check");
    }
    for (Attr A : T.Expanded)
      Term = Expr::expand(R.fresh(A), std::move(Term));
    // Contract innermost attributes first, like core/expr.h's sumAll.
    std::vector<Attr> Summed;
    for (Attr A : T.Summed)
      Summed.push_back(R.fresh(A));
    std::sort(Summed.begin(), Summed.end());
    for (auto It = Summed.rbegin(); It != Summed.rend(); ++It)
      Term = Expr::sum(*It, std::move(Term));
    Root = Root ? Expr::add(std::move(Root), std::move(Term))
                : std::move(Term);
  }
  ETCH_ASSERT(Root, "plan with no terms");
  R.E = std::move(Root);

  std::string Err;
  ETCH_ASSERT(inferShape(R.E, Ctx, &Err), "realized query fails typing");
  return R;
}

void installPlan(LowerCtx &Ctx, const RealizedPlan &R) {
  for (const TensorBinding &B : R.Bindings)
    Ctx.bind(B);
  for (const auto &[A, N] : R.FreshDims)
    Ctx.setDim(A, N);
}

} // namespace etch
