//===- compiler/codegen.cpp - Destination passing and compile ------------===//

#include "compiler/codegen.h"

#include "support/assert.h"

#include <algorithm>

using namespace etch;

Dest etch::scalarDest(const ScalarAlgebra &Alg, std::string VarName) {
  Dest D;
  D.Accum = [Alg, VarName](ERef V) {
    return PStmt::storeVar(
        VarName, Alg.add(EExpr::var(VarName, Alg.Ty), std::move(V)));
  };
  D.Live = {VarName};
  return D;
}

namespace {

Dest denseDestAt(const ScalarAlgebra &Alg, std::string ArrName, ERef Offset,
                 std::vector<ERef> Strides) {
  Dest D;
  if (Strides.empty()) {
    D.Accum = [Alg, ArrName, Offset](ERef V) {
      return PStmt::storeArr(
          ArrName, Offset,
          Alg.add(EExpr::access(ArrName, Alg.Ty, Offset), std::move(V)));
    };
    return D;
  }
  D.Locate = [Alg, ArrName, Offset,
              Strides](ERef Index, NameGen &) -> std::tuple<PRef, Dest, PRef> {
    ERef Step = eAddI(Offset, EExpr::call(Ops::mulI(),
                                          {std::move(Index), Strides[0]}));
    std::vector<ERef> Rest(Strides.begin() + 1, Strides.end());
    return {PStmt::noop(),
            denseDestAt(Alg, ArrName, std::move(Step), std::move(Rest)),
            PStmt::noop()};
  };
  return D;
}

} // namespace

Dest etch::denseDest(const ScalarAlgebra &Alg, std::string ArrName,
                     std::vector<ERef> Strides) {
  ETCH_ASSERT(!Strides.empty(), "dense destination needs at least one level");
  Dest D = denseDestAt(Alg, ArrName, eConstI(0), std::move(Strides));
  D.Live = {std::move(ArrName)};
  return D;
}

Dest etch::sparseVecDest(const ScalarAlgebra &Alg, std::string CrdArr,
                         std::string ValArr, std::string CntVar) {
  Dest D;
  D.Locate = [Alg, CrdArr, ValArr,
              CntVar](ERef Index, NameGen &) -> std::tuple<PRef, Dest, PRef> {
    ERef Cnt = eVarI(CntVar);
    // crd[cnt] = index; val[cnt] = 0; cnt = cnt + 1.
    PRef Prep = PStmt::seq(
        {PStmt::storeArr(CrdArr, Cnt, std::move(Index)),
         PStmt::storeArr(ValArr, Cnt, Alg.Zero),
         PStmt::storeVar(CntVar, eAddI(Cnt, eConstI(1)))});
    // The leaf accumulates into position cnt - 1.
    Dest Leaf;
    Leaf.Accum = [Alg, ValArr, CntVar](ERef V) {
      ERef Pos = eSubI(eVarI(CntVar), eConstI(1));
      return PStmt::storeArr(
          ValArr, Pos,
          Alg.add(EExpr::access(ValArr, Alg.Ty, Pos), std::move(V)));
    };
    return {std::move(Prep), std::move(Leaf), PStmt::noop()};
  };
  D.Live = {CrdArr, ValArr, CntVar};
  return D;
}

Dest etch::hashDest(const ScalarAlgebra &Alg, std::string KeyArr,
                    std::string ValArr, std::string CntVar, int64_t TabSize) {
  ETCH_ASSERT(TabSize > 0, "hash destination needs a positive table size");
  Dest D;
  D.Locate = [Alg, KeyArr, ValArr, CntVar,
              TabSize](ERef Index,
                       NameGen &G) -> std::tuple<PRef, Dest, PRef> {
    // One fresh slot variable per locate site; it lives across the nested
    // value's emission so the leaf can accumulate into the probed slot.
    std::string H = G.fresh("hsl");
    auto KeyAt = [&] {
      return EExpr::access(KeyArr, ImpType::I64, eVarI(H));
    };
    auto NeI = [](ERef A, ERef B) {
      return EExpr::call(Ops::neI(), {std::move(A), std::move(B)});
    };
    // h = index mod TabSize; while (key[h] != -1 && key[h] != index)
    //   h = (h + 1) mod TabSize;
    // if (key[h] == -1) { key[h] = index; val[h] = 0; cnt = cnt + 1; }
    PRef Prep = PStmt::seq(
        {PStmt::declVar(
             H, ImpType::I64,
             EExpr::call(Ops::modI(), {Index, eConstI(TabSize)})),
         PStmt::whileLoop(
             eAnd(NeI(KeyAt(), eConstI(-1)), NeI(KeyAt(), Index)),
             PStmt::storeVar(
                 H, EExpr::call(Ops::modI(), {eAddI(eVarI(H), eConstI(1)),
                                              eConstI(TabSize)}))),
         PStmt::branch(
             eEqI(KeyAt(), eConstI(-1)),
             PStmt::seq({PStmt::storeArr(KeyArr, eVarI(H), Index),
                         PStmt::storeArr(ValArr, eVarI(H), Alg.Zero),
                         PStmt::storeVar(CntVar,
                                         eAddI(eVarI(CntVar), eConstI(1)))}),
             PStmt::noop())});
    Dest Leaf;
    Leaf.Accum = [Alg, ValArr, H](ERef V) {
      return PStmt::storeArr(
          ValArr, eVarI(H),
          Alg.add(EExpr::access(ValArr, Alg.Ty, eVarI(H)), std::move(V)));
    };
    return {std::move(Prep), std::move(Leaf), PStmt::noop()};
  };
  D.Live = {KeyArr, ValArr, CntVar};
  return D;
}

PRef etch::compileValue(const Dest &D, const SynValue &V, NameGen &G) {
  if (V.isLeaf()) {
    ETCH_ASSERT(D.Accum, "scalar value into a non-scalar destination");
    return D.Accum(V.Scalar);
  }
  return compileStream(D, V.Inner, G);
}

PRef etch::compileStream(const Dest &D, const SynRef &S, NameGen &G) {
  ETCH_ASSERT(S, "null stream");

  // State declarations (zero-initialised so masked inits stay safe).
  // Reusing one stream object on both sides of an operator (e.g. x * x)
  // duplicates its variables in Vars; declare each name once.
  std::vector<PRef> Decls;
  std::vector<std::string> Seen;
  for (const VarDecl &V : S->Vars) {
    if (std::find(Seen.begin(), Seen.end(), V.Name) != Seen.end())
      continue;
    Seen.push_back(V.Name);
    ERef Zero = V.Ty == ImpType::I64   ? eConstI(0)
                : V.Ty == ImpType::F64 ? eConstF(0.0)
                                       : eBool(false);
    Decls.push_back(PStmt::declVar(V.Name, V.Ty, Zero));
  }

  // The body of the ready branch: locate the sub-destination (indexed
  // levels) or reuse this one (contracted levels), then recurse.
  PRef EmitBody;
  if (S->Contracted) {
    EmitBody = compileValue(D, S->Value, G);
  } else {
    ETCH_ASSERT(D.Locate, "stream level into a scalar destination");
    auto [Prep, Sub, Post] = D.Locate(S->Index, G);
    EmitBody = PStmt::seq({std::move(Prep), compileValue(Sub, S->Value, G),
                           std::move(Post)});
  }

  // The skip target must be latched into a temporary: skip loops mutate the
  // state that S->Index reads, so re-evaluating the raw expression inside
  // the search loop would chase a moving (eventually out-of-bounds) target.
  auto CallSkip = [&](const std::function<PRef(ERef, NameGen &)> &Skip) {
    std::string T = G.fresh("skc");
    return PStmt::seq2(PStmt::declVar(T, ImpType::I64, S->Index),
                       Skip(eVarI(T), G));
  };

  // Figure 15's loop template.
  PRef Loop = PStmt::whileLoop(
      S->Valid,
      PStmt::branch(S->Ready,
                    PStmt::seq2(std::move(EmitBody), CallSkip(S->Skip1)),
                    CallSkip(S->Skip0)));

  std::vector<PRef> All = std::move(Decls);
  All.push_back(S->Init);
  All.push_back(std::move(Loop));
  return PStmt::seq(std::move(All));
}
