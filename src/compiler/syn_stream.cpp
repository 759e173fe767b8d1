//===- compiler/syn_stream.cpp - Syntactic indexed streams ---------------===//

#include "compiler/syn_stream.h"

#include "support/assert.h"

using namespace etch;

namespace {

/// Emits the search loop advancing position variable \p P (bounded by end
/// variable \p E) to the first position whose coordinate reaches \p Target.
/// \p Strict selects "> Target" over ">= Target".
PRef emitSearch(const std::string &CrdArr, const std::string &P,
                const std::string &E, const VarDecl &Lo, const VarDecl &Hi,
                const VarDecl &Mid, SearchPolicy Policy, ERef Target,
                bool Strict) {
  auto PV = eVarI(P);
  auto EV = eVarI(E);
  auto CrdAt = [&](ERef I) {
    return EExpr::access(CrdArr, ImpType::I64, std::move(I));
  };
  auto NotReached = [&](ERef I) {
    // Coordinate still below the target.
    return Strict ? eLeI(CrdAt(std::move(I)), Target)
                  : eLtI(CrdAt(std::move(I)), Target);
  };

  if (Policy == SearchPolicy::Linear) {
    // while (p < e && crd[p] < target) p = p + 1;
    return PStmt::whileLoop(
        eAnd(eLtI(PV, EV), NotReached(PV)),
        PStmt::storeVar(P, eAddI(PV, eConstI(1))));
  }

  // Binary (galloping is lowered as binary too): classic lower-bound.
  auto LoV = eVarI(Lo.Name);
  auto HiV = eVarI(Hi.Name);
  auto MidV = eVarI(Mid.Name);
  return PStmt::seq(
      {PStmt::storeVar(Lo.Name, PV), PStmt::storeVar(Hi.Name, EV),
       PStmt::whileLoop(
           eLtI(LoV, HiV),
           PStmt::seq(
               {PStmt::storeVar(
                    Mid.Name,
                    eAddI(LoV, EExpr::call(Ops::divI(),
                                           {eSubI(HiV, LoV), eConstI(2)}))),
                PStmt::branch(NotReached(MidV),
                              PStmt::storeVar(Lo.Name,
                                              eAddI(MidV, eConstI(1))),
                              PStmt::storeVar(Hi.Name, MidV))})),
       PStmt::storeVar(P, LoV)});
}

SynRef cloneWith(const SynRef &S,
                 const std::function<void(SynStream &)> &Mutate) {
  auto C = std::make_shared<SynStream>(*S);
  Mutate(*C);
  return C;
}

/// Snapshots \p Target into a fresh temporary before running \p Skip: skip
/// loops mutate the state the index expression reads, so the target must
/// be latched first.
PRef skipWithSnapshot(const std::function<PRef(ERef, NameGen &)> &Skip,
                      ERef Target, NameGen &G) {
  std::string T = G.fresh("skt");
  return PStmt::seq2(PStmt::declVar(T, ImpType::I64, std::move(Target)),
                     Skip(eVarI(T), G));
}

/// Wraps one level in Σ: same iteration, dummy index, skip at own index
/// (Section 5.1.2's `skip(q, (*, r)) = skip(q, (index q, r))`).
SynRef contractNode(const SynRef &S) {
  ETCH_ASSERT(!S->Contracted, "level is already contracted");
  return cloneWith(S, [&](SynStream &C) {
    C.Contracted = true;
    C.Index = eConstI(0);
    C.Skip0 = [S](ERef, NameGen &G) {
      return skipWithSnapshot(S->Skip0, S->Index, G);
    };
    C.Skip1 = [S](ERef, NameGen &G) {
      return skipWithSnapshot(S->Skip1, S->Index, G);
    };
  });
}

SynValue contractValueAt(const SynValue &V, int Depth) {
  ETCH_ASSERT(V.Inner, "contraction reached past the innermost level");
  const SynRef &S = V.Inner;
  if (Depth == 0 && !S->Contracted)
    return SynValue{nullptr, contractNode(S)};
  int Next = Depth - (S->Contracted ? 0 : 1);
  ETCH_ASSERT(Next >= 0, "contraction depth out of range");
  return SynValue{nullptr, cloneWith(S, [&](SynStream &C) {
                    C.Value = contractValueAt(S->Value, Next);
                  })};
}

SynValue expandValueAt(const SynValue &V, int Depth, ERef Size, NameGen &G) {
  if (Depth == 0)
    return SynValue{nullptr, synRepeat(G, std::move(Size), V)};
  ETCH_ASSERT(V.Inner, "expansion depth out of range");
  const SynRef &S = V.Inner;
  int Next = Depth - (S->Contracted ? 0 : 1);
  return SynValue{nullptr, cloneWith(S, [&](SynStream &C) {
                    C.Value =
                        expandValueAt(S->Value, Next, std::move(Size), G);
                  })};
}

} // namespace

SynRef etch::synSparse(NameGen &G, const std::string &CrdArr, ERef Begin,
                       ERef End, SearchPolicy Policy,
                       const std::function<SynValue(ERef Pos)> &MakeValue) {
  auto S = std::make_shared<SynStream>();
  std::string P = G.fresh(CrdArr + "_p");
  std::string E = G.fresh(CrdArr + "_e");
  VarDecl Lo{G.fresh(CrdArr + "_lo"), ImpType::I64};
  VarDecl Hi{G.fresh(CrdArr + "_hi"), ImpType::I64};
  VarDecl Mid{G.fresh(CrdArr + "_mid"), ImpType::I64};
  S->Vars = {{P, ImpType::I64}, {E, ImpType::I64}};
  if (Policy != SearchPolicy::Linear) {
    S->Vars.push_back(Lo);
    S->Vars.push_back(Hi);
    S->Vars.push_back(Mid);
  }
  S->Init = PStmt::seq2(PStmt::storeVar(P, std::move(Begin)),
                        PStmt::storeVar(E, std::move(End)));
  S->Valid = eLtI(eVarI(P), eVarI(E));
  S->Ready = S->Valid;
  S->Index = EExpr::access(CrdArr, ImpType::I64, eVarI(P));
  S->Value = MakeValue(eVarI(P));
  S->Skip0 = [=](ERef I, NameGen &) {
    return emitSearch(CrdArr, P, E, Lo, Hi, Mid, Policy, std::move(I),
                      /*Strict=*/false);
  };
  S->Skip1 = [=](ERef I, NameGen &) {
    return emitSearch(CrdArr, P, E, Lo, Hi, Mid, Policy, std::move(I),
                      /*Strict=*/true);
  };
  return S;
}

SynRef etch::synHashed(NameGen &G, const std::string &CrdArr, ERef Begin,
                       ERef End, const std::string &KeyArr,
                       const std::string &RankArr, int64_t TabSize,
                       SearchPolicy Policy,
                       const std::function<SynValue(ERef Pos)> &MakeValue) {
  ETCH_ASSERT(TabSize > 0, "hashed level needs a positive table size");
  auto S = std::make_shared<SynStream>();
  std::string P = G.fresh(CrdArr + "_p");
  std::string E = G.fresh(CrdArr + "_e");
  std::string H = G.fresh(CrdArr + "_h");
  VarDecl Lo{G.fresh(CrdArr + "_lo"), ImpType::I64};
  VarDecl Hi{G.fresh(CrdArr + "_hi"), ImpType::I64};
  VarDecl Mid{G.fresh(CrdArr + "_mid"), ImpType::I64};
  S->Vars = {{P, ImpType::I64}, {E, ImpType::I64}, {H, ImpType::I64}};
  if (Policy != SearchPolicy::Linear) {
    S->Vars.push_back(Lo);
    S->Vars.push_back(Hi);
    S->Vars.push_back(Mid);
  }
  S->Init = PStmt::seq2(PStmt::storeVar(P, std::move(Begin)),
                        PStmt::storeVar(E, std::move(End)));
  S->Valid = eLtI(eVarI(P), eVarI(E));
  S->Ready = S->Valid;
  S->Index = EExpr::access(CrdArr, ImpType::I64, eVarI(P));
  S->Value = MakeValue(eVarI(P));
  // skip(i, r): probe the table for i; on a hit, jump to the stored rank
  // (plus one when strict) — max() keeps the cursor monotone. On a miss,
  // the snapshot is sorted, so the policy search finds the bound.
  auto MakeSkip = [=](bool Strict) {
    return [=](ERef I, NameGen &) {
      auto KeyAt = [&] {
        return EExpr::access(KeyArr, ImpType::I64, eVarI(H));
      };
      auto NeI = [](ERef A, ERef B) {
        return EExpr::call(Ops::neI(), {std::move(A), std::move(B)});
      };
      PRef Probe = PStmt::seq2(
          PStmt::storeVar(
              H, EExpr::call(Ops::modI(), {I, eConstI(TabSize)})),
          PStmt::whileLoop(
              eAnd(NeI(KeyAt(), eConstI(-1)), NeI(KeyAt(), I)),
              PStmt::storeVar(
                  H, EExpr::call(Ops::modI(), {eAddI(eVarI(H), eConstI(1)),
                                               eConstI(TabSize)}))));
      ERef Rank = EExpr::access(RankArr, ImpType::I64, eVarI(H));
      if (Strict)
        Rank = eAddI(std::move(Rank), eConstI(1));
      PRef Hit = PStmt::storeVar(P, eMaxI(eVarI(P), std::move(Rank)));
      PRef Miss =
          emitSearch(CrdArr, P, E, Lo, Hi, Mid, Policy, I, Strict);
      return PStmt::seq2(std::move(Probe),
                         PStmt::branch(eEqI(KeyAt(), I), std::move(Hit),
                                       std::move(Miss)));
    };
  };
  S->Skip0 = MakeSkip(/*Strict=*/false);
  S->Skip1 = MakeSkip(/*Strict=*/true);
  return S;
}

SynRef etch::synDense(NameGen &G, ERef Size,
                      const std::function<SynValue(ERef Index)> &MakeValue) {
  auto S = std::make_shared<SynStream>();
  std::string I = G.fresh("i");
  std::string N = G.fresh("n");
  S->Vars = {{I, ImpType::I64}, {N, ImpType::I64}};
  S->Init = PStmt::seq2(PStmt::storeVar(I, eConstI(0)),
                        PStmt::storeVar(N, std::move(Size)));
  S->Valid = eLtI(eVarI(I), eVarI(N));
  S->Ready = S->Valid;
  S->Index = eVarI(I);
  S->Value = MakeValue(eVarI(I));
  S->Skip0 = [I](ERef J, NameGen &) {
    return PStmt::storeVar(I, eMaxI(eVarI(I), std::move(J)));
  };
  S->Skip1 = [I](ERef J, NameGen &) {
    return PStmt::storeVar(I, eMaxI(eVarI(I), eAddI(std::move(J),
                                                    eConstI(1))));
  };
  return S;
}

SynRef etch::synRepeat(NameGen &G, ERef Size, SynValue Value) {
  return synDense(G, std::move(Size), [&](ERef) { return Value; });
}

SynRef etch::synMul(NameGen &G, const ScalarAlgebra &Alg, const SynRef &A,
                    const SynRef &B) {
  ETCH_ASSERT(A && B, "null stream");
  ETCH_ASSERT(!A->Contracted && !B->Contracted,
              "cannot multiply contracted levels; hoist sums first");
  ETCH_ASSERT(A->Value.isLeaf() == B->Value.isLeaf(),
              "multiplication operands must have matching nesting");
  auto S = std::make_shared<SynStream>();
  S->Vars = A->Vars;
  S->Vars.insert(S->Vars.end(), B->Vars.begin(), B->Vars.end());
  S->Init = PStmt::seq2(A->Init, B->Init);
  S->Valid = eAnd(A->Valid, B->Valid);
  S->Index = eMaxI(A->Index, B->Index);
  S->Ready = eAnd(eAnd(A->Ready, B->Ready), eEqI(A->Index, B->Index));
  if (A->Value.isLeaf())
    S->Value = SynValue{Alg.mul(A->Value.Scalar, B->Value.Scalar), nullptr};
  else
    S->Value = SynValue{nullptr, synMul(G, Alg, A->Value.Inner,
                                        B->Value.Inner)};
  S->Skip0 = [A, B](ERef I, NameGen &G) {
    return PStmt::seq2(A->Skip0(I, G), B->Skip0(I, G));
  };
  S->Skip1 = [A, B](ERef I, NameGen &G) {
    return PStmt::seq2(A->Skip1(I, G), B->Skip1(I, G));
  };
  return S;
}

SynRef etch::synMask(const SynRef &S, ERef Cond) {
  auto C = std::make_shared<SynStream>(*S);
  C->Init = PStmt::branch(Cond, S->Init, PStmt::noop());
  C->Valid = eAnd(Cond, S->Valid);
  C->Skip0 = [S, Cond](ERef I, NameGen &G) {
    return PStmt::branch(Cond, S->Skip0(std::move(I), G), PStmt::noop());
  };
  C->Skip1 = [S, Cond](ERef I, NameGen &G) {
    return PStmt::branch(Cond, S->Skip1(std::move(I), G), PStmt::noop());
  };
  return C;
}

SynRef etch::synAdd(NameGen &G, const ScalarAlgebra &Alg, const SynRef &A,
                    const SynRef &B) {
  ETCH_ASSERT(A && B, "null stream");
  ETCH_ASSERT(A->Contracted == B->Contracted,
              "addition operands must agree on contracted levels");
  ETCH_ASSERT(A->Value.isLeaf() == B->Value.isLeaf(),
              "addition operands must have matching nesting");

  // Guarded views of each side: act = valid && ready; index saturates to
  // +inf (I64 max) once a side is exhausted, so min/comparisons stay total.
  ERef AAct = eAnd(A->Valid, A->Ready);
  ERef BAct = eAnd(B->Valid, B->Ready);
  ERef Ia = eSelect(A->Valid, A->Index, eI64Max());
  ERef Ib = eSelect(B->Valid, B->Index, eI64Max());
  ERef EmitA = eAnd(AAct, eLeI(Ia, Ib));
  ERef EmitB = eAnd(BAct, eLeI(Ib, Ia));

  auto S = std::make_shared<SynStream>();
  S->Contracted = A->Contracted;
  S->Vars = A->Vars;
  S->Vars.insert(S->Vars.end(), B->Vars.begin(), B->Vars.end());
  S->Init = PStmt::seq2(A->Init, B->Init);
  S->Valid = eOr(A->Valid, B->Valid);
  S->Index = S->Contracted ? eConstI(0) : eMinI(Ia, Ib);
  // Emit one side alone only strictly below the other's index; at a tie
  // both sides must be ready (see streams/combinators.h).
  S->Ready = eOr(eOr(eAnd(eLtI(Ia, Ib), AAct), eAnd(eLtI(Ib, Ia), BAct)),
                 eAnd(eEqI(Ia, Ib), eAnd(AAct, BAct)));
  if (A->Value.isLeaf()) {
    S->Value =
        SynValue{Alg.add(Alg.select(EmitA, A->Value.Scalar, Alg.Zero),
                         Alg.select(EmitB, B->Value.Scalar, Alg.Zero)),
                 nullptr};
  } else {
    S->Value = SynValue{nullptr, synAdd(G, Alg,
                                        synMask(A->Value.Inner, EmitA),
                                        synMask(B->Value.Inner, EmitB))};
  }
  S->Skip0 = [A, B](ERef I, NameGen &G) {
    return PStmt::seq2(
        PStmt::branch(A->Valid, A->Skip0(I, G), PStmt::noop()),
        PStmt::branch(B->Valid, B->Skip0(I, G), PStmt::noop()));
  };
  S->Skip1 = [A, B](ERef I, NameGen &G) {
    return PStmt::seq2(
        PStmt::branch(A->Valid, A->Skip1(I, G), PStmt::noop()),
        PStmt::branch(B->Valid, B->Skip1(I, G), PStmt::noop()));
  };
  return S;
}

SynRef etch::synContractAt(const SynRef &S, int Depth) {
  return contractValueAt(SynValue{nullptr, S}, Depth).Inner;
}

SynRef etch::synExpandAt(const SynRef &S, int Depth, ERef Size, NameGen &G) {
  return expandValueAt(SynValue{nullptr, S}, Depth, std::move(Size), G).Inner;
}

SynValue etch::synExpandValueAt(const SynValue &V, int Depth, ERef Size,
                                NameGen &G) {
  return expandValueAt(V, Depth, std::move(Size), G);
}

int etch::synShapeLen(const SynRef &S) {
  if (!S)
    return 0;
  int N = S->Contracted ? 0 : 1;
  if (S->Value.Inner)
    N += synShapeLen(S->Value.Inner);
  return N;
}
