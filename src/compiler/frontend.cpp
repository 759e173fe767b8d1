//===- compiler/frontend.cpp - Lowering L into syntactic streams ---------===//

#include "compiler/frontend.h"

#include "core/eval.h"
#include "support/assert.h"

using namespace etch;

int64_t LowerCtx::dimOf(Attr A) const {
  auto It = Dims.find(A.id());
  ETCH_ASSERT(It != Dims.end(), "no extent registered for attribute");
  return It->second;
}

TypeContext LowerCtx::types() const {
  TypeContext T;
  for (const auto &[Name, B] : Bindings)
    T.emplace(Name, B.Shp);
  return T;
}

namespace {

/// Builds the stream for one bound tensor: levels outermost-first, with
/// positions threaded TACO-style (dense: p' = p * N + i; compressed:
/// [pos[p], pos[p+1]) of crd).
SynValue buildLevels(LowerCtx &Ctx, const TensorBinding &B, size_t Level,
                     ERef Pos) {
  if (Level == B.Levels.size()) {
    return SynValue{
        EExpr::access(B.Name + "_vals", Ctx.Alg->Ty, std::move(Pos)),
        nullptr};
  }
  const LevelSpec &L = B.Levels[Level];
  Attr A = B.Shp[Level];
  if (L.K == LevelSpec::Dense) {
    int64_t N = Ctx.dimOf(A);
    auto Make = [&Ctx, &B, Level, Pos, N](ERef Index) {
      ERef Next = eAddI(EExpr::call(Ops::mulI(), {Pos, eConstI(N)}),
                        std::move(Index));
      return buildLevels(Ctx, B, Level + 1, std::move(Next));
    };
    return SynValue{nullptr, synDense(Ctx.G, eConstI(N), Make)};
  }
  std::string PosArr = B.Name + "_pos" + std::to_string(Level);
  std::string CrdArr = B.Name + "_crd" + std::to_string(Level);
  ERef Begin = EExpr::access(PosArr, ImpType::I64, Pos);
  ERef End =
      EExpr::access(PosArr, ImpType::I64, eAddI(Pos, eConstI(1)));
  auto Make = [&Ctx, &B, Level](ERef P) {
    return buildLevels(Ctx, B, Level + 1, std::move(P));
  };
  if (L.K == LevelSpec::Hashed) {
    // One coordinate->rank table per tensor: only the outermost level can
    // be hashed (inner fibers would each need their own table).
    ETCH_ASSERT(Level == 0, "hashed levels are only supported outermost");
    std::string KeyArr = B.Name + "_hkey" + std::to_string(Level);
    std::string RankArr = B.Name + "_hpos" + std::to_string(Level);
    return SynValue{nullptr,
                    synHashed(Ctx.G, CrdArr, std::move(Begin),
                              std::move(End), KeyArr, RankArr, L.TabSize,
                              L.Policy, Make)};
  }
  return SynValue{nullptr, synSparse(Ctx.G, CrdArr, std::move(Begin),
                                     std::move(End), L.Policy, Make)};
}

/// Lowers an expression, also returning its shape (needed for the depth
/// computations of Σ / ↑).
SynValue lowerRec(LowerCtx &Ctx, const ExprPtr &E, Shape &OutShape) {
  std::string Err;
  auto ShOpt = inferShape(E, Ctx.types(), &Err);
  ETCH_ASSERT(ShOpt, "expression does not type-check");
  OutShape = *ShOpt;

  switch (E->kind()) {
  case ExprKind::Var: {
    auto It = Ctx.Bindings.find(E->varName());
    ETCH_ASSERT(It != Ctx.Bindings.end(), "unbound variable");
    return buildLevels(Ctx, It->second, 0, eConstI(0));
  }
  case ExprKind::Mul: {
    Shape SL, SR;
    SynValue L = lowerRec(Ctx, E->lhs(), SL);
    SynValue R = lowerRec(Ctx, E->rhs(), SR);
    if (L.isLeaf())
      return SynValue{Ctx.Alg->mul(L.Scalar, R.Scalar), nullptr};
    return SynValue{nullptr, synMul(Ctx.G, *Ctx.Alg, L.Inner, R.Inner)};
  }
  case ExprKind::Add: {
    Shape SL, SR;
    SynValue L = lowerRec(Ctx, E->lhs(), SL);
    SynValue R = lowerRec(Ctx, E->rhs(), SR);
    if (L.isLeaf())
      return SynValue{Ctx.Alg->add(L.Scalar, R.Scalar), nullptr};
    return SynValue{nullptr, synAdd(Ctx.G, *Ctx.Alg, L.Inner, R.Inner)};
  }
  case ExprKind::Sum: {
    Shape SC;
    SynValue C = lowerRec(Ctx, E->lhs(), SC);
    int Depth = shapeIndexOf(SC, E->attr());
    ETCH_ASSERT(Depth >= 0, "sum over absent attribute");
    ETCH_ASSERT(C.Inner, "sum over a scalar");
    return SynValue{nullptr, synContractAt(C.Inner, Depth)};
  }
  case ExprKind::Expand: {
    Shape SC;
    SynValue C = lowerRec(Ctx, E->lhs(), SC);
    int Depth = attrsBefore(SC, E->attr());
    return synExpandValueAt(C, Depth, eConstI(Ctx.dimOf(E->attr())), Ctx.G);
  }
  case ExprKind::Rename: {
    // Rename relabels attributes without changing the stream, but a valid
    // stream must keep its levels in global attribute order: require the
    // renaming to be order-preserving.
    Shape SC;
    SynValue C = lowerRec(Ctx, E->lhs(), SC);
    Shape Renamed;
    for (Attr A : SC) {
      Attr B = A;
      for (const auto &[From, To] : E->mapping())
        if (From == A)
          B = To;
      Renamed.push_back(B);
    }
    for (size_t I = 1; I < Renamed.size(); ++I)
      ETCH_ASSERT(Renamed[I - 1] < Renamed[I],
                  "rename must preserve the global attribute order");
    return C;
  }
  }
  ETCH_UNREACHABLE("unknown expression kind");
}

} // namespace

SynValue etch::lowerExpr(LowerCtx &Ctx, const ExprPtr &E) {
  Shape S;
  return lowerRec(Ctx, E, S);
}

namespace {

/// Runs the raw program through the optimization pipeline at the context's
/// opt level, keeping \p Live names alive for dead-store elimination.
PRef runPipeline(LowerCtx &Ctx, PRef Raw,
                 const std::vector<std::string> &Live) {
  PipelineOptions Opts;
  Opts.OptLevel = Ctx.OptLevel;
  Opts.LiveOut.insert(Live.begin(), Live.end());
  PipelineResult R = optimizeProgram(std::move(Raw), Opts);
  PRef Program = R.Program;
  if (Ctx.CollectStats)
    Ctx.LastPipeline = std::move(R);
  return Program;
}

} // namespace

PRef etch::compileExpr(LowerCtx &Ctx, const ExprPtr &E, const Dest &D) {
  return runPipeline(Ctx, compileValue(D, lowerExpr(Ctx, E), Ctx.G),
                     D.Live);
}

PRef etch::compileFullContraction(LowerCtx &Ctx, const ExprPtr &E,
                                  const std::string &OutVar) {
  std::string Err;
  ExprPtr Full = sumAll(E, Ctx.types(), &Err);
  ETCH_ASSERT(Full, "expression does not type-check");
  PRef Decl = PStmt::declVar(OutVar, Ctx.Alg->Ty, Ctx.Alg->Zero);
  // Build the raw body directly (not through compileExpr) so the whole
  // program — declaration included — is optimized in one pipeline run with
  // OutVar as the only live-out.
  PRef Body =
      compileValue(scalarDest(*Ctx.Alg, OutVar), lowerExpr(Ctx, Full), Ctx.G);
  return runPipeline(Ctx, PStmt::seq2(std::move(Decl), std::move(Body)),
                     {OutVar});
}

//===----------------------------------------------------------------------===//
// Data binding
//===----------------------------------------------------------------------===//

namespace {

std::vector<int64_t> toI64(const std::vector<size_t> &V) {
  std::vector<int64_t> Out;
  Out.reserve(V.size());
  for (size_t X : V)
    Out.push_back(static_cast<int64_t>(X));
  return Out;
}

} // namespace

void etch::bindSparseVector(VmMemory &M, const std::string &Name,
                            const SparseVector<double> &V) {
  M.setArrayI64(Name + "_pos0",
                {0, static_cast<int64_t>(V.Crd.size())});
  M.setArrayI64(Name + "_crd0", V.Crd);
  M.setArrayF64(Name + "_vals", V.Val);
}

void etch::bindDenseVector(VmMemory &M, const std::string &Name,
                           const DenseVector<double> &V) {
  M.setArrayF64(Name + "_vals", V.Val);
}

void etch::bindCsr(VmMemory &M, const std::string &Name,
                   const CsrMatrix<double> &A) {
  M.setArrayI64(Name + "_pos1", toI64(A.Pos));
  M.setArrayI64(Name + "_crd1", A.Crd);
  M.setArrayF64(Name + "_vals", A.Val);
}

void etch::bindDcsr(VmMemory &M, const std::string &Name,
                    const DcsrMatrix<double> &A) {
  M.setArrayI64(Name + "_pos0",
                {0, static_cast<int64_t>(A.RowCrd.size())});
  M.setArrayI64(Name + "_crd0", A.RowCrd);
  M.setArrayI64(Name + "_pos1", toI64(A.Pos));
  M.setArrayI64(Name + "_crd1", A.Crd);
  M.setArrayF64(Name + "_vals", A.Val);
}

void etch::bindCsf3(VmMemory &M, const std::string &Name,
                    const CsfTensor3<double> &T) {
  M.setArrayI64(Name + "_pos0",
                {0, static_cast<int64_t>(T.Crd0.size())});
  M.setArrayI64(Name + "_crd0", T.Crd0);
  M.setArrayI64(Name + "_pos1", toI64(T.Pos0));
  M.setArrayI64(Name + "_crd1", T.Crd1);
  M.setArrayI64(Name + "_pos2", toI64(T.Pos1));
  M.setArrayI64(Name + "_crd2", T.Crd2);
  M.setArrayF64(Name + "_vals", T.Val);
}

int64_t etch::hashedTabSizeFor(size_t Nnz) {
  int64_t Buckets = 8;
  while (Buckets < static_cast<int64_t>(2 * Nnz))
    Buckets *= 2;
  return Buckets;
}

std::pair<std::vector<int64_t>, std::vector<int64_t>>
etch::hashedProbeArrays(const std::vector<Idx> &Crd, int64_t TabSize) {
  // The emitted probe computes `key mod TabSize` with linear wraparound
  // (no wrapping multiply in the target language), so the probe arrays use
  // that layout rather than the runtime table's Fibonacci layout.
  std::vector<int64_t> Key(static_cast<size_t>(TabSize), -1);
  std::vector<int64_t> Rank(static_cast<size_t>(TabSize), 0);
  for (size_t R = 0; R < Crd.size(); ++R) {
    size_t H = static_cast<size_t>(Crd[R] % TabSize);
    while (Key[H] != -1)
      H = (H + 1) % static_cast<size_t>(TabSize);
    Key[H] = Crd[R];
    Rank[H] = static_cast<int64_t>(R);
  }
  return {std::move(Key), std::move(Rank)};
}

int64_t etch::bindHashedVector(VmMemory &M, const std::string &Name,
                               const HashedVector<double> &V) {
  ETCH_ASSERT(V.frozen(), "bind a frozen HashedVector");
  M.setArrayI64(Name + "_pos0", {0, static_cast<int64_t>(V.Crd.size())});
  M.setArrayI64(Name + "_crd0", V.Crd);
  M.setArrayF64(Name + "_vals", V.Val);
  int64_t TabSize = hashedTabSizeFor(V.Crd.size());
  auto [Key, Rank] = hashedProbeArrays(V.Crd, TabSize);
  M.setArrayI64(Name + "_hkey0", Key);
  M.setArrayI64(Name + "_hpos0", Rank);
  return TabSize;
}

TensorBinding etch::sparseVecBinding(std::string Name, Attr A,
                                     SearchPolicy P) {
  return TensorBinding{std::move(Name), {A}, {{LevelSpec::Compressed, P}}};
}

TensorBinding etch::denseVecBinding(std::string Name, Attr A) {
  return TensorBinding{
      std::move(Name), {A}, {{LevelSpec::Dense, SearchPolicy::Linear}}};
}

TensorBinding etch::csrBinding(std::string Name, Attr Row, Attr Col,
                               SearchPolicy P) {
  ETCH_ASSERT(Row < Col, "attributes must follow the global order");
  return TensorBinding{std::move(Name),
                       {Row, Col},
                       {{LevelSpec::Dense, SearchPolicy::Linear},
                        {LevelSpec::Compressed, P}}};
}

TensorBinding etch::dcsrBinding(std::string Name, Attr Row, Attr Col,
                                SearchPolicy P) {
  ETCH_ASSERT(Row < Col, "attributes must follow the global order");
  return TensorBinding{std::move(Name),
                       {Row, Col},
                       {{LevelSpec::Compressed, P},
                        {LevelSpec::Compressed, P}}};
}

TensorBinding etch::hashedVecBinding(std::string Name, Attr A,
                                     int64_t TabSize, SearchPolicy P) {
  return TensorBinding{
      std::move(Name), {A}, {{LevelSpec::Hashed, P, TabSize}}};
}

TensorBinding etch::csf3Binding(std::string Name, Attr I, Attr J, Attr K,
                                SearchPolicy P) {
  ETCH_ASSERT(I < J && J < K, "attributes must follow the global order");
  return TensorBinding{std::move(Name),
                       {I, J, K},
                       {{LevelSpec::Compressed, P},
                        {LevelSpec::Compressed, P},
                        {LevelSpec::Compressed, P}}};
}
