//===- serve/prepare.cpp - Shared plan/compile/bind/execute path ----------===//

#include "serve/prepare.h"

#include "compiler/frontend.h"
#include "compiler/vm.h"
#include "planner/plan.h"
#include "planner/realize.h"
#include "support/assert.h"

#include <algorithm>

using namespace etch;

TensorResolver etch::snapshotResolver(CatalogSnapshotRef Snap) {
  return [Snap = std::move(Snap)](const std::string &Name) {
    return Snap->find(Name);
  };
}

namespace {

/// Repacks a CSR matrix under a compressed outer level (DCSR): the entry
/// arrays are unchanged, only the nonempty rows are kept in the row level.
DcsrMatrix<double> dcsrOfCsr(const CsrMatrix<double> &A) {
  DcsrMatrix<double> D;
  D.NumRows = A.NumRows;
  D.NumCols = A.NumCols;
  D.Pos.push_back(0);
  for (Idx R = 0; R < A.NumRows; ++R) {
    const size_t RU = static_cast<size_t>(R);
    if (A.Pos[RU] == A.Pos[RU + 1])
      continue;
    D.RowCrd.push_back(R);
    D.Pos.push_back(A.Pos[RU + 1]);
  }
  D.Crd = A.Crd;
  D.Val = A.Val;
  return D;
}

/// Binds one realized access's data from its tensor into \p M, honoring
/// the plan's transposed / rehashed choices and its per-level formats: a
/// matrix access whose outer level the planner compressed (the DCSR-style
/// choice for hypersparse transposed copies) binds the pos0/crd0 arrays
/// the emitted program expects, not the dense-outer CSR layout.
bool bindAccess(VmMemory &M, const PlanAccess &Acc, const CatalogTensor &T,
                std::string *Err) {
  switch (T.K) {
  case CatalogTensor::Kind::Csr: {
    CsrMatrix<double> C = Acc.Transposed ? transpose(T.Csr) : T.Csr;
    if (!Acc.Levels.empty() && Acc.Levels[0].K == LevelSpec::Compressed)
      bindDcsr(M, Acc.bindName(), dcsrOfCsr(C));
    else
      bindCsr(M, Acc.bindName(), C);
    return true;
  }
  case CatalogTensor::Kind::Sparse:
    if (Acc.Rehashed) {
      HashedVector<double> H(T.Sparse.Size, T.Sparse.nnz());
      for (size_t I = 0; I < T.Sparse.Crd.size(); ++I)
        H.accumulate(T.Sparse.Crd[I], T.Sparse.Val[I]);
      H.freeze();
      int64_t TabSize = bindHashedVector(M, Acc.bindName(), H);
      if (!Acc.Levels.empty() && Acc.Levels[0].TabSize != TabSize) {
        if (Err)
          *Err = "hashed rebind table-size mismatch for '" + Acc.Tensor + "'";
        return false;
      }
    } else {
      bindSparseVector(M, Acc.bindName(), T.Sparse);
    }
    return true;
  case CatalogTensor::Kind::Dense:
    bindDenseVector(M, Acc.bindName(), T.Dense);
    return true;
  }
  if (Err)
    *Err = "unknown tensor kind for '" + Acc.Tensor + "'";
  return false;
}

} // namespace

CachedPlanRef etch::prepareContraction(const std::string &Key,
                                       const std::vector<std::string> &Factors,
                                       const TensorResolver &Resolve,
                                       const PrepareOptions &PO,
                                       PlanCache *Cache, std::string *Err) {
  if (Factors.empty()) {
    if (Err)
      *Err = "empty factor list";
    return nullptr;
  }

  TypeContext Ctx;
  std::map<std::string, TensorStats> Stats;
  std::map<uint32_t, int64_t> Dims;
  std::map<std::string, CatalogTensorRef> Resolved;
  uint64_t MaxVersion = 0;
  for (const std::string &Name : Factors) {
    if (Resolved.count(Name))
      continue;
    CatalogTensorRef T = Resolve(Name);
    if (!T) {
      if (Err)
        *Err = "unknown tensor '" + Name + "'";
      return nullptr;
    }
    Resolved[Name] = T;
    Ctx[Name] = T->Shp;
    Stats[Name] = T->Stats;
    MaxVersion = std::max(MaxVersion, T->Version);
    for (const LevelStat &LS : T->Stats.Levels)
      Dims[LS.A.id()] = LS.Extent;
  }

  ExprPtr Prod;
  for (const std::string &Name : Factors) {
    ExprPtr V = Expr::var(Name);
    Prod = Prod ? mulExpand(std::move(Prod), std::move(V), Ctx, Err)
                : std::move(V);
    if (!Prod)
      return nullptr;
  }
  ExprPtr E = sumAll(std::move(Prod), Ctx, Err);
  if (!E)
    return nullptr;

  auto PQ = extractQuery(E, Ctx, Stats, Dims, Err);
  if (!PQ)
    return nullptr;

  PlanOptions PlanOpts;
  PlanOpts.AllowHashed = PO.AllowHashed;
  if (Cache)
    Cache->countPlannerRun();
  std::vector<Plan> Enumerated = enumeratePlans(*PQ, PlanOpts);
  if (Enumerated.empty()) {
    if (Err)
      *Err = "no realizable attribute order";
    return nullptr;
  }
  const Plan &Best = Enumerated.front();

  RealizedPlan RP = realizePlan(*PQ, Best, "srv");
  LowerCtx LCtx;
  LCtx.OptLevel = PO.OptLevel;
  installPlan(LCtx, RP);

  auto CP = std::make_shared<CachedPlan>();
  CP->Key = Key;
  CP->Tensors = Factors;
  std::sort(CP->Tensors.begin(), CP->Tensors.end());
  CP->Tensors.erase(std::unique(CP->Tensors.begin(), CP->Tensors.end()),
                    CP->Tensors.end());
  CP->Epoch = MaxVersion;
  CP->Retain = PO.Retain;
  CP->PlannerCost = Best.cost();
  CP->Explain = Best.explain(*PQ);
  CP->OutVar = "out";
  CP->Prog = compileFullContraction(LCtx, RP.E, CP->OutVar);
  CP->Accesses = RP.Accesses;
  CP->BoundVersions.assign(RP.Accesses.size(), 0);
  for (const PlanAccess &Acc : RP.Accesses)
    CP->BoundKinds.push_back(static_cast<int>(Resolved.at(Acc.Tensor)->K));
  // A fresh plan has no native call, so this binds every access into
  // BoundMem.
  if (!rebindPlan(*CP, Resolve, /*Force=*/true, Err))
    return nullptr;

  // One executor per plan: native when the JIT compiles and binds it (the
  // bound memory is then dropped; NativeCall keeps its own copy), else
  // bytecode over BoundMem, with the reason named in EXPLAIN.
  std::string Why = "UseNative off";
  if (PO.UseNative) {
    JitOptions JO;
    JO.CacheDir = PO.JitCacheDir;
    if (NativeKernelRef K = jitCompile(CP->Prog, JO, &Why)) {
      auto Call = std::make_unique<NativeCall>(K);
      if (Call->bind(CP->BoundMem, &Why)) {
        CP->Kernel = std::move(K);
        CP->Call = std::move(Call);
        CP->BoundMem = VmMemory();
        return CP;
      }
      Why = "native bind failed: " + Why;
    }
  }
  CP->Bc = compileBytecode(CP->Prog);
  if (!CP->Bc.ok()) {
    if (Err)
      *Err = "bytecode compile error: " + CP->Bc.CompileError;
    return nullptr;
  }
  CP->Explain += "executor: bytecode (" + Why + ")\n";
  return CP;
}

bool etch::rebindPlan(CachedPlan &P, const TensorResolver &Resolve,
                      bool Force, std::string *Err) {
  ETCH_ASSERT(P.Accesses.size() == P.BoundVersions.size(),
              "access/version bookkeeping out of sync");
  std::vector<CatalogTensorRef> Ts;
  Ts.reserve(P.Accesses.size());
  bool Moved = Force;
  for (size_t I = 0; I < P.Accesses.size(); ++I) {
    const PlanAccess &Acc = P.Accesses[I];
    CatalogTensorRef T = Resolve(Acc.Tensor);
    if (!T) {
      if (Err)
        *Err = "rebind: unknown tensor '" + Acc.Tensor + "'";
      return false;
    }
    if (static_cast<int>(T->K) != P.BoundKinds[I]) {
      if (Err)
        *Err = "rebind: tensor '" + Acc.Tensor +
               "' changed storage kind; the plan must be rebuilt";
      return false;
    }
    Moved = Moved || T->Version != P.BoundVersions[I];
    Ts.push_back(std::move(T));
  }
  if (!Moved)
    return true;

  // A native plan keeps no bound memory: NativeCall::bind re-marshals
  // every array, so all accesses are bound into scratch memory that dies
  // with this call. A bytecode plan rebinds only the moved accesses.
  VmMemory Scratch;
  VmMemory &M = P.Call ? Scratch : P.BoundMem;
  bool All = Force || P.Call;
  for (size_t I = 0; I < Ts.size(); ++I)
    if ((All || Ts[I]->Version != P.BoundVersions[I]) &&
        !bindAccess(M, P.Accesses[I], *Ts[I], Err))
      return false;
  std::string BindErr;
  if (P.Call && !P.Call->bind(Scratch, &BindErr)) {
    if (Err)
      *Err = "rebind: native re-marshal failed: " + BindErr;
    return false;
  }
  for (size_t I = 0; I < Ts.size(); ++I) {
    P.BoundVersions[I] = Ts[I]->Version;
    P.Epoch = std::max(P.Epoch, Ts[I]->Version);
  }
  return true;
}

ExecOutcome etch::executePlan(CachedPlan &P, ExecBackend B,
                              const TensorResolver *Rebind) {
  ExecOutcome R;
  std::lock_guard<std::mutex> L(P.ExecMu);
  if (Rebind && !rebindPlan(P, *Rebind, /*Force=*/false, &R.Error))
    return R;
  VmRunResult RR;
  std::optional<ImpValue> V;
  if (P.Call) {
    if (B == ExecBackend::Tree) {
      R.Error = "tree backend requested on a native plan; the tree VM runs "
                "only bytecode plans (prepare with UseNative off)";
      return R;
    }
    RR = P.Call->invoke();
    V = P.Call->scalar(P.OutVar);
    R.Backend = "native";
  } else if (B == ExecBackend::Tree) {
    // The tree VM mutates memory in place; run on a copy so the plan's
    // bound inputs stay pristine for the next dispatch.
    VmMemory M = P.BoundMem;
    RR = vmRun(P.Prog, M);
    V = M.getScalar(P.OutVar);
    R.Backend = "tree";
  } else {
    RR = bytecodeRun(P.Bc, P.BoundMem);
    V = P.BoundMem.getScalar(P.OutVar);
    R.Backend = "bytecode";
  }
  if (RR.Error) {
    R.Error = *RR.Error;
    return R;
  }
  ETCH_ASSERT(V, "executor finished without defining the output");
  R.Value = std::get<double>(*V);
  R.Ok = true;
  return R;
}
