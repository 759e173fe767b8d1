//===- ivm/maintain.cpp - Materialized-view maintenance driver ------------===//

#include "ivm/maintain.h"

#include "core/eval.h"
#include "support/assert.h"

#include <algorithm>

using namespace etch;

//===----------------------------------------------------------------------===//
// Delta tensors
//===----------------------------------------------------------------------===//

std::string etch::deltaFactorName(const std::string &Tensor) {
  return Tensor + "__ivm_dlt";
}

CatalogTensorRef
etch::deltaTensorCsr(const CatalogTensor &Base,
                     const std::vector<CooEntry<double>> &Delta) {
  ETCH_ASSERT(Base.K == CatalogTensor::Kind::Csr,
              "csr delta over a non-csr base");
  // canonicalizeCoo sorts, sums duplicates, and drops exact zeros — the
  // same normalization fromCoo applies, so the delta contraction sees the
  // batch exactly as the catalog merge will.
  std::vector<CooEntry<double>> Coo = canonicalizeCoo(Delta);
  if (Coo.empty())
    return nullptr;
  auto T = std::make_shared<CatalogTensor>();
  T->Name = deltaFactorName(Base.Name);
  T->K = CatalogTensor::Kind::Csr;
  // Distinct per batch (the base version advances with every accepted
  // append), so rebindPlan sees a version change and never reuses a prior
  // batch's bound delta.
  T->Version = Base.Version + 1;
  T->Shp = Base.Shp;
  T->Csr = CsrMatrix<double>::fromCoo(Base.Csr.NumRows, Base.Csr.NumCols,
                                      std::move(Coo));
  T->Stats = statsOfCsr(T->Name, T->Csr, Base.Shp[0], Base.Shp[1]);
  return T;
}

CatalogTensorRef
etch::deltaTensorSparse(const CatalogTensor &Base,
                        const std::vector<std::pair<Idx, double>> &Delta) {
  ETCH_ASSERT(Base.K == CatalogTensor::Kind::Sparse,
              "sparse delta over a non-sparse base");
  std::vector<std::pair<Idx, double>> D = canonicalizeSparse(Delta);
  if (D.empty())
    return nullptr;
  SparseVector<double> V(Base.Sparse.Size);
  for (const auto &[C, X] : D)
    V.push(C, X);
  auto T = std::make_shared<CatalogTensor>();
  T->Name = deltaFactorName(Base.Name);
  T->K = CatalogTensor::Kind::Sparse;
  T->Version = Base.Version + 1; // distinct per batch; see deltaTensorCsr
  T->Shp = Base.Shp;
  T->Stats = statsOfSparseVector(T->Name, V, Base.Shp[0]);
  T->Sparse = std::move(V);
  return T;
}

KRelation<F64Semiring> etch::relationOf(const CatalogTensor &T) {
  switch (T.K) {
  case CatalogTensor::Kind::Csr:
    return T.Csr.toKRelation<F64Semiring>(T.Shp[0], T.Shp[1]);
  case CatalogTensor::Kind::Sparse:
    return T.Sparse.toKRelation<F64Semiring>(T.Shp[0]);
  case CatalogTensor::Kind::Dense:
    break;
  }
  KRelation<F64Semiring> R(T.Shp);
  for (Idx I = 0; I < T.Dense.Size; ++I)
    if (T.Dense.Val[static_cast<size_t>(I)] != 0.0)
      R.insert({I}, T.Dense.Val[static_cast<size_t>(I)]);
  return R;
}

//===----------------------------------------------------------------------===//
// Driver
//===----------------------------------------------------------------------===//

MaintenanceDriver::MaintenanceDriver(TensorCatalog &Catalog, PlanCache &Plans,
                                     IvmOptions O)
    : Catalog(Catalog), Plans(Plans), Opts(std::move(O)) {
  // Retained plans are refreshed by rebinding; a hashed copy would bake a
  // per-nnz probe-table size into the compiled kernel.
  Opts.Prep.AllowHashed = false;
  Opts.Prep.Retain = true;
}

MaintenanceDriver::~MaintenanceDriver() {
  for (const auto &[_, V] : Scalars)
    for (const std::string &K : V.PlanKeys)
      Plans.erase(K);
}

std::string MaintenanceDriver::planKey(const std::string &View,
                                       const std::string &Tag) const {
  return "ivm;view=" + View + ";" + Tag +
         ";opt=" + std::to_string(Opts.Prep.OptLevel) +
         ";native=" + (Opts.Prep.UseNative ? "1" : "0");
}

bool MaintenanceDriver::runFull(ScalarView &V, const CatalogSnapshotRef &Snap,
                                double *Out, std::string *Backend,
                                std::string *Err) {
  std::string Key = planKey(V.Name, "full");
  TensorResolver R = snapshotResolver(Snap);
  CachedPlanRef P = Plans.lookup(Key);
  if (!P) {
    P = prepareContraction(Key, V.Factors, R, Opts.Prep, &Plans, Err);
    if (!P)
      return false;
    P = Plans.insert(P);
    if (std::find(V.PlanKeys.begin(), V.PlanKeys.end(), Key) ==
        V.PlanKeys.end())
      V.PlanKeys.push_back(Key);
  }
  ExecOutcome O = executePlan(*P, Opts.Backend, &R);
  if (!O.Ok) {
    if (Err)
      *Err = O.Error;
    return false;
  }
  *Out = O.Value;
  if (Backend)
    *Backend = O.Backend;
  return true;
}

bool MaintenanceDriver::registerView(const std::string &Name,
                                     std::vector<std::string> Factors,
                                     std::string *Err) {
  if (Factors.empty()) {
    if (Err)
      *Err = "a view needs at least one factor";
    return false;
  }
  std::sort(Factors.begin(), Factors.end());
  for (const std::string &F : Factors)
    if (std::find(Factors.begin(), Factors.end(), deltaFactorName(F)) !=
        Factors.end()) {
      if (Err)
        *Err = "factor '" + F + "' collides with its delta name";
      return false;
    }

  std::lock_guard<std::mutex> L(Mu);
  if (Scalars.count(Name) || Groups.count(Name)) {
    if (Err)
      *Err = "view '" + Name + "' already registered";
    return false;
  }
  ScalarView V;
  V.Name = Name;
  V.Factors = std::move(Factors);
  CatalogSnapshotRef Snap = Catalog.snapshot();
  std::string E;
  if (!runFull(V, Snap, &V.Value, &V.Backend, &E)) {
    for (const std::string &K : V.PlanKeys)
      Plans.erase(K);
    if (Err)
      *Err = E;
    return false;
  }
  V.Ok = true;
  V.Epoch = Snap->epoch();
  ++Stats.FullRecomputes;
  ++Stats.ScalarViews;
  Scalars.emplace(Name, std::move(V));
  return true;
}

bool MaintenanceDriver::buildGrouped(Grouped &G,
                                     const CatalogSnapshotRef &Snap,
                                     std::string *Err) {
  TypeContext Ctx;
  ValueContext<F64Semiring> Vals;
  for (const std::string &F : G.Factors) {
    if (Vals.count(F))
      continue;
    CatalogTensorRef T = Snap->find(F);
    if (!T) {
      if (Err)
        *Err = "unknown tensor '" + F + "'";
      return false;
    }
    Ctx[F] = T->Shp;
    Vals[F] = relationOf(*T);
  }

  ExprPtr Prod;
  for (const std::string &F : G.Factors) {
    ExprPtr V = Expr::var(F);
    Prod = Prod ? mulExpand(std::move(Prod), std::move(V), Ctx, Err)
                : std::move(V);
    if (!Prod)
      return false;
  }
  std::optional<Shape> Shp = inferShape(Prod, Ctx, Err);
  if (!Shp)
    return false;
  for (Attr A : G.GroupBy)
    if (!shapeContains(*Shp, A)) {
      if (Err)
        *Err = "group-by attribute " + A.name() +
               " does not occur in the view's factors";
      return false;
    }
  ExprPtr E = std::move(Prod);
  for (Attr A : *Shp)
    if (!shapeContains(G.GroupBy, A))
      E = Expr::sum(A, std::move(E));
  G.View = GroupedView<F64Semiring>(std::move(E), std::move(Vals));
  return true;
}

bool MaintenanceDriver::registerGroupedView(const std::string &Name,
                                            std::vector<std::string> Factors,
                                            const Shape &GroupBy,
                                            std::string *Err) {
  if (Factors.empty()) {
    if (Err)
      *Err = "a view needs at least one factor";
    return false;
  }
  std::sort(Factors.begin(), Factors.end());
  std::lock_guard<std::mutex> L(Mu);
  if (Scalars.count(Name) || Groups.count(Name)) {
    if (Err)
      *Err = "view '" + Name + "' already registered";
    return false;
  }
  Grouped G;
  G.Name = Name;
  G.Factors = std::move(Factors);
  G.GroupBy = GroupBy;
  if (!buildGrouped(G, Catalog.snapshot(), Err))
    return false;
  G.Ok = true;
  ++Stats.FullRecomputes;
  ++Stats.GroupedViews;
  Groups.emplace(Name, std::move(G));
  return true;
}

bool MaintenanceDriver::unregister(const std::string &Name) {
  std::lock_guard<std::mutex> L(Mu);
  auto It = Scalars.find(Name);
  if (It != Scalars.end()) {
    for (const std::string &K : It->second.PlanKeys)
      Plans.erase(K);
    Scalars.erase(It);
    --Stats.ScalarViews;
    return true;
  }
  if (Groups.erase(Name)) {
    --Stats.GroupedViews;
    return true;
  }
  return false;
}

std::vector<std::string> MaintenanceDriver::viewNames() const {
  std::lock_guard<std::mutex> L(Mu);
  std::vector<std::string> Out;
  for (const auto &[N, _] : Scalars)
    Out.push_back(N);
  for (const auto &[N, _] : Groups)
    Out.push_back(N);
  return Out;
}

std::optional<ViewReading>
MaintenanceDriver::read(const std::string &Name) const {
  std::lock_guard<std::mutex> L(Mu);
  auto It = Scalars.find(Name);
  if (It == Scalars.end())
    return std::nullopt;
  const ScalarView &V = It->second;
  ViewReading R;
  R.Ok = V.Ok;
  R.Error = V.Error;
  R.Name = V.Name;
  R.Value = V.Value;
  R.Epoch = V.Epoch;
  R.Backend = V.Backend;
  return R;
}

std::optional<KRelation<F64Semiring>>
MaintenanceDriver::readGrouped(const std::string &Name) const {
  std::lock_guard<std::mutex> L(Mu);
  auto It = Groups.find(Name);
  if (It == Groups.end() || !It->second.Ok)
    return std::nullopt;
  return It->second.View.value();
}

std::optional<ViewReading>
MaintenanceDriver::recompute(const std::string &Name) {
  std::lock_guard<std::mutex> L(Mu);
  auto It = Scalars.find(Name);
  if (It == Scalars.end())
    return std::nullopt;
  ScalarView &V = It->second;
  CatalogSnapshotRef Snap = Catalog.snapshot();
  ViewReading R;
  R.Name = Name;
  R.Epoch = Snap->epoch();
  std::string E;
  double Out = 0.0;
  if (!runFull(V, Snap, &Out, &R.Backend, &E)) {
    R.Error = E;
    return R;
  }
  ++Stats.FullRecomputes;
  R.Ok = true;
  R.Value = Out;
  return R;
}

std::optional<KRelation<F64Semiring>>
MaintenanceDriver::recomputeGrouped(const std::string &Name) const {
  std::lock_guard<std::mutex> L(Mu);
  auto It = Groups.find(Name);
  if (It == Groups.end() || !It->second.Ok)
    return std::nullopt;
  return It->second.View.recompute();
}

//===----------------------------------------------------------------------===//
// Refresh
//===----------------------------------------------------------------------===//

namespace {

/// C(k, m) for the binomial expansion of a k-fold factor occurrence;
/// exact in double for every k a planner-admissible query can have.
double binomial(size_t K, size_t M) {
  double C = 1.0;
  for (size_t I = 0; I < M; ++I)
    C = C * static_cast<double>(K - I) / static_cast<double>(I + 1);
  return C;
}

} // namespace

void MaintenanceDriver::refreshScalar(ScalarView &V, const std::string &Tensor,
                                      const CatalogTensorRef &DeltaT,
                                      const CatalogSnapshotRef &Pre,
                                      const CatalogSnapshotRef &Post) {
  size_t K = static_cast<size_t>(
      std::count(V.Factors.begin(), V.Factors.end(), Tensor));
  ETCH_ASSERT(K > 0, "refresh routed to a view without the factor");

  // Old occurrences bind the *pre-append* payloads: the stored value is
  // Σ A^k·…, and the delta terms rebuild Σ (A+Δ)^k·… - Σ A^k·… from A.
  const std::string DName = DeltaT->Name;
  TensorResolver R = [&](const std::string &N) -> CatalogTensorRef {
    if (N == DName)
      return DeltaT;
    return Pre->find(N);
  };

  double Acc = 0.0;
  for (size_t M = 1; M <= K; ++M) {
    // Factor list for the m-delta term: replace m occurrences of the
    // tensor with the synthetic delta factor.
    std::vector<std::string> Factors = V.Factors;
    size_t Replaced = 0;
    for (auto It = Factors.rbegin(); It != Factors.rend() && Replaced < M;
         ++It)
      if (*It == Tensor) {
        *It = DName;
        ++Replaced;
      }
    std::string Key =
        planKey(V.Name, "t=" + Tensor + ";m=" + std::to_string(M));
    CachedPlanRef P = Plans.lookup(Key);
    if (!P) {
      std::string Err;
      P = prepareContraction(Key, Factors, R, Opts.Prep, &Plans, &Err);
      if (!P) {
        V.Ok = false;
        V.Error = "delta plan failed: " + Err;
        return;
      }
      P = Plans.insert(P);
      if (std::find(V.PlanKeys.begin(), V.PlanKeys.end(), Key) ==
          V.PlanKeys.end())
        V.PlanKeys.push_back(Key);
      ++Stats.DeltaPlanBuilds;
    } else {
      ++Stats.DeltaPlanHits;
    }
    ExecOutcome O = executePlan(*P, Opts.Backend, &R);
    if (!O.Ok) {
      V.Ok = false;
      V.Error = "delta refresh failed: " + O.Error;
      return;
    }
    Acc += binomial(K, M) * O.Value;
    V.Backend = O.Backend;
  }
  V.Value += Acc;
  V.Epoch = Post->epoch();
  ++Stats.DeltaRefreshes;
}

void MaintenanceDriver::replaceScalar(ScalarView &V,
                                      const CatalogSnapshotRef &Post) {
  // A wholesale replacement may have changed extents or storage kinds —
  // drop the view's retained plans and rebuild from scratch.
  for (const std::string &K : V.PlanKeys)
    Plans.erase(K);
  V.PlanKeys.clear();
  std::string E;
  double Out = 0.0;
  if (!runFull(V, Post, &Out, &V.Backend, &E)) {
    V.Ok = false;
    V.Error = E;
    return;
  }
  V.Ok = true;
  V.Error.clear();
  V.Value = Out;
  V.Epoch = Post->epoch();
  ++Stats.FullRecomputes;
}

void MaintenanceDriver::onBatch(const std::string &Name,
                                const CatalogTensorRef &DeltaT,
                                const CatalogSnapshotRef &Pre,
                                const CatalogSnapshotRef &Post) {
  std::lock_guard<std::mutex> L(Mu);
  ++Stats.Batches;
  if (!DeltaT) {
    // The batch cancelled to nothing; views only advance their epoch.
    ++Stats.EmptyBatches;
    for (auto &[_, V] : Scalars)
      if (V.Ok)
        V.Epoch = Post->epoch();
    return;
  }
  for (auto &[_, V] : Scalars) {
    if (!V.Ok)
      continue;
    if (std::find(V.Factors.begin(), V.Factors.end(), Name) !=
        V.Factors.end())
      refreshScalar(V, Name, DeltaT, Pre, Post);
    else
      // A batch a view does not read still leaves its value current at
      // the new epoch — readings stay snapshot-consistent.
      V.Epoch = Post->epoch();
  }
  // Only grouped views read the batch as a K-relation; scalar-only
  // tensors never pay for the conversion.
  std::optional<KRelation<F64Semiring>> DeltaRel;
  for (auto &[_, G] : Groups)
    if (G.Ok && std::find(G.Factors.begin(), G.Factors.end(), Name) !=
                    G.Factors.end()) {
      if (!DeltaRel)
        DeltaRel = relationOf(*DeltaT);
      G.View.applyDelta(Name, *DeltaRel);
      ++Stats.GroupedRefreshes;
    }
}

void MaintenanceDriver::onAppendCsr(const std::string &Name,
                                    const std::vector<CooEntry<double>> &Delta,
                                    const CatalogSnapshotRef &Pre,
                                    const CatalogSnapshotRef &Post) {
  CatalogTensorRef Base = Pre->find(Name);
  if (!Base || Base->K != CatalogTensor::Kind::Csr)
    return; // The catalog rejected the append; nothing changed.
  onBatch(Name, deltaTensorCsr(*Base, Delta), Pre, Post);
}

void MaintenanceDriver::onAppendSparse(
    const std::string &Name, const std::vector<std::pair<Idx, double>> &Delta,
    const CatalogSnapshotRef &Pre, const CatalogSnapshotRef &Post) {
  CatalogTensorRef Base = Pre->find(Name);
  if (!Base || Base->K != CatalogTensor::Kind::Sparse)
    return;
  onBatch(Name, deltaTensorSparse(*Base, Delta), Pre, Post);
}

void MaintenanceDriver::onReplace(const std::string &Name,
                                  const CatalogSnapshotRef &Post) {
  std::lock_guard<std::mutex> L(Mu);
  for (auto &[_, V] : Scalars)
    if (std::find(V.Factors.begin(), V.Factors.end(), Name) !=
        V.Factors.end())
      replaceScalar(V, Post);
  for (auto &[_, G] : Groups)
    if (std::find(G.Factors.begin(), G.Factors.end(), Name) !=
        G.Factors.end()) {
      std::string Err;
      if (buildGrouped(G, Post, &Err)) {
        G.Ok = true;
        G.Error.clear();
      } else {
        G.Ok = false;
        G.Error = Err;
      }
      ++Stats.FullRecomputes;
    }
}

void MaintenanceDriver::onErase(const std::string &Name,
                                const CatalogSnapshotRef &Post) {
  std::lock_guard<std::mutex> L(Mu);
  for (auto &[_, V] : Scalars)
    if (std::find(V.Factors.begin(), V.Factors.end(), Name) !=
        V.Factors.end()) {
      V.Ok = false;
      V.Error = "factor '" + Name + "' was erased";
      V.Epoch = Post->epoch();
    }
  for (auto &[_, G] : Groups)
    if (std::find(G.Factors.begin(), G.Factors.end(), Name) !=
        G.Factors.end()) {
      G.Ok = false;
      G.Error = "factor '" + Name + "' was erased";
    }
}

MaintainStats MaintenanceDriver::stats() const {
  std::lock_guard<std::mutex> L(Mu);
  return Stats;
}
