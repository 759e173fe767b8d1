//===- ivm/deltafuzz.cpp - Fuzzing the incremental-maintenance path -------===//

#include "ivm/deltafuzz.h"

#include "core/eval.h"
#include "core/expr.h"
#include "fuzz/corpus.h"
#include "ivm/delta.h"
#include "ivm/maintain.h"
#include "serve/catalog.h"
#include "serve/plancache.h"
#include "serve/prepare.h"
#include "support/rng.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

using namespace etch;

namespace {

void reportDiv(FuzzReport &Rep, const std::string &Leg,
               const std::string &Detail) {
  constexpr size_t Cap = 400;
  std::string D = Detail;
  if (D.size() > Cap)
    D = D.substr(0, Cap) + "...";
  Rep.Divs.push_back({Leg, D});
}

/// The generator's per-semiring value pool (fuzz/gen.cpp): dyadic
/// rationals of bounded magnitude, so the delta identity holds bit-for-bit
/// even over f64.
double rawDeltaValue(Rng &R, const std::string &Semiring) {
  if (Semiring == "i64")
    return static_cast<double>(R.nextInRange(-3, 3));
  if (Semiring == "bool")
    return R.nextBool(0.9) ? 1.0 : 0.0;
  if (Semiring == "minplus")
    return R.nextBool(0.06)
               ? std::numeric_limits<double>::infinity()
               : static_cast<double>(R.nextInRange(-6, 12)) * 0.5;
  return static_cast<double>(R.nextInRange(-8, 8)) * 0.5; // f64
}

uint64_t mix(uint64_t A, uint64_t B) {
  uint64_t Z = A + 0x9e3779b97f4a7c15ULL * (B + 1);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  return Z ^ (Z >> 31);
}

//===----------------------------------------------------------------------===//
// K-relation layer: the delta-rewrite identity on generated cases
//===----------------------------------------------------------------------===//

/// A random batch over \p A: fresh coordinates (biased toward reuse, so
/// updates of stored entries happen), plus — in ring semirings — exact
/// negations of stored entries (deletions).
template <Semiring S>
KRelation<S> genDelta(const FuzzCase &C, const FuzzTensor &T,
                      const KRelation<S> &A, Rng &R) {
  KRelation<S> D(A.shape());
  // A zero extent leaves no legal coordinates: the only batch is empty.
  for (Attr At : T.Shp)
    if (C.dimOf(At) <= 0)
      return D;
  size_t N = R.nextBelow(5);
  for (size_t I = 0; I < N; ++I) {
    if (semiringHasNegation<S>() && A.supportSize() > 0 && R.nextBool(0.35)) {
      auto It = A.entries().begin();
      std::advance(It, R.nextBelow(A.supportSize()));
      D.insert(It->first, -It->second);
      continue;
    }
    Tuple Tu(T.Shp.size());
    for (size_t Ax = 0; Ax < T.Shp.size(); ++Ax) {
      Idx Dim = C.dimOf(T.Shp[Ax]);
      if (A.supportSize() > 0 && R.nextBool(0.5)) {
        auto It = A.entries().begin();
        std::advance(It, R.nextBelow(A.supportSize()));
        Tu[Ax] = It->first[Ax];
      } else {
        Tu[Ax] = static_cast<Idx>(R.nextBelow(static_cast<uint64_t>(Dim)));
      }
    }
    D.insert(Tu, fuzzValue<S>(rawDeltaValue(R, C.SemiringName)));
  }
  D.pruneZeros();
  return D;
}

template <Semiring S>
void runDeltaTyped(const FuzzCase &C, uint64_t BatchSeed, FuzzReport &Rep) {
  ValueContext<S> Inputs;
  for (const FuzzTensor &T : C.Tensors)
    Inputs.emplace(T.Name, fuzzTensorRelation<S>(T));

  KRelation<S> Base = evalT<S>(C.E, Inputs);
  for (size_t TI = 0; TI < C.Tensors.size(); ++TI) {
    const FuzzTensor &T = C.Tensors[TI];
    Rng R(mix(BatchSeed, TI));
    KRelation<S> D = genDelta<S>(C, T, Inputs.at(T.Name), R);

    // Identity: T[e](Ctx[t := A+Δ]) == T[e](Ctx) + δ_t[e](Ctx, Δ).
    ValueContext<S> Patched = Inputs;
    Patched.at(T.Name) = Inputs.at(T.Name).add(D);
    KRelation<S> Left = evalT<S>(C.E, Patched);
    KRelation<S> Right = Base.add(evalDeltaT<S>(C.E, Inputs, T.Name, D));
    if (!Left.equals(Right))
      reportDiv(Rep, "delta/" + C.SemiringName + "/t=" + T.Name,
                "recompute=" + Left.toString() +
                    " incremental=" + Right.toString() +
                    " delta=" + D.toString());

    // The maintenance engine itself: apply the batch, compare against a
    // recomputation from the maintained base.
    GroupedView<S> GV(C.E, Inputs);
    GV.applyDelta(T.Name, D);
    if (!GV.value().equals(GV.recompute()))
      reportDiv(Rep, "delta/grouped/" + C.SemiringName + "/t=" + T.Name,
                "maintained=" + GV.value().toString() +
                    " recomputed=" + GV.recompute().toString() +
                    " delta=" + D.toString());
  }
}

//===----------------------------------------------------------------------===//
// Serve-stack layer: random append/delete scenarios through the driver
//===----------------------------------------------------------------------===//

int nonZeroInt(Rng &R) {
  int V = static_cast<int>(R.nextInRange(-3, 3));
  return V == 0 ? 1 : V;
}

/// What one scenario ends with, for the Both cross-check.
struct ScenarioFinals {
  std::map<std::string, double> Scalars;
  std::string Grouped;
};

struct Scenario {
  /// \p B names one executor (not Both), which every reading must report:
  /// the tree leg forces the reference VM over bytecode plans, the
  /// bytecode and native legs prepare plans for their own executor.
  Scenario(uint64_t Seed, VmBackend B, const std::string &JitCacheDir,
           FuzzReport &Rep)
      : R(mix(Seed, 0xde17a)), Plans(64),
        Executor(B == VmBackend::Tree     ? "tree"
                 : B == VmBackend::Native ? "native"
                                          : "bytecode"),
        Leg("delta-driver/" + Executor), Rep(Rep) {
    const std::vector<Attr> &U = fuzzAttrUniverse();
    AI = U[0];
    AJ = U[1];
    NR = 2 + static_cast<Idx>(R.nextBelow(5));
    NC = 2 + static_cast<Idx>(R.nextBelow(5));

    std::vector<CooEntry<double>> Coo;
    for (Idx I = 0; I < NR; ++I)
      for (Idx J = 0; J < NC; ++J)
        if (R.nextBool(0.45))
          Coo.push_back({I, J, static_cast<double>(nonZeroInt(R))});
    Cat.putCsr("M", CsrMatrix<double>::fromCoo(NR, NC, std::move(Coo)), AI,
               AJ);
    SparseVector<double> V(NC);
    for (Idx J = 0; J < NC; ++J)
      if (R.nextBool(0.5))
        V.push(J, static_cast<double>(nonZeroInt(R)));
    Cat.putSparse("v", std::move(V), AJ);
    SparseVector<double> Uv(NR);
    for (Idx I = 0; I < NR; ++I)
      if (R.nextBool(0.5))
        Uv.push(I, static_cast<double>(nonZeroInt(R)));
    Cat.putSparse("u", std::move(Uv), AI);
    DenseVector<double> Dv(NR);
    for (Idx I = 0; I < NR; ++I)
      Dv.Val[static_cast<size_t>(I)] =
          static_cast<double>(R.nextInRange(-2, 2));
    Cat.putDense("d", std::move(Dv), AI);

    IvmOptions IO;
    IO.Backend = B == VmBackend::Tree ? ExecBackend::Tree : ExecBackend::Auto;
    IO.Prep.UseNative = B == VmBackend::Native;
    IO.Prep.JitCacheDir = JitCacheDir;
    Drv = std::make_unique<MaintenanceDriver>(Cat, Plans, IO);

    registerScalar("vw_tot", {"M"});
    registerScalar("vw_spmv", {"M", "v", "u"});
    registerScalar("vw_sq", {"M", "M"});
    registerScalar("vw_vv", {"v", "v"});
    registerScalar("vw_du", {"d", "u"});
    std::string Err;
    if (!Drv->registerGroupedView("gv_rows", {"M", "v"}, {AI}, &Err))
      reportDiv(Rep, Leg + "/register/gv_rows", Err);
  }

  void registerScalar(const std::string &Name,
                      std::vector<std::string> Factors) {
    std::string Err;
    if (!Drv->registerView(Name, Factors, &Err))
      reportDiv(Rep, Leg + "/register/" + Name, Err);
    else
      Views.push_back({Name, std::move(Factors)});
  }

  /// One append/delete batch on "M" or "v", routed exactly the way the
  /// service write path routes it. Returns whether the canonicalized
  /// batch was non-empty.
  bool applyBatch(const std::string &Target) {
    CatalogSnapshotRef Pre = Cat.snapshot();
    bool NonEmpty = false;
    if (Target == "M") {
      const CsrMatrix<double> &M = Pre->find("M")->Csr;
      std::vector<CooEntry<double>> Delta;
      size_t N = 1 + R.nextBelow(3);
      for (size_t I = 0; I < N; ++I) {
        if (M.nnz() > 0 && R.nextBool(0.4)) {
          // Deletion: negate one stored entry exactly.
          size_t K = R.nextBelow(M.nnz());
          auto RowIt = std::upper_bound(M.Pos.begin(), M.Pos.end(), K);
          Idx Row = static_cast<Idx>(RowIt - M.Pos.begin()) - 1;
          Delta.push_back({Row, M.Crd[K], -M.Val[K]});
        } else {
          Delta.push_back({static_cast<Idx>(R.nextBelow(NR)),
                           static_cast<Idx>(R.nextBelow(NC)),
                           static_cast<double>(nonZeroInt(R))});
        }
      }
      if (R.nextBool(0.15)) {
        // A pair that cancels within the batch itself.
        Idx Rr = static_cast<Idx>(R.nextBelow(NR));
        Idx Cc = static_cast<Idx>(R.nextBelow(NC));
        Delta.push_back({Rr, Cc, 2.0});
        Delta.push_back({Rr, Cc, -2.0});
      }
      NonEmpty = !canonicalizeCoo(Delta).empty();
      Cat.appendCsr("M", Delta);
      Drv->onAppendCsr("M", Delta, Pre, Cat.snapshot());
    } else {
      const SparseVector<double> &V = Pre->find("v")->Sparse;
      std::vector<std::pair<Idx, double>> Delta;
      size_t N = 1 + R.nextBelow(3);
      for (size_t I = 0; I < N; ++I) {
        if (V.nnz() > 0 && R.nextBool(0.4)) {
          size_t K = R.nextBelow(V.nnz());
          Delta.emplace_back(V.Crd[K], -V.Val[K]);
        } else {
          Delta.emplace_back(static_cast<Idx>(R.nextBelow(NC)),
                             static_cast<double>(nonZeroInt(R)));
        }
      }
      NonEmpty = !canonicalizeSparse(Delta).empty();
      Cat.appendSparse("v", Delta);
      Drv->onAppendSparse("v", Delta, Pre, Cat.snapshot());
    }
    return NonEmpty;
  }

  /// The independent oracle: evalT over the live catalog payloads.
  KRelation<F64Semiring> oracle(const std::vector<std::string> &Factors,
                                const Shape &GroupBy, bool *Ok) {
    CatalogSnapshotRef Snap = Cat.snapshot();
    ValueContext<F64Semiring> Ctx;
    for (const std::string &F : Factors)
      if (!Ctx.count(F))
        Ctx.emplace(F, relationOf(*Snap->find(F)));
    TypeContext Ty = typesOf(Ctx);
    std::string Err;
    ExprPtr E;
    for (const std::string &F : Factors)
      E = E ? mulExpand(std::move(E), Expr::var(F), Ty, &Err) : Expr::var(F);
    std::optional<Shape> Shp = E ? inferShape(E, Ty, &Err) : std::nullopt;
    if (!Shp) {
      *Ok = false;
      return KRelation<F64Semiring>();
    }
    for (auto It = Shp->rbegin(); It != Shp->rend(); ++It)
      if (!shapeContains(GroupBy, *It))
        E = Expr::sum(*It, std::move(E));
    *Ok = true;
    return evalT<F64Semiring>(E, Ctx);
  }

  void checkViews(const std::string &When) {
    for (const auto &[Name, Factors] : Views) {
      auto Rd = Drv->read(Name);
      auto Rc = Drv->recompute(Name);
      if (!Rd || !Rc || !Rd->Ok || !Rc->Ok) {
        reportDiv(Rep, Leg + "/view/" + Name,
                  When + ": read/recompute failed: " +
                      (Rd ? Rd->Error : "missing") + " / " +
                      (Rc ? Rc->Error : "missing"));
        continue;
      }
      if (Rd->Backend != Executor || Rc->Backend != Executor)
        reportDiv(Rep, Leg + "/executor/" + Name,
                  When + ": read on " + Rd->Backend + ", recomputed on " +
                      Rc->Backend);
      if (std::memcmp(&Rd->Value, &Rc->Value, sizeof(double)) != 0)
        reportDiv(Rep, Leg + "/view/" + Name,
                  When + ": maintained=" + std::to_string(Rd->Value) +
                      " recomputed=" + std::to_string(Rc->Value));
      if (Rd->Epoch != Cat.epoch())
        reportDiv(Rep, Leg + "/view-epoch/" + Name,
                  When + ": reading at epoch " + std::to_string(Rd->Epoch) +
                      ", catalog at " + std::to_string(Cat.epoch()));
      bool Ok = false;
      KRelation<F64Semiring> Want = oracle(Factors, {}, &Ok);
      if (!Ok) {
        reportDiv(Rep, Leg + "/oracle/" + Name, When + ": oracle untypable");
        continue;
      }
      double WantV = Want.at({});
      if (std::memcmp(&Rd->Value, &WantV, sizeof(double)) != 0)
        reportDiv(Rep, Leg + "/oracle/" + Name,
                  When + ": maintained=" + std::to_string(Rd->Value) +
                      " evalT=" + std::to_string(WantV));
    }

    auto G1 = Drv->readGrouped("gv_rows");
    auto G2 = Drv->recomputeGrouped("gv_rows");
    if (!G1 || !G2) {
      reportDiv(Rep, Leg + "/grouped/gv_rows", When + ": read failed");
    } else {
      if (!G1->equals(*G2))
        reportDiv(Rep, Leg + "/grouped/gv_rows",
                  When + ": maintained=" + G1->toString() +
                      " recomputed=" + G2->toString());
      bool Ok = false;
      KRelation<F64Semiring> Want = oracle({"M", "v"}, {AI}, &Ok);
      if (Ok && !G1->equals(Want))
        reportDiv(Rep, Leg + "/grouped-oracle/gv_rows",
                  When + ": maintained=" + G1->toString() +
                      " evalT=" + Want.toString());
    }

    // Deletion compaction: no payload may carry an explicit zero weight.
    CatalogSnapshotRef Snap = Cat.snapshot();
    for (const char *N : {"M", "v", "u"}) {
      CatalogTensorRef T = Snap->find(N);
      const std::vector<double> &Vals =
          T->K == CatalogTensor::Kind::Csr ? T->Csr.Val : T->Sparse.Val;
      for (double X : Vals)
        if (X == 0.0)
          reportDiv(Rep, Leg + "/zombie-zero/" + std::string(N),
                    When + ": payload stores an explicit zero weight");
    }
  }

  void run() {
    checkViews("after registration");
    size_t NB = 5 + R.nextBelow(4);
    std::map<std::string, int> NonEmptyBatches;
    for (size_t B = 0; B < NB; ++B) {
      std::string Target = B == 0 ? "M" : B == 1 ? "v" : pickTarget();
      if (applyBatch(Target))
        ++NonEmptyBatches[Target];
      checkViews("after batch " + std::to_string(B) + " on " + Target);
    }

    // Retention: after a priming round (the main batches may all have
    // canceled to empty for a tensor, leaving its delta plans unbuilt), a
    // second round of batches on the same tensors must run without a
    // single planner enumeration.
    for (const char *Target : {"M", "v"})
      for (int Try = 0; Try < 8; ++Try) {
        bool NE = applyBatch(Target);
        if (NE)
          ++NonEmptyBatches[Target];
        checkViews(std::string("priming batch on ") + Target);
        if (NE)
          break; // The tensor's delta plans exist now.
      }
    uint64_t Planned = Plans.stats().PlannerRuns;
    for (size_t B = 0; B < 3; ++B) {
      std::string Target = B % 2 == 0 ? "M" : "v";
      if (applyBatch(Target))
        ++NonEmptyBatches[Target];
      checkViews("warm batch " + std::to_string(B) + " on " + Target);
    }
    if (Plans.stats().PlannerRuns != Planned)
      reportDiv(Rep, Leg + "/planner-rerun",
                "warm batches re-ran the planner: " + std::to_string(Planned) +
                    " -> " + std::to_string(Plans.stats().PlannerRuns));
    if (NonEmptyBatches["M"] >= 2 && Drv->stats().DeltaPlanHits == 0)
      reportDiv(Rep, Leg + "/no-plan-hits",
                "repeat batches on M never hit a retained delta plan");
  }

  std::string pickTarget() { return R.nextBool(0.5) ? "M" : "v"; }

  ScenarioFinals finals() {
    ScenarioFinals F;
    for (const auto &[Name, Factors] : Views) {
      (void)Factors;
      auto Rd = Drv->read(Name);
      F.Scalars[Name] = Rd && Rd->Ok
                            ? Rd->Value
                            : std::numeric_limits<double>::quiet_NaN();
    }
    auto G = Drv->readGrouped("gv_rows");
    F.Grouped = G ? G->toString() : "<missing>";
    return F;
  }

  Rng R;
  TensorCatalog Cat;
  PlanCache Plans;
  std::unique_ptr<MaintenanceDriver> Drv;
  std::string Executor;
  std::string Leg;
  FuzzReport &Rep;
  Attr AI, AJ;
  Idx NR = 0, NC = 0;
  std::vector<std::pair<std::string, std::vector<std::string>>> Views;
};

ScenarioFinals runScenario(uint64_t Seed, VmBackend B,
                           const std::string &JitCacheDir, FuzzReport &Rep) {
  Scenario Sc(Seed, B, JitCacheDir, Rep);
  Sc.run();
  return Sc.finals();
}

} // namespace

FuzzReport etch::runFuzzDelta(const FuzzCase &C, uint64_t BatchSeed) {
  FuzzReport Rep;
  std::string Err;
  if (!fuzzValidate(C, &Err)) {
    Rep.Invalid = true;
    Rep.ValidationError = Err;
    return Rep;
  }
  if (C.SemiringName == "f64")
    runDeltaTyped<F64Semiring>(C, BatchSeed, Rep);
  else if (C.SemiringName == "i64")
    runDeltaTyped<I64Semiring>(C, BatchSeed, Rep);
  else if (C.SemiringName == "bool")
    runDeltaTyped<BoolSemiring>(C, BatchSeed, Rep);
  else if (C.SemiringName == "minplus")
    runDeltaTyped<MinPlusSemiring>(C, BatchSeed, Rep);
  else {
    Rep.Invalid = true;
    Rep.ValidationError = "unknown semiring '" + C.SemiringName + "'";
  }
  return Rep;
}

uint64_t etch::fuzzDeltaBatchSeed(const FuzzCase &C) {
  // FNV-1a over the canonical serialization: stable across processes.
  uint64_t H = 0xcbf29ce484222325ULL;
  for (char Ch : serializeCase(C)) {
    H ^= static_cast<unsigned char>(Ch);
    H *= 0x100000001b3ULL;
  }
  return H;
}

FuzzReport etch::runFuzzDeltaDriver(uint64_t Seed, VmBackend Backend,
                                    const std::string &JitCacheDir) {
  FuzzReport Rep;
  switch (Backend) {
  case VmBackend::Tree:
  case VmBackend::Bytecode:
  case VmBackend::Native:
    runScenario(Seed, Backend, JitCacheDir, Rep);
    break;
  case VmBackend::Both: {
    ScenarioFinals T = runScenario(Seed, VmBackend::Tree, JitCacheDir, Rep);
    ScenarioFinals B =
        runScenario(Seed, VmBackend::Bytecode, JitCacheDir, Rep);
    for (const auto &[Name, TV] : T.Scalars) {
      auto It = B.Scalars.find(Name);
      if (It == B.Scalars.end() ||
          std::memcmp(&TV, &It->second, sizeof(double)) != 0)
        reportDiv(Rep, "delta-driver/tree-vs-bytecode/" + Name,
                  "tree=" + std::to_string(TV) + " bytecode=" +
                      (It == B.Scalars.end() ? "<missing>"
                                             : std::to_string(It->second)));
    }
    if (T.Grouped != B.Grouped)
      reportDiv(Rep, "delta-driver/tree-vs-bytecode/gv_rows",
                "tree=" + T.Grouped + " bytecode=" + B.Grouped);
    break;
  }
  }
  return Rep;
}
