//===- tests/ivm_test.cpp - Incremental view maintenance, serve layer -----===//
//
// Part of the etch project.
//
//===----------------------------------------------------------------------===//
//
// The IVM subsystem's promises through the real serving stack:
//
//  * catalog merge-appends build exactly the payload `fromCoo` over the
//    union would, with `CatalogStats` accounting the rebuild cost;
//  * every registered view stays *bit-identical* to full recomputation
//    across append and delete batches, including self-joins (the
//    binomial expansion) — data is integer-valued, so f64 sums are exact
//    in any association order;
//  * after the first batch, a refresh performs no planner enumeration:
//    retained delta plans are rebound, and the PlanCache counters prove
//    it;
//  * deletions (negative-weight deltas) drive stored entries to exact
//    zero and the zeros are compacted — no zombies in payloads or views;
//  * `readView` is snapshot-consistent: its epoch tracks the catalog
//    epoch even for writes the view does not read;
//  * wholesale replacement recomputes, erasure invalidates, reload heals;
//  * concurrent readers race a writer without torn readings (run under
//    TSan in CI);
//  * views answer bit-identically whether their plans run native or
//    bytecode, and a retained native plan rebinds without keeping bound
//    memory or bytecode.
//
//===----------------------------------------------------------------------===//

#include "serve/prepare.h"
#include "serve/service.h"

#include "formats/random.h"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <thread>

using namespace etch;

namespace {

namespace fs = std::filesystem;

// Registered in this order, so VI < VJ globally. Tests touching attrs
// before constructing a ScopedService must call pinAttrs() first —
// argument evaluation order would otherwise intern VJ before VI.
Attr VI() { return Attr::named("ivm_i"); }
Attr VJ() { return Attr::named("ivm_j"); }
void pinAttrs() {
  VI();
  VJ();
}

bool sameBits(double A, double B) {
  uint64_t X, Y;
  std::memcpy(&X, &A, sizeof(X));
  std::memcpy(&Y, &B, sizeof(Y));
  return X == Y;
}

/// Integer-valued test data: exact under f64 in any summation order.
CsrMatrix<double> makeMatrix() {
  return CsrMatrix<double>::fromCoo(
      4, 5,
      {{0, 0, 2.0}, {0, 3, -1.0}, {1, 1, 3.0}, {2, 0, 1.0}, {2, 4, 5.0},
       {3, 2, -2.0}});
}

SparseVector<double> makeVector() {
  SparseVector<double> V(5);
  V.push(0, 1.0);
  V.push(2, 4.0);
  V.push(3, 2.0);
  return V;
}

/// Σ_i Σ_j A(i,j)·x(j), densely, from the live payloads.
double refSpmv(const CsrMatrix<double> &A, const SparseVector<double> &X) {
  std::vector<double> XD(static_cast<size_t>(A.NumCols), 0.0);
  for (size_t K = 0; K < X.Crd.size(); ++K)
    XD[static_cast<size_t>(X.Crd[K])] = X.Val[K];
  double S = 0.0;
  for (size_t P = 0; P < A.Val.size(); ++P)
    S += A.Val[P] * XD[static_cast<size_t>(A.Crd[P])];
  return S;
}

/// A service whose JIT cache lives under the gtest temp dir.
struct ScopedService {
  std::string Dir;
  std::unique_ptr<ContractionService> S;

  explicit ScopedService(const std::string &Tag, ServeOptions O = {}) {
    Dir = (fs::path(::testing::TempDir()) / ("etch-ivm-test-" + Tag)).string();
    std::error_code Ec;
    fs::remove_all(Dir, Ec);
    O.JitCacheDir = Dir;
    S = std::make_unique<ContractionService>(O);
    pinAttrs();
    S->loadCsr("A", makeMatrix(), VI(), VJ());
    S->loadSparse("x", makeVector(), VJ());
  }
  ~ScopedService() {
    S.reset();
    std::error_code Ec;
    fs::remove_all(Dir, Ec);
  }
  ContractionService &operator*() { return *S; }
  ContractionService *operator->() { return S.get(); }
};

/// Reads a view and checks it against the driver's own planner-free full
/// recomputation, bit for bit, and against the catalog epoch.
void expectViewCurrent(ContractionService &S, const std::string &Name) {
  auto Rd = S.readView(Name);
  ASSERT_TRUE(Rd.has_value());
  ASSERT_TRUE(Rd->Ok) << Rd->Error;
  auto Rc = S.maintenance().recompute(Name);
  ASSERT_TRUE(Rc.has_value());
  ASSERT_TRUE(Rc->Ok) << Rc->Error;
  EXPECT_TRUE(sameBits(Rd->Value, Rc->Value))
      << Name << ": stored=" << Rd->Value << " recomputed=" << Rc->Value;
  EXPECT_EQ(Rd->Epoch, S.catalog().epoch());
}

//===----------------------------------------------------------------------===//
// Catalog merge-appends
//===----------------------------------------------------------------------===//

TEST(IvmCatalog, MergeAppendEqualsFromCooOverTheUnion) {
  pinAttrs();
  TensorCatalog Cat;
  std::vector<CooEntry<double>> Base = {
      {0, 0, 2.0}, {1, 2, 3.0}, {2, 1, -1.0}};
  Cat.putCsr("A", CsrMatrix<double>::fromCoo(3, 3, Base), VI(), VJ());
  // Colliding coordinate (0,0), a fresh one, and a duplicate pair within
  // the delta itself.
  std::vector<CooEntry<double>> Delta = {
      {0, 0, 5.0}, {2, 2, 4.0}, {1, 0, 1.5}, {1, 0, 1.5}};
  ASSERT_NE(Cat.appendCsr("A", Delta), 0u);

  std::vector<CooEntry<double>> All = Base;
  All.insert(All.end(), Delta.begin(), Delta.end());
  CsrMatrix<double> Want = CsrMatrix<double>::fromCoo(3, 3, All);
  CatalogTensorRef T = Cat.snapshot()->find("A");
  ASSERT_TRUE(T);
  EXPECT_EQ(T->Csr.Pos, Want.Pos);
  EXPECT_EQ(T->Csr.Crd, Want.Crd);
  EXPECT_EQ(T->Csr.Val, Want.Val);

  CatalogStats CS = Cat.stats();
  EXPECT_EQ(CS.Appends, 1u);
  EXPECT_EQ(CS.DeltaNnz, 3u); // canonicalized: the duplicate pair merged
  EXPECT_EQ(CS.MergedNnz, Base.size());
  EXPECT_EQ(CS.Replaces, 1u);
}

TEST(IvmCatalog, AppendCompactsExactZeros) {
  pinAttrs();
  TensorCatalog Cat;
  SparseVector<double> V(6);
  V.push(1, 2.5);
  V.push(4, -3.0);
  Cat.putSparse("v", V, VJ());
  // Cancel one entry exactly, decrement the other.
  ASSERT_NE(Cat.appendSparse("v", {{4, 3.0}, {1, -0.5}}), 0u);
  CatalogTensorRef T = Cat.snapshot()->find("v");
  ASSERT_TRUE(T);
  EXPECT_EQ(T->Sparse.nnz(), 1u);
  EXPECT_EQ(T->Sparse.Crd, (std::vector<Idx>{1}));
  EXPECT_EQ(T->Sparse.Val, (std::vector<double>{2.0}));
  EXPECT_EQ(Cat.stats().CompactedZeros, 1u);
}

TEST(IvmCatalog, AppendToAbsentOrMismatchedTensorIsRejected) {
  pinAttrs();
  TensorCatalog Cat;
  Cat.putSparse("v", SparseVector<double>(4), VJ());
  EXPECT_EQ(Cat.appendCsr("missing", {{0, 0, 1.0}}), 0u);
  EXPECT_EQ(Cat.appendCsr("v", {{0, 0, 1.0}}), 0u); // wrong kind
  EXPECT_EQ(Cat.stats().Appends, 0u);
}

//===----------------------------------------------------------------------===//
// Scalar views: registration, incremental bit-identity
//===----------------------------------------------------------------------===//

TEST(IvmViews, RegistrationComputesTheInitialValue) {
  ScopedService Svc("register");
  std::string Err;
  ASSERT_TRUE(Svc->registerView("spmv", ServeQuery{{"A", "x"}}, &Err)) << Err;
  auto Rd = Svc->readView("spmv");
  ASSERT_TRUE(Rd && Rd->Ok);
  EXPECT_EQ(Rd->Value, refSpmv(makeMatrix(), makeVector()));
  EXPECT_EQ(Rd->Epoch, Svc->catalog().epoch());
  EXPECT_FALSE(Svc->readView("unknown").has_value());
  EXPECT_FALSE(Svc->registerView("bad", ServeQuery{{"A", "ghost"}}, &Err));
}

TEST(IvmViews, IncrementalRefreshIsBitIdenticalToRecompute) {
  ScopedService Svc("increments");
  std::string Err;
  ASSERT_TRUE(Svc->registerView("spmv", ServeQuery{{"A", "x"}}, &Err)) << Err;

  // Appends and deletions interleaved, on both factors.
  ASSERT_NE(Svc->appendCsr("A", {{0, 1, 3.0}, {3, 3, -2.0}}), 0u);
  expectViewCurrent(*Svc, "spmv");
  ASSERT_NE(Svc->appendSparse("x", {{1, 2.0}, {4, -1.0}}), 0u);
  expectViewCurrent(*Svc, "spmv");
  ASSERT_NE(Svc->appendCsr("A", {{0, 0, -2.0}}), 0u); // deletes A(0,0)
  expectViewCurrent(*Svc, "spmv");

  // And against the dense reference over the live payloads.
  CatalogSnapshotRef Snap = Svc->snapshot();
  double Want = refSpmv(Snap->find("A")->Csr, Snap->find("x")->Sparse);
  auto Rd = Svc->readView("spmv");
  ASSERT_TRUE(Rd && Rd->Ok);
  EXPECT_EQ(Rd->Value, Want);
}

TEST(IvmViews, SelfJoinExpandsBinomially) {
  // spmv_sq = Σ_{i,j} A(i,j)·A(i,j): the factor occurs twice, so a batch
  // must contribute 2·A·Δ + Δ·Δ — an append-only driver that forgot the
  // Δ² term (or the coefficient) would drift.
  ScopedService Svc("selfjoin");
  std::string Err;
  ASSERT_TRUE(Svc->registerView("sq", ServeQuery{{"A", "A"}}, &Err)) << Err;
  // Batches deliberately hit stored coordinates.
  ASSERT_NE(Svc->appendCsr("A", {{0, 0, 1.0}, {1, 1, -3.0}}), 0u);
  expectViewCurrent(*Svc, "sq");
  ASSERT_NE(Svc->appendCsr("A", {{0, 3, 2.0}, {2, 4, 1.0}}), 0u);
  expectViewCurrent(*Svc, "sq");

  CatalogSnapshotRef Snap = Svc->snapshot();
  double Want = 0.0;
  for (double V : Snap->find("A")->Csr.Val)
    Want += V * V;
  auto Rd = Svc->readView("sq");
  ASSERT_TRUE(Rd && Rd->Ok);
  EXPECT_EQ(Rd->Value, Want);
}

//===----------------------------------------------------------------------===//
// Plan retention: refreshes are planner-free after the first batch
//===----------------------------------------------------------------------===//

TEST(IvmViews, DeltaRefreshesArePlannerFreeAfterTheFirstBatch) {
  ScopedService Svc("retention");
  std::string Err;
  ASSERT_TRUE(Svc->registerView("spmv", ServeQuery{{"A", "x"}}, &Err)) << Err;
  ASSERT_TRUE(Svc->registerView("sq", ServeQuery{{"A", "A"}}, &Err)) << Err;

  // First batches build the delta plans.
  ASSERT_NE(Svc->appendCsr("A", {{1, 2, 2.0}}), 0u);
  ASSERT_NE(Svc->appendSparse("x", {{0, 1.0}}), 0u);
  MaintainStats MS = Svc->viewStats();
  EXPECT_GT(MS.DeltaPlanBuilds, 0u);

  // Every further batch rebinds retained plans: the planner never runs
  // again, and the hit counter advances.
  uint64_t Planned = Svc->planStats().PlannerRuns;
  uint64_t Hits = MS.DeltaPlanHits;
  for (int I = 0; I < 4; ++I) {
    ASSERT_NE(Svc->appendCsr("A", {{0, static_cast<Idx>(I + 1), 1.0}}), 0u);
    ASSERT_NE(Svc->appendSparse("x", {{static_cast<Idx>(I), 2.0}}), 0u);
    expectViewCurrent(*Svc, "spmv");
    expectViewCurrent(*Svc, "sq");
  }
  EXPECT_EQ(Svc->planStats().PlannerRuns, Planned);
  EXPECT_GT(Svc->viewStats().DeltaPlanHits, Hits);
  EXPECT_GE(Svc->viewStats().DeltaRefreshes, 8u);
}

//===----------------------------------------------------------------------===//
// Deletions
//===----------------------------------------------------------------------===//

TEST(IvmDeletion, DeleteDrivesEntriesToExactZeroWithNoZombies) {
  ScopedService Svc("deletion");
  std::string Err;
  ASSERT_TRUE(Svc->registerView("spmv", ServeQuery{{"A", "x"}}, &Err)) << Err;

  size_t NnzBefore = Svc->snapshot()->find("A")->Csr.nnz();
  ASSERT_NE(Svc->deleteCsr("A", {{0, 0}, {2, 4}}), 0u);
  CatalogSnapshotRef Snap = Svc->snapshot();
  const CsrMatrix<double> &A = Snap->find("A")->Csr;
  EXPECT_EQ(A.nnz(), NnzBefore - 2);
  for (double V : A.Val)
    EXPECT_NE(V, 0.0); // compacted, not zeroed in place
  expectViewCurrent(*Svc, "spmv");

  // Vector deletions through the same path; absent coordinates ignored.
  ASSERT_NE(Svc->deleteSparse("x", {3, 4}), 0u); // 4 has no stored weight
  const SparseVector<double> &X = Svc->snapshot()->find("x")->Sparse;
  EXPECT_EQ(X.nnz(), 2u);
  for (double V : X.Val)
    EXPECT_NE(V, 0.0);
  expectViewCurrent(*Svc, "spmv");

  // Deleting everything leaves an empty payload and a zero view.
  ASSERT_NE(Svc->deleteSparse("x", {0, 2}), 0u);
  EXPECT_EQ(Svc->snapshot()->find("x")->Sparse.nnz(), 0u);
  auto Rd = Svc->readView("spmv");
  ASSERT_TRUE(Rd && Rd->Ok);
  EXPECT_EQ(Rd->Value, 0.0);
}

//===----------------------------------------------------------------------===//
// Snapshot consistency
//===----------------------------------------------------------------------===//

TEST(IvmViews, EpochTracksWritesTheViewDoesNotRead) {
  ScopedService Svc("epoch");
  Svc->loadSparse("y", makeVector(), VJ());
  std::string Err;
  ASSERT_TRUE(Svc->registerView("ytot", ServeQuery{{"y"}}, &Err)) << Err;
  double Before = Svc->readView("ytot")->Value;

  // Writes to tensors the view never reads still advance its epoch (the
  // view is consistent *with the catalog*, not merely with its factors),
  // and leave its value untouched bit for bit.
  ASSERT_NE(Svc->appendCsr("A", {{1, 1, 1.0}}), 0u);
  ASSERT_NE(Svc->appendSparse("x", {{2, -4.0}}), 0u);
  auto Rd = Svc->readView("ytot");
  ASSERT_TRUE(Rd && Rd->Ok);
  EXPECT_EQ(Rd->Epoch, Svc->catalog().epoch());
  EXPECT_TRUE(sameBits(Rd->Value, Before));
}

//===----------------------------------------------------------------------===//
// Replace / erase lifecycle
//===----------------------------------------------------------------------===//

TEST(IvmViews, ReplaceRecomputesAndEraseInvalidates) {
  ScopedService Svc("lifecycle");
  std::string Err;
  ASSERT_TRUE(Svc->registerView("spmv", ServeQuery{{"A", "x"}}, &Err)) << Err;

  // Wholesale replacement has no delta: the view recomputes in full.
  CsrMatrix<double> B = CsrMatrix<double>::fromCoo(4, 5, {{0, 2, 7.0}});
  Svc->loadCsr("A", B, VI(), VJ());
  auto Rd = Svc->readView("spmv");
  ASSERT_TRUE(Rd && Rd->Ok);
  EXPECT_EQ(Rd->Value, refSpmv(B, makeVector()));
  expectViewCurrent(*Svc, "spmv");

  // Erasing a factor puts the view into an error state...
  Svc->catalog().erase("x");
  Svc->maintenance().onErase("x", Svc->snapshot());
  Rd = Svc->readView("spmv");
  ASSERT_TRUE(Rd.has_value());
  EXPECT_FALSE(Rd->Ok);

  // ...and reloading it heals the view.
  Svc->loadSparse("x", makeVector(), VJ());
  expectViewCurrent(*Svc, "spmv");
}

//===----------------------------------------------------------------------===//
// Grouped views through the driver
//===----------------------------------------------------------------------===//

TEST(IvmGrouped, RowSumsMaintainAndCompact) {
  ScopedService Svc("grouped");
  std::string Err;
  ASSERT_TRUE(Svc->maintenance().registerGroupedView(
      "rows", {"A", "x"}, Shape{VI()}, &Err))
      << Err;

  auto check = [&] {
    auto Got = Svc->maintenance().readGrouped("rows");
    auto Want = Svc->maintenance().recomputeGrouped("rows");
    ASSERT_TRUE(Got && Want);
    EXPECT_TRUE(Got->equals(*Want))
        << Got->toString() << " vs " << Want->toString();
  };
  check();

  ASSERT_NE(Svc->appendCsr("A", {{3, 0, 4.0}}), 0u);
  check();
  ASSERT_NE(Svc->appendSparse("x", {{1, 1.0}}), 0u);
  check();

  // Delete row 1 of A entirely: its group must vanish from the view.
  ASSERT_NE(Svc->deleteCsr("A", {{1, 1}}), 0u);
  check();
  auto Got = Svc->maintenance().readGrouped("rows");
  ASSERT_TRUE(Got.has_value());
  for (const auto &[T, V] : Got->entries()) {
    EXPECT_NE(T[0], 1);
    EXPECT_NE(V, 0.0);
  }
}

//===----------------------------------------------------------------------===//
// Concurrency (TSan)
//===----------------------------------------------------------------------===//

TEST(IvmConcurrency, ReadersRaceTheWriterWithoutTornReadings) {
  ScopedService Svc("race");
  std::string Err;
  ASSERT_TRUE(Svc->registerView("spmv", ServeQuery{{"A", "x"}}, &Err)) << Err;

  constexpr int Writes = 60;
  std::thread Writer([&] {
    for (int I = 0; I < Writes; ++I) {
      if (I % 3 == 2)
        Svc->deleteCsr("A", {{static_cast<Idx>(I % 4), 0}});
      else if (I % 2)
        Svc->appendSparse("x", {{static_cast<Idx>(I % 5), 1.0}});
      else
        Svc->appendCsr(
            "A", {{static_cast<Idx>(I % 4), static_cast<Idx>(I % 5), 2.0}});
    }
  });
  std::vector<std::thread> Readers;
  for (int R = 0; R < 3; ++R)
    Readers.emplace_back([&] {
      for (int I = 0; I < 150; ++I) {
        auto Rd = Svc->readView("spmv");
        ASSERT_TRUE(Rd.has_value());
        ASSERT_TRUE(Rd->Ok) << Rd->Error;
        ServeResult Q = Svc->query(ServeQuery{{"A", "x"}});
        ASSERT_TRUE(Q.Ok) << Q.Error;
      }
    });
  Writer.join();
  for (std::thread &T : Readers)
    T.join();

  // Quiescent state: the stored value equals recomputation exactly.
  expectViewCurrent(*Svc, "spmv");
}

//===----------------------------------------------------------------------===//
// One executor per plan
//===----------------------------------------------------------------------===//

TEST(IvmViews, BytecodeAndNativeViewsAgreeAcrossAppendsAndDeletes) {
  ScopedService Native("exec-native");
  ScopedService Bytecode("exec-bytecode", [] {
    ServeOptions O;
    O.UseNative = false;
    return O;
  }());
  std::string Err;
  for (ScopedService *S : {&Native, &Bytecode}) {
    ASSERT_TRUE((*S)->registerView("sq", ServeQuery{{"A", "A"}}, &Err)) << Err;
    ASSERT_TRUE((*S)->registerView("spmv", ServeQuery{{"A", "x"}}, &Err))
        << Err;
  }
  auto check = [&](const char *When) {
    for (const char *Name : {"sq", "spmv"}) {
      expectViewCurrent(*Native, Name);
      expectViewCurrent(*Bytecode, Name);
      auto RN = Native->readView(Name);
      auto RB = Bytecode->readView(Name);
      ASSERT_TRUE(RN && RB && RN->Ok && RB->Ok);
      EXPECT_EQ(RB->Backend, "bytecode");
      EXPECT_EQ(RN->Backend,
                jitToolchain().Available ? "native" : "bytecode");
      EXPECT_TRUE(sameBits(RN->Value, RB->Value))
          << When << ": " << Name << " native=" << RN->Value
          << " bytecode=" << RB->Value;
    }
  };
  // Appends and deletes on the self-joined factor, plus writes to x that
  // leave A unchanged: a native retained plan then rebinds its unmoved
  // factor too, through scratch memory.
  auto write = [&](const char *When, auto Op) {
    Op(*Native);
    Op(*Bytecode);
    check(When);
  };
  check("registered");
  write("append A", [](ContractionService &S) {
    ASSERT_NE(S.appendCsr("A", {{0, 0, 1.0}, {1, 1, -3.0}}), 0u);
  });
  write("append x", [](ContractionService &S) {
    ASSERT_NE(S.appendSparse("x", {{1, 2.0}}), 0u);
  });
  write("delete A", [](ContractionService &S) {
    ASSERT_NE(S.deleteCsr("A", {{2, 4}}), 0u);
  });
  write("append+cancel A", [](ContractionService &S) {
    ASSERT_NE(S.appendCsr("A", {{3, 3, 2.0}, {0, 3, 1.0}}), 0u);
  });
  write("delete x", [](ContractionService &S) {
    ASSERT_NE(S.deleteSparse("x", {0}), 0u);
  });
}

TEST(IvmViews, RetainedNativePlanRebindsWithoutBoundMemory) {
  if (!jitToolchain().Available)
    GTEST_SKIP() << "no system C compiler: " << jitToolchain().Diag;
  pinAttrs();
  TensorCatalog Cat;
  Cat.putCsr("A", makeMatrix(), VI(), VJ());
  Cat.putSparse("x", makeVector(), VJ());
  std::string Dir =
      (fs::path(::testing::TempDir()) / "etch-ivm-test-rebind").string();
  PrepareOptions PN;
  PN.AllowHashed = false;
  PN.Retain = true;
  PN.JitCacheDir = Dir;
  PrepareOptions PB = PN;
  PB.UseNative = false;
  std::string Err;
  TensorResolver R0 = snapshotResolver(Cat.snapshot());
  CachedPlanRef N = prepareContraction("n", {"A", "x"}, R0, PN, nullptr, &Err);
  ASSERT_TRUE(N) << Err;
  CachedPlanRef B = prepareContraction("b", {"A", "x"}, R0, PB, nullptr, &Err);
  ASSERT_TRUE(B) << Err;
  EXPECT_TRUE(N->Call && N->Bc.Code.empty() && N->BoundMem.allArrays().empty());
  EXPECT_TRUE(!B->Call && !B->Bc.Code.empty() &&
              !B->BoundMem.allArrays().empty());

  for (Idx I = 0; I < 3; ++I) {
    ASSERT_NE(Cat.appendCsr("A", {{I, I, 1.0}}), 0u); // only A moves
    CatalogSnapshotRef Snap = Cat.snapshot();
    TensorResolver R = snapshotResolver(Snap);
    ExecOutcome ON = executePlan(*N, ExecBackend::Auto, &R);
    ExecOutcome OB = executePlan(*B, ExecBackend::Auto, &R);
    ASSERT_TRUE(ON.Ok && OB.Ok) << ON.Error << " / " << OB.Error;
    EXPECT_EQ(ON.Backend, "native");
    EXPECT_EQ(OB.Backend, "bytecode");
    EXPECT_TRUE(sameBits(ON.Value, OB.Value));
    EXPECT_EQ(ON.Value,
              refSpmv(Snap->find("A")->Csr, Snap->find("x")->Sparse));
    // The rebind's scratch memory died with it.
    EXPECT_TRUE(N->BoundMem.allArrays().empty());
    EXPECT_TRUE(N->Bc.Code.empty());
  }
  std::error_code Ec;
  fs::remove_all(Dir, Ec);
}

} // namespace
