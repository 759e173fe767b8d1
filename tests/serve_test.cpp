//===- tests/serve_test.cpp - Concurrent contraction service --------------===//
//
// Part of the etch project.
//
//===----------------------------------------------------------------------===//
//
// The serve layer (serve/service.h) promises three amortization layers
// and one isolation guarantee, and these tests pin all of them:
//
//  * plan-cache amortization: the first query of a shape runs the planner
//    exactly once; every subsequent query is a counted hit that performs
//    NO planner enumeration (PlannerRuns stays put) and returns
//    bit-identical results;
//  * canonical keying: permuted factor lists share one plan;
//  * invalidation precision: a write to tensor T drops only plans
//    reading T — unrelated shapes keep hitting;
//  * snapshot isolation: readers pinned to epoch E see bit-identical
//    results no matter how many epochs a concurrent writer installs;
//  * batching: queryBatch groups identical queries onto one dispatch
//    each, and every result is bit-identical to per-request serial
//    execution on an identically-loaded service;
//  * one executor per plan: a native plan keeps no bytecode and no bound
//    memory, a bytecode plan keeps no native call and names why in its
//    EXPLAIN, and the two answer bit-identically;
//  * the write path: an append with an out-of-range coordinate is
//    rejected whole with no side effect, and every installed version's
//    planner statistics equal a set-based oracle over its entries;
//  * plan-cache capacity: LRU eviction that never drops a retained plan.
//
// The concurrency tests run under TSan in CI.
//
//===----------------------------------------------------------------------===//

#include "serve/prepare.h"
#include "serve/service.h"

#include "formats/random.h"
#include "stats_oracle.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <thread>
#include <vector>

using namespace etch;

namespace {

namespace fs = std::filesystem;

// Registered in this order, so SI < SJ in the global attribute order.
Attr SI() { return Attr::named("sv_i"); }
Attr SJ() { return Attr::named("sv_j"); }

bool sameBits(double A, double B) {
  uint64_t X, Y;
  std::memcpy(&X, &A, sizeof(X));
  std::memcpy(&Y, &B, sizeof(Y));
  return X == Y;
}

/// Dense reference for Σ_i Σ_j A(i,j)·x(j).
double refSpmv(const CsrMatrix<double> &A, const SparseVector<double> &X) {
  std::vector<double> XD(static_cast<size_t>(A.NumCols), 0.0);
  for (size_t K = 0; K < X.Crd.size(); ++K)
    XD[static_cast<size_t>(X.Crd[K])] = X.Val[K];
  double S = 0.0;
  for (size_t P = 0; P < A.Val.size(); ++P)
    S += A.Val[P] * XD[static_cast<size_t>(A.Crd[P])];
  return S;
}

/// Dense reference for Σ_i y(i)·z(i)·w(i).
double refTriple(const SparseVector<double> &Y, const SparseVector<double> &Z,
                 const SparseVector<double> &W) {
  std::vector<double> YD(static_cast<size_t>(Y.Size), 0.0),
      ZD(YD.size(), 0.0), WD(YD.size(), 0.0);
  for (size_t K = 0; K < Y.Crd.size(); ++K)
    YD[static_cast<size_t>(Y.Crd[K])] = Y.Val[K];
  for (size_t K = 0; K < Z.Crd.size(); ++K)
    ZD[static_cast<size_t>(Z.Crd[K])] = Z.Val[K];
  for (size_t K = 0; K < W.Crd.size(); ++K)
    WD[static_cast<size_t>(W.Crd[K])] = W.Val[K];
  double S = 0.0;
  for (size_t I = 0; I < YD.size(); ++I)
    S += YD[I] * ZD[I] * WD[I];
  return S;
}

/// Dense reference for Σ_i Σ_j A(i,j)·d(j).
double refMatDense(const CsrMatrix<double> &A, const DenseVector<double> &D) {
  double S = 0.0;
  for (size_t P = 0; P < A.Val.size(); ++P)
    S += A.Val[P] * D.Val[static_cast<size_t>(A.Crd[P])];
  return S;
}

/// One shared data set, loadable into any number of services so serial
/// and concurrent executions can be compared bit for bit.
struct ServeData {
  CsrMatrix<double> A;
  SparseVector<double> X{40}, Y{30}, Z{30}, W{30};
  DenseVector<double> D{40};

  ServeData() {
    Rng R(97);
    A = randomCsr(R, 30, 40, 180);
    X = randomSparseVector(R, 40, 18);
    Y = randomSparseVector(R, 30, 15);
    Z = randomSparseVector(R, 30, 15);
    W = randomSparseVector(R, 30, 15);
    for (Idx I = 0; I < D.Size; ++I)
      D.Val[static_cast<size_t>(I)] = randomValue(R);
  }

  void load(ContractionService &S) const {
    SI(); // pin the attribute registration order
    S.loadCsr("A", A, SI(), SJ());
    S.loadSparse("x", X, SJ());
    S.loadSparse("y", Y, SI());
    S.loadSparse("z", Z, SI());
    S.loadSparse("w", W, SI());
    S.loadDense("d", D, SJ());
  }
};

/// A service with a per-test JIT cache directory under the gtest temp
/// dir, removed on destruction.
struct ScopedService {
  std::string Dir;
  std::unique_ptr<ContractionService> S;

  explicit ScopedService(const std::string &Tag, const ServeData &Data,
                         ServeOptions O = {}) {
    Dir = (fs::path(::testing::TempDir()) / ("etch-serve-test-" + Tag))
              .string();
    std::error_code Ec;
    fs::remove_all(Dir, Ec);
    O.JitCacheDir = Dir;
    S = std::make_unique<ContractionService>(O);
    Data.load(*S);
  }
  ~ScopedService() {
    S.reset();
    std::error_code Ec;
    fs::remove_all(Dir, Ec);
  }
  ContractionService &operator*() { return *S; }
  ContractionService *operator->() { return S.get(); }
};

const std::vector<ServeQuery> &allShapes() {
  static const std::vector<ServeQuery> Shapes = {
      ServeQuery{{"A", "x"}}, ServeQuery{{"y", "z", "w"}},
      ServeQuery{{"A", "d"}}, ServeQuery{{"x", "x"}}, ServeQuery{{"x", "d"}}};
  return Shapes;
}

/// Prepares \p Q against the service's current snapshot, outside its plan
/// cache.
CachedPlanRef prepareOn(ScopedService &Svc, const ServeQuery &Q,
                        bool UseNative) {
  PrepareOptions PO;
  PO.UseNative = UseNative;
  PO.JitCacheDir = Svc.Dir;
  std::string Err;
  CachedPlanRef P = prepareContraction("test", Q.Tensors,
                                       snapshotResolver(Svc->snapshot()), PO,
                                       /*Cache=*/nullptr, &Err);
  EXPECT_TRUE(P) << Err;
  return P;
}

//===----------------------------------------------------------------------===//
// Plan-cache amortization
//===----------------------------------------------------------------------===//

TEST(Serve, FirstQueryPlansOnceThenEveryQueryHits) {
  ServeData Data;
  ScopedService Svc("amortize", Data);
  ServeQuery Q{{"A", "x"}};

  ServeResult First = Svc->query(Q);
  ASSERT_TRUE(First.Ok) << First.Error;
  EXPECT_FALSE(First.PlanCacheHit);
  EXPECT_NEAR(First.Value, refSpmv(Data.A, Data.X), 1e-9);
  PlanCacheStats PS = Svc->planStats();
  EXPECT_EQ(PS.Misses, 1u);
  EXPECT_EQ(PS.PlannerRuns, 1u);
  EXPECT_EQ(PS.Hits, 0u);
  EXPECT_EQ(PS.Resident, 1u);

  for (int I = 0; I < 10; ++I) {
    ServeResult R = Svc->query(Q);
    ASSERT_TRUE(R.Ok) << R.Error;
    EXPECT_TRUE(R.PlanCacheHit);
    EXPECT_TRUE(sameBits(R.Value, First.Value));
    EXPECT_EQ(R.Backend, First.Backend);
  }
  PS = Svc->planStats();
  EXPECT_EQ(PS.Hits, 10u);
  // The acceptance contract: a hit performs no planner enumeration.
  EXPECT_EQ(PS.PlannerRuns, 1u);

  ServiceStats SS = Svc->stats();
  EXPECT_EQ(SS.Queries, 11u);
  EXPECT_EQ(SS.Executions, 11u);
  EXPECT_EQ(SS.Coalesced, 0u);
}

TEST(Serve, PermutedFactorsShareOnePlan) {
  ServeData Data;
  ScopedService Svc("canon", Data);
  ServeResult R1 = Svc->query(ServeQuery{{"y", "z", "w"}});
  ASSERT_TRUE(R1.Ok) << R1.Error;
  EXPECT_NEAR(R1.Value, refTriple(Data.Y, Data.Z, Data.W), 1e-9);

  ServeResult R2 = Svc->query(ServeQuery{{"w", "y", "z"}});
  ASSERT_TRUE(R2.Ok) << R2.Error;
  EXPECT_TRUE(R2.PlanCacheHit);
  EXPECT_TRUE(sameBits(R1.Value, R2.Value));
  EXPECT_EQ(Svc->planStats().PlannerRuns, 1u);
}

TEST(Serve, WriteInvalidatesOnlyPlansReadingThatTensor) {
  ServeData Data;
  ScopedService Svc("invalidate", Data);
  ASSERT_TRUE(Svc->query(ServeQuery{{"A", "x"}}).Ok);
  ASSERT_TRUE(Svc->query(ServeQuery{{"y", "z", "w"}}).Ok);
  ASSERT_TRUE(Svc->query(ServeQuery{{"A", "d"}}).Ok);
  EXPECT_EQ(Svc->planStats().Resident, 3u);

  // Append one entry in a column where x is nonzero, so the SpMV value
  // genuinely changes.
  Idx C = Data.X.Crd[0];
  Svc->appendCsr("A", {{0, C, 3.5}});
  PlanCacheStats PS = Svc->planStats();
  EXPECT_EQ(PS.Invalidations, 2u); // {A,x} and {A,d} both read A
  EXPECT_EQ(PS.Resident, 1u);

  // The unaffected shape still hits.
  ServeResult RT = Svc->query(ServeQuery{{"y", "z", "w"}});
  ASSERT_TRUE(RT.Ok);
  EXPECT_TRUE(RT.PlanCacheHit);

  // The affected shape re-plans against the new version and sees the
  // appended entry.
  ServeResult RS = Svc->query(ServeQuery{{"A", "x"}});
  ASSERT_TRUE(RS.Ok) << RS.Error;
  EXPECT_FALSE(RS.PlanCacheHit);
  CsrMatrix<double> A2 = Svc->snapshot()->find("A")->Csr;
  EXPECT_NEAR(RS.Value, refSpmv(A2, Data.X), 1e-9);
  EXPECT_EQ(Svc->planStats().PlannerRuns, 4u);
}

TEST(Serve, ReplanOfTheSameShapeReusesItsKernel) {
  // A write to x invalidates {A,x}; the next query re-plans (a plan-cache
  // miss) but lowers to the same program, so the content-addressed JIT
  // serves the kernel it already has and the C compiler never runs.
  ServeData Data;
  ScopedService Svc("replan-same-kernel", Data);
  const ServeQuery Q{{"A", "x"}};
  ServeResult First = Svc->query(Q);
  ASSERT_TRUE(First.Ok) << First.Error;
  const uint64_t Compiles = jitCacheStats().Compiles;

  // Bump a stored weight: same coordinates and statistics, new version.
  ASSERT_NE(Svc->appendSparse("x", {{Data.X.Crd[0], 1.5}}), 0u);
  ServeResult Again = Svc->query(Q);
  ASSERT_TRUE(Again.Ok) << Again.Error;
  EXPECT_FALSE(Again.PlanCacheHit);
  EXPECT_EQ(Svc->planStats().PlannerRuns, 2u);
  EXPECT_EQ(Again.Backend, First.Backend);
  EXPECT_EQ(jitCacheStats().Compiles, Compiles);

  // Bit-identical to a fresh service loaded with the written data.
  ServeData Fresh = Data;
  Fresh.X = Svc->snapshot()->find("x")->Sparse;
  ScopedService FreshSvc("replan-fresh", Fresh);
  ServeResult Want = FreshSvc->query(Q);
  ASSERT_TRUE(Want.Ok) << Want.Error;
  EXPECT_TRUE(sameBits(Again.Value, Want.Value))
      << Again.Value << " vs " << Want.Value;
  EXPECT_NEAR(Want.Value, refSpmv(Data.A, Fresh.X), 1e-9);
}

TEST(Serve, UnknownTensorFailsWithoutCachingAnything) {
  ServeData Data;
  ScopedService Svc("unknown", Data);
  ServeResult R = Svc->query(ServeQuery{{"A", "nosuch"}});
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("nosuch"), std::string::npos) << R.Error;
  PlanCacheStats PS = Svc->planStats();
  EXPECT_EQ(PS.Misses, 0u);
  EXPECT_EQ(PS.Resident, 0u);
  EXPECT_EQ(PS.PlannerRuns, 0u);
}

//===----------------------------------------------------------------------===//
// Snapshot isolation
//===----------------------------------------------------------------------===//

TEST(Serve, PinnedSnapshotReadsAreBitIdenticalUnderConcurrentWrites) {
  ServeData Data;
  ScopedService Svc("isolation", Data);
  ServeQuery Q{{"A", "x"}};

  CatalogSnapshotRef Pin = Svc->snapshot();
  ServeResult Baseline = Svc->query(Q, Pin);
  ASSERT_TRUE(Baseline.Ok) << Baseline.Error;
  EXPECT_EQ(Baseline.Epoch, Pin->epoch());

  // A writer installs 20 successor epochs while 4 pinned readers rerun
  // the query; every pinned result must carry the pinned epoch and the
  // exact baseline bits.
  Idx C = Data.X.Crd[0];
  std::atomic<int> Failures{0};
  std::thread Writer([&] {
    for (int I = 0; I < 20; ++I)
      Svc->appendCsr("A", {{I % 30, C, 1.0}});
  });
  std::vector<std::thread> Readers;
  for (int T = 0; T < 4; ++T)
    Readers.emplace_back([&] {
      for (int I = 0; I < 25; ++I) {
        ServeResult R = Svc->query(Q, Pin);
        if (!R.Ok || R.Epoch != Pin->epoch() ||
            !sameBits(R.Value, Baseline.Value))
          Failures.fetch_add(1, std::memory_order_relaxed);
      }
    });
  Writer.join();
  for (std::thread &T : Readers)
    T.join();
  EXPECT_EQ(Failures.load(), 0);

  // The current epoch has moved on and sees all 20 appended entries.
  ServeResult Now = Svc->query(Q);
  ASSERT_TRUE(Now.Ok) << Now.Error;
  EXPECT_EQ(Now.Epoch, Pin->epoch() + 20);
  CsrMatrix<double> A2 = Svc->snapshot()->find("A")->Csr;
  EXPECT_NEAR(Now.Value, refSpmv(A2, Data.X), 1e-9);
}

//===----------------------------------------------------------------------===//
// Batching
//===----------------------------------------------------------------------===//

TEST(Serve, BatchCoalescesGroupsAndMatchesSerialExecutionBitForBit) {
  ServeData Data;
  const std::vector<ServeQuery> Shapes = {
      ServeQuery{{"A", "x"}}, ServeQuery{{"y", "z", "w"}},
      ServeQuery{{"A", "d"}}, ServeQuery{{"x", "x"}}};

  // Serial oracle: a fresh single-threaded service answering one request
  // at a time.
  ScopedService Serial("batch-serial", Data, [] {
    ServeOptions O;
    O.Threads = 1;
    return O;
  }());
  std::vector<double> Want(Shapes.size());
  for (size_t I = 0; I < Shapes.size(); ++I) {
    ServeResult R = Serial->query(Shapes[I]);
    ASSERT_TRUE(R.Ok) << R.Error;
    Want[I] = R.Value;
  }
  EXPECT_NEAR(Want[0], refSpmv(Data.A, Data.X), 1e-9);
  EXPECT_NEAR(Want[1], refTriple(Data.Y, Data.Z, Data.W), 1e-9);
  EXPECT_NEAR(Want[2], refMatDense(Data.A, Data.D), 1e-9);

  ScopedService Svc("batch", Data);
  std::vector<ServeQuery> Batch;
  for (int I = 0; I < 64; ++I)
    Batch.push_back(Shapes[static_cast<size_t>(I) % Shapes.size()]);
  std::vector<ServeResult> Out = Svc->queryBatch(Batch);
  ASSERT_EQ(Out.size(), Batch.size());

  size_t Coalesced = 0;
  for (size_t I = 0; I < Out.size(); ++I) {
    ASSERT_TRUE(Out[I].Ok) << I << ": " << Out[I].Error;
    EXPECT_TRUE(sameBits(Out[I].Value, Want[I % Shapes.size()]))
        << "batch[" << I << "]";
    Coalesced += Out[I].Coalesced ? 1 : 0;
  }
  // One dispatch per distinct shape; everyone else rode along.
  EXPECT_EQ(Coalesced, Batch.size() - Shapes.size());
  ServiceStats SS = Svc->stats();
  EXPECT_EQ(SS.Queries, Batch.size());
  EXPECT_EQ(SS.Executions, Shapes.size());
  EXPECT_EQ(SS.Coalesced, Batch.size() - Shapes.size());
  EXPECT_EQ(Svc->planStats().PlannerRuns, Shapes.size());
}

TEST(Serve, BatchReportsPerQueryErrorsWithoutPoisoningTheRest) {
  ServeData Data;
  ScopedService Svc("batch-err", Data);
  std::vector<ServeResult> Out = Svc->queryBatch(
      {ServeQuery{{"A", "x"}}, ServeQuery{{"ghost"}}, ServeQuery{{"A", "x"}}});
  ASSERT_EQ(Out.size(), 3u);
  EXPECT_TRUE(Out[0].Ok) << Out[0].Error;
  EXPECT_FALSE(Out[1].Ok);
  EXPECT_NE(Out[1].Error.find("ghost"), std::string::npos);
  EXPECT_TRUE(Out[2].Ok);
  EXPECT_TRUE(sameBits(Out[0].Value, Out[2].Value));
}

//===----------------------------------------------------------------------===//
// Concurrent mixed workload (TSan)
//===----------------------------------------------------------------------===//

TEST(Serve, ConcurrentClientsSustainHighHitRateUnderWrites) {
  ServeData Data;
  ScopedService Svc("mixed", Data);
  const std::vector<ServeQuery> Shapes = {
      ServeQuery{{"A", "x"}}, ServeQuery{{"y", "z", "w"}},
      ServeQuery{{"A", "d"}}, ServeQuery{{"x", "d"}}};

  constexpr int Threads = 8, Iters = 40;
  std::atomic<int> Failures{0};
  std::vector<std::thread> Clients;
  for (int T = 0; T < Threads; ++T)
    Clients.emplace_back([&, T] {
      for (int I = 0; I < Iters; ++I) {
        const ServeQuery &Q = Shapes[static_cast<size_t>(T + I) %
                                     Shapes.size()];
        ServeResult R = Svc->query(Q);
        if (!R.Ok)
          Failures.fetch_add(1, std::memory_order_relaxed);
      }
    });
  // Two mid-flight writes to one tensor: a handful of re-plans, nothing
  // more.
  std::thread Writer([&] {
    Svc->appendSparse("y", {{3, 0.25}});
    Svc->appendSparse("y", {{5, 0.25}});
  });
  for (std::thread &T : Clients)
    T.join();
  Writer.join();
  EXPECT_EQ(Failures.load(), 0);

  // Steady state: misses are bounded by first-touches plus write-induced
  // re-plans, so >90% of requests perform no planner enumeration.
  PlanCacheStats PS = Svc->planStats();
  ServiceStats SS = Svc->stats();
  EXPECT_EQ(SS.Queries, static_cast<uint64_t>(Threads) * Iters);
  EXPECT_LE(PS.Misses, Shapes.size() + 2 * 2); // ≤2 invalidations/write
  EXPECT_EQ(PS.PlannerRuns, PS.Misses);
  double HitRate = 1.0 - double(PS.Misses) / double(SS.Queries);
  EXPECT_GT(HitRate, 0.9);
  // Every request is accounted for: its own dispatch or a ride-along.
  EXPECT_EQ(SS.Executions + SS.Coalesced, SS.Queries);
}

//===----------------------------------------------------------------------===//
// One executor per plan
//===----------------------------------------------------------------------===//

TEST(Serve, PreparedPlanHoldsExactlyOneExecutor) {
  if (!jitToolchain().Available)
    GTEST_SKIP() << "no system C compiler: " << jitToolchain().Diag;
  ServeData Data;
  ScopedService Svc("one-executor", Data);
  for (const ServeQuery &Q : allShapes()) {
    SCOPED_TRACE(Q.Tensors.size());
    CachedPlanRef N = prepareOn(Svc, Q, /*UseNative=*/true);
    CachedPlanRef B = prepareOn(Svc, Q, /*UseNative=*/false);
    ASSERT_TRUE(N && B);

    // Native: the call alone — bytecode was never compiled, and the bound
    // memory NativeCall marshaled from was dropped.
    EXPECT_TRUE(N->Call && N->Kernel);
    EXPECT_TRUE(N->Bc.Code.empty());
    EXPECT_TRUE(N->BoundMem.allArrays().empty());
    EXPECT_EQ(N->Explain.find("executor:"), std::string::npos);

    // Bytecode: no native call, and EXPLAIN says why.
    EXPECT_FALSE(B->Call || B->Kernel);
    EXPECT_FALSE(B->Bc.Code.empty());
    EXPECT_FALSE(B->BoundMem.allArrays().empty());
    EXPECT_NE(B->Explain.find("executor: bytecode (UseNative off)\n"),
              std::string::npos)
        << B->Explain;

    ExecOutcome ON = executePlan(*N);
    ExecOutcome OB = executePlan(*B);
    ExecOutcome OT = executePlan(*B, ExecBackend::Tree);
    ASSERT_TRUE(ON.Ok && OB.Ok && OT.Ok)
        << ON.Error << " / " << OB.Error << " / " << OT.Error;
    EXPECT_EQ(ON.Backend, "native");
    EXPECT_EQ(OB.Backend, "bytecode");
    EXPECT_EQ(OT.Backend, "tree");
    EXPECT_TRUE(sameBits(ON.Value, OB.Value));
    EXPECT_TRUE(sameBits(OT.Value, OB.Value));

    // The reference interpreter needs bound memory, which a native plan
    // does not keep.
    ExecOutcome Bad = executePlan(*N, ExecBackend::Tree);
    EXPECT_FALSE(Bad.Ok);
    EXPECT_NE(Bad.Error.find("native plan"), std::string::npos) << Bad.Error;
  }
}

TEST(Serve, BogusCompilerDegradesToANamedBytecodePlan) {
  if (!jitToolchain().Available)
    GTEST_SKIP() << "no system C compiler: " << jitToolchain().Diag;
  ServeData Data;
  ScopedService Svc("bogus-cc", Data);
  const ServeQuery Q{{"A", "x"}};
  CachedPlanRef N = prepareOn(Svc, Q, /*UseNative=*/true);
  ASSERT_TRUE(N && N->Call);

  const char *OldCc = std::getenv("ETCH_CC");
  std::string Saved = OldCc ? OldCc : "";
  setenv("ETCH_CC", "/nonexistent/etch-no-such-cc", 1);
  jitResetToolchainForTest();
  CachedPlanRef B = prepareOn(Svc, Q, /*UseNative=*/true);
  if (OldCc)
    setenv("ETCH_CC", Saved.c_str(), 1);
  else
    unsetenv("ETCH_CC");
  jitResetToolchainForTest();

  ASSERT_TRUE(B);
  EXPECT_FALSE(B->Call);
  EXPECT_FALSE(B->Bc.Code.empty());
  EXPECT_NE(B->Explain.find("executor: bytecode (no native toolchain"),
            std::string::npos)
      << B->Explain;
  ExecOutcome ON = executePlan(*N);
  ExecOutcome OB = executePlan(*B);
  ASSERT_TRUE(ON.Ok && OB.Ok) << ON.Error << " / " << OB.Error;
  EXPECT_EQ(OB.Backend, "bytecode");
  EXPECT_TRUE(sameBits(ON.Value, OB.Value));
}

TEST(Serve, BytecodeServiceMatchesNativeServiceBitForBit) {
  ServeData Data;
  ScopedService Native("svc-native", Data);
  ScopedService Bytecode("svc-bytecode", Data, [] {
    ServeOptions O;
    O.UseNative = false;
    return O;
  }());
  auto compare = [&](const char *When) {
    for (const ServeQuery &Q : allShapes()) {
      ServeResult RN = Native->query(Q);
      ServeResult RB = Bytecode->query(Q);
      ASSERT_TRUE(RN.Ok && RB.Ok) << RN.Error << " / " << RB.Error;
      EXPECT_EQ(RB.Backend, "bytecode");
      EXPECT_EQ(RN.Backend,
                jitToolchain().Available ? "native" : "bytecode");
      EXPECT_TRUE(sameBits(RN.Value, RB.Value))
          << When << ": native=" << RN.Value << " bytecode=" << RB.Value;
    }
  };
  compare("cold");
  compare("cached");
  for (ScopedService *S : {&Native, &Bytecode}) {
    ASSERT_NE((*S)->appendCsr("A", {{0, Data.X.Crd[0], 2.0}}), 0u);
    ASSERT_NE((*S)->deleteSparse("y", {Data.Y.Crd[0]}), 0u);
  }
  compare("after writes");
  EXPECT_EQ(Bytecode->stats().NativeRuns, 0u);
}

//===----------------------------------------------------------------------===//
// Write path
//===----------------------------------------------------------------------===//

TEST(Serve, OutOfRangeAppendIsRejectedWithoutSideEffects) {
  // A batch with any coordinate outside the tensor's extents is client
  // error: the append returns 0 and installs nothing, so no plan is
  // invalidated and no view refreshes.
  ServeData Data;
  ScopedService Svc("bad-append", Data);
  std::string Err;
  ASSERT_TRUE(Svc->registerView("spmv", ServeQuery{{"A", "x"}}, &Err)) << Err;
  ASSERT_TRUE(Svc->registerView("xx", ServeQuery{{"x", "x"}}, &Err)) << Err;
  const ServeQuery Q{{"A", "x"}};
  ServeResult Before = Svc->query(Q);
  ASSERT_TRUE(Before.Ok) << Before.Error;
  const uint64_t Epoch = Svc->snapshot()->epoch();
  const uint64_t Batches = Svc->viewStats().Batches;
  std::map<std::string, ViewReading> Views;
  for (const char *View : {"spmv", "xx"}) {
    auto Rd = Svc->readView(View);
    ASSERT_TRUE(Rd && Rd->Ok);
    Views[View] = *Rd;
  }
  auto unchanged = [&](const char *What) {
    SCOPED_TRACE(What);
    EXPECT_EQ(Svc->snapshot()->epoch(), Epoch);
    EXPECT_EQ(Svc->viewStats().Batches, Batches);
    ServeResult R = Svc->query(Q);
    ASSERT_TRUE(R.Ok) << R.Error;
    EXPECT_TRUE(R.PlanCacheHit);
    EXPECT_TRUE(sameBits(R.Value, Before.Value));
    for (const auto &[View, Was] : Views) {
      auto Rd = Svc->readView(View);
      ASSERT_TRUE(Rd && Rd->Ok);
      EXPECT_EQ(Rd->Epoch, Was.Epoch) << View;
      EXPECT_TRUE(sameBits(Rd->Value, Was.Value)) << View;
    }
  };

  const Idx C = Data.X.Crd[0];
  for (const std::vector<CooEntry<double>> &Bad :
       std::vector<std::vector<CooEntry<double>>>{
           {{0, C, 1.0}, {30, C, 1.0}}, // Row past the last.
           {{-1, C, 1.0}},
           {{0, C, 1.0}, {0, 40, 1.0}}, // Column past the last.
           {{0, -1, 1.0}}})
    EXPECT_EQ(Svc->appendCsr("A", Bad), 0u);
  unchanged("after bad CSR batches");
  for (const std::vector<std::pair<Idx, double>> &Bad :
       std::vector<std::vector<std::pair<Idx, double>>>{
           {{C, 1.0}, {40, 1.0}}, {{-1, 1.0}}})
    EXPECT_EQ(Svc->appendSparse("x", Bad), 0u);
  unchanged("after bad sparse batches");

  // The next valid batches land, and the view folds them in.
  EXPECT_EQ(Svc->appendCsr("A", {{0, C, 1.0}}), Epoch + 1);
  EXPECT_EQ(Svc->appendSparse("x", {{C, 1.0}}), Epoch + 2);
  ServeResult After = Svc->query(Q);
  ASSERT_TRUE(After.Ok) << After.Error;
  EXPECT_FALSE(After.PlanCacheHit);
  CatalogSnapshotRef Snap = Svc->snapshot();
  EXPECT_NEAR(After.Value,
              refSpmv(Snap->find("A")->Csr, Snap->find("x")->Sparse), 1e-9);
  auto Rd = Svc->readView("spmv");
  ASSERT_TRUE(Rd && Rd->Ok);
  EXPECT_EQ(Rd->Epoch, Epoch + 2);
  EXPECT_NEAR(Rd->Value, After.Value, 1e-9);
}

TEST(Serve, CatalogStatsMatchOracleAfterRandomWrites) {
  // Every installed version's planner statistics equal the set-based
  // oracle over its stored entries, through appends that add, bump and
  // cancel entries (emptying rows) and deletions of present and absent
  // coordinates.
  ServeData Data;
  ScopedService Svc("stats-oracle", Data);
  auto check = [&] {
    CatalogSnapshotRef Snap = Svc->snapshot();
    CatalogTensorRef A = Snap->find("A");
    TensorStats WantA =
        oracleStats({SI(), SJ()}, {LevelSpec::Dense, LevelSpec::Compressed},
                    {A->Csr.NumRows, A->Csr.NumCols}, csrTuples(A->Csr));
    WantA.CanTranspose = true;
    expectSameStats(A->Stats, WantA);
    CatalogTensorRef X = Snap->find("x");
    TensorStats WantX = oracleStats({SJ()}, {LevelSpec::Compressed},
                                    {X->Sparse.Size}, crdTuples(X->Sparse.Crd));
    WantX.CanHash = true;
    expectSameStats(X->Stats, WantX);
  };
  Rng R(41);
  for (int Step = 0; Step < 80; ++Step) {
    SCOPED_TRACE("step " + std::to_string(Step));
    CatalogSnapshotRef Snap = Svc->snapshot();
    const CsrMatrix<double> &A = Snap->find("A")->Csr;
    const SparseVector<double> &X = Snap->find("x")->Sparse;
    switch (R.nextBelow(4)) {
    case 0: { // Append: fresh coordinates, bumps, and exact cancellations.
      std::vector<CooEntry<double>> Delta;
      for (size_t I = 0, E = 1 + R.nextBelow(12); I < E; ++I) {
        if (!A.Crd.empty() && R.nextBool(0.4)) {
          const size_t Q = R.nextBelow(A.Crd.size());
          const Idx Row = static_cast<Idx>(
              std::upper_bound(A.Pos.begin(), A.Pos.end(), Q) - A.Pos.begin() -
              1);
          Delta.push_back({Row, A.Crd[Q], -A.Val[Q]});
        } else {
          Delta.push_back({Idx(R.nextBelow(30)), Idx(R.nextBelow(40)),
                           randomValue(R)});
        }
      }
      ASSERT_NE(Svc->appendCsr("A", Delta), 0u);
      break;
    }
    case 1: { // Delete: whole rows at a time, plus absent coordinates.
      std::vector<std::pair<Idx, Idx>> Coords;
      const Idx Row = Idx(R.nextBelow(30));
      for (Idx Col = 0; Col < 40; ++Col)
        if (R.nextBool(0.7))
          Coords.push_back({Row, Col});
      ASSERT_NE(Svc->deleteCsr("A", Coords), 0u);
      break;
    }
    case 2: {
      std::vector<std::pair<Idx, double>> Delta;
      for (size_t I = 0, E = 1 + R.nextBelow(6); I < E; ++I) {
        if (!X.Crd.empty() && R.nextBool(0.4)) {
          const size_t Q = R.nextBelow(X.Crd.size());
          Delta.push_back({X.Crd[Q], -X.Val[Q]});
        } else {
          Delta.push_back({Idx(R.nextBelow(40)), randomValue(R)});
        }
      }
      ASSERT_NE(Svc->appendSparse("x", Delta), 0u);
      break;
    }
    default: {
      std::vector<Idx> Coords;
      for (size_t I = 0, E = 1 + R.nextBelow(10); I < E; ++I)
        Coords.push_back(Idx(R.nextBelow(40)));
      ASSERT_NE(Svc->deleteSparse("x", Coords), 0u);
      break;
    }
    }
    check();
  }
}

//===----------------------------------------------------------------------===//
// Plan-cache capacity
//===----------------------------------------------------------------------===//

TEST(Serve, PlanCacheEvictsLeastRecentNonRetainedPlans) {
  PlanCache Cache(2);
  auto plan = [](const std::string &Key, bool Retain) {
    auto P = std::make_shared<CachedPlan>();
    P->Key = Key;
    P->Retain = Retain;
    return P;
  };
  // Note that a hit refreshes the key's recency.
  auto resident = [&](const std::string &Key) {
    return Cache.lookup(Key) != nullptr;
  };

  Cache.insert(plan("a", false));
  Cache.insert(plan("b", false));
  EXPECT_EQ(Cache.stats().Resident, 2u);
  EXPECT_EQ(Cache.stats().Evictions, 0u);

  // A lookup makes "a" the most recent, so "b" is the one evicted.
  ASSERT_TRUE(Cache.lookup("a"));
  Cache.insert(plan("c", false));
  EXPECT_EQ(Cache.stats().Evictions, 1u);
  EXPECT_EQ(Cache.stats().Resident, 2u);
  EXPECT_FALSE(resident("b"));
  EXPECT_TRUE(resident("a"));
  EXPECT_TRUE(resident("c"));

  // Retained plans push out the non-retained ones, least recent first ...
  Cache.insert(plan("r1", true));
  EXPECT_FALSE(resident("a"));
  Cache.insert(plan("r2", true));
  EXPECT_FALSE(resident("c"));
  EXPECT_EQ(Cache.stats().Evictions, 3u);
  // ... but are never evicted themselves: a third one rides above the cap,
  // and a non-retained plan inserted now is the only candidate.
  Cache.insert(plan("r3", true));
  EXPECT_EQ(Cache.stats().Resident, 3u);
  Cache.insert(plan("d", false));
  EXPECT_EQ(Cache.stats().Evictions, 4u);
  EXPECT_EQ(Cache.stats().Resident, 3u);
  for (const char *Key : {"r1", "r2", "r3"})
    EXPECT_TRUE(resident(Key)) << Key;
  EXPECT_FALSE(resident("d"));
}

} // namespace
