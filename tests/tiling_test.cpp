//===- tests/tiling_test.cpp - Indexing maps, schedules, tiled kernels ----===//
//
// Part of the etch project.
//
//===----------------------------------------------------------------------===//
//
// The indexing-map layer (planner/indexing.h) and the planner-scheduled
// kernel variants it selects (baselines/etch_kernels.h, relational/
// queries.h):
//
//   - classification goldens: the per-access maps and sequential/strided/
//     gather labels on hand-built plans;
//   - the EXPLAIN access-pattern cost term;
//   - bit-identity: every tiled/SIMD variant reproduces its serial
//     original bit for bit, exhaustively over tile sizes (including
//     tile = 1 and tile > extent) and on randomized inputs with empty
//     rows;
//   - schedule selection: chooseSchedule picks tiled/SIMD exactly when
//     the cache model predicts, and never vectorizes a reduction.
//
//===----------------------------------------------------------------------===//

#include "baselines/etch_kernels.h"
#include "formats/random.h"
#include "planner/indexing.h"
#include "planner/plan.h"
#include "relational/prepared.h"
#include "support/simd.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

using namespace etch;

namespace {

// Fresh attributes for this binary, interned in hierarchy order.
Attr tlA(int I) {
  static std::vector<Attr> As = [] {
    std::vector<Attr> V;
    for (const char *N : {"tl_i", "tl_j", "tl_k"})
      V.push_back(Attr::named(N));
    return V;
  }();
  return As.at(static_cast<size_t>(I));
}
Attr tlI() { return tlA(0); }
Attr tlJ() { return tlA(1); }
Attr tlK() { return tlA(2); }

/// Σ_j A(i,j) · x(j) with CSR A and dense x — the SpMV planning query.
struct SpmvQuery {
  PlanQuery Q;
};

SpmvQuery spmvQuery(const CsrMatrix<double> &A, const DenseVector<double> &X) {
  TypeContext Ctx;
  Ctx["A"] = Shape{tlI(), tlJ()};
  Ctx["x"] = Shape{tlJ()};
  ExprPtr E = Expr::sum(tlJ(), mulExpand(Expr::var("A"), Expr::var("x"), Ctx));
  std::map<std::string, TensorStats> Stats;
  Stats["A"] = statsOfCsr("A", A, tlI(), tlJ());
  Stats["x"] = statsOfDenseVector("x", X, tlJ());
  auto Q = extractQuery(E, Ctx, Stats, {});
  EXPECT_TRUE(Q);
  return {std::move(*Q)};
}

/// Σ_j A(i,j) · B(j,k) with CSR inputs — the matmul planning query.
PlanQuery matmulQuery(const CsrMatrix<double> &A, const CsrMatrix<double> &B) {
  TypeContext Ctx;
  Ctx["A"] = Shape{tlI(), tlJ()};
  Ctx["B"] = Shape{tlJ(), tlK()};
  ExprPtr E = Expr::sum(tlJ(), mulExpand(Expr::var("A"), Expr::var("B"), Ctx));
  std::map<std::string, TensorStats> Stats;
  Stats["A"] = statsOfCsr("A", A, tlI(), tlJ());
  Stats["B"] = statsOfCsr("B", B, tlJ(), tlK());
  auto Q = extractQuery(E, Ctx, Stats, {});
  EXPECT_TRUE(Q);
  return std::move(*Q);
}

bool sameBits(const std::vector<double> &A, const std::vector<double> &B) {
  // Empty vectors may hold null data, which memcmp must not receive.
  return A.size() == B.size() &&
         (A.empty() ||
          std::memcmp(A.data(), B.data(), A.size() * sizeof(double)) == 0);
}

bool sameCsr(const CsrMatrix<double> &A, const CsrMatrix<double> &B) {
  return A.Pos == B.Pos && A.Crd == B.Crd && sameBits(A.Val, B.Val);
}

//===----------------------------------------------------------------------===//
// Classification goldens
//===----------------------------------------------------------------------===//

TEST(Indexing, SpmvClassification) {
  // A located dense vector under a compressed driver is a gather; the
  // driving CSR walks its own storage sequentially at both levels.
  auto A = CsrMatrix<double>::fromCoo(3, 4, {{0, 1, 1}, {0, 3, 2}, {2, 0, 3}});
  DenseVector<double> X(4, 1.0);
  auto S = spmvQuery(A, X);
  auto P = planForOrder(S.Q, {tlI(), tlJ()});
  ASSERT_TRUE(P);
  IndexingInfo Info = analyzeIndexing(S.Q, *P);
  ASSERT_EQ(Info.Accesses.size(), 2u);

  const AccessIndexing *IA = Info.access("A");
  ASSERT_NE(IA, nullptr);
  EXPECT_EQ(IA->Map, "(tl_i, tl_j) -> (tl_i, tl_j)");
  ASSERT_EQ(IA->Levels.size(), 2u);
  EXPECT_TRUE(IA->Levels[0].Driving);
  EXPECT_EQ(IA->Levels[0].Pattern, AccessPattern::Sequential);
  EXPECT_TRUE(IA->Levels[1].Driving);
  EXPECT_EQ(IA->Levels[1].Pattern, AccessPattern::Sequential);

  const AccessIndexing *IX = Info.access("x");
  ASSERT_NE(IX, nullptr);
  EXPECT_EQ(IX->Map, "(tl_i, tl_j) -> (tl_j)");
  ASSERT_EQ(IX->Levels.size(), 1u);
  EXPECT_FALSE(IX->Levels[0].Driving);
  EXPECT_EQ(IX->Levels[0].Pattern, AccessPattern::Gather);

  // The gather is priced: x is visited once per (i, j) iteration.
  EXPECT_GT(Info.AccessCost, 0.0);
  PlanOptions Free;
  Free.GatherVisitCost = 0.0;
  Free.StridedVisitCost = 0.0;
  EXPECT_EQ(analyzeIndexing(S.Q, *P, Free).AccessCost, 0.0);
}

TEST(Indexing, DenseMatrixStrideUnderDenseDriver) {
  // Two dense matrices multiplied pointwise: one drives each level, the
  // other is located. The located matrix's *outer* level advances by the
  // inner dense extent per visit — strided(xNJ) — and its inner level is
  // unit stride.
  const Idx NI = 3, NJ = 5;
  std::vector<Tuple> T;
  for (Idx I = 0; I < NI; ++I)
    for (Idx J = 0; J < NJ; ++J)
      T.push_back({I, J});
  PlanQuery Q;
  PlanTerm Term;
  Term.Factors = {{"M", {tlI(), tlJ()}}, {"N", {tlI(), tlJ()}}};
  Term.Free = {};
  Term.Summed = {tlI(), tlJ()};
  Q.Terms.push_back(Term);
  auto DenseStats = [&](const char *Name) {
    return statsFromTuples(Name, {tlI(), tlJ()},
                           {LevelSpec::Dense, LevelSpec::Dense}, {NI, NJ}, T);
  };
  Q.Stats.emplace("M", DenseStats("M"));
  Q.Stats.emplace("N", DenseStats("N"));
  Q.Dims.emplace(tlI().id(), NI);
  Q.Dims.emplace(tlJ().id(), NJ);
  auto P = planForOrder(Q, {tlI(), tlJ()});
  ASSERT_TRUE(P);
  IndexingInfo Info = analyzeIndexing(Q, *P);
  ASSERT_EQ(Info.Accesses.size(), 2u);
  // Exactly one access drives the outer level; the other is the located
  // one, whatever the tie-break picked.
  const AccessIndexing &L0 = Info.Accesses[0].Levels[0].Driving
                                 ? Info.Accesses[1]
                                 : Info.Accesses[0];
  ASSERT_EQ(L0.Levels.size(), 2u);
  EXPECT_FALSE(L0.Levels[0].Driving);
  EXPECT_EQ(L0.Levels[0].Pattern, AccessPattern::Strided);
  EXPECT_EQ(L0.Levels[0].Stride, NJ);
  EXPECT_FALSE(L0.Levels[1].Driving);
  EXPECT_EQ(L0.Levels[1].Pattern, AccessPattern::Sequential);
  // The strided level renders its stride.
  EXPECT_NE(Info.toString().find("dense strided(x5)"), std::string::npos);
}

TEST(Indexing, MatmulRowGatherGolden) {
  // Linear-combination matmul: B's dense row level is located by A's
  // compressed j coordinates — a gather; B's k level drives.
  auto A = CsrMatrix<double>::fromCoo(2, 3, {{0, 0, 1}, {0, 2, 2}, {1, 1, 3}});
  auto B = CsrMatrix<double>::fromCoo(3, 2, {{0, 1, 4}, {2, 0, 5}, {2, 1, 6}});
  PlanQuery Q = matmulQuery(A, B);
  auto P = planForOrder(Q, {tlI(), tlJ(), tlK()});
  ASSERT_TRUE(P);
  IndexingInfo Info = analyzeIndexing(Q, *P);
  EXPECT_EQ(Info.toString(),
            "indexing:\n"
            "  A: (tl_i, tl_j, tl_k) -> (tl_i, tl_j); tl_i dense sequential"
            " [drives], tl_j compressed sequential [drives]\n"
            "  B: (tl_i, tl_j, tl_k) -> (tl_j, tl_k); tl_j dense gather,"
            " tl_k compressed sequential [drives]\n");
}

TEST(Indexing, ExplainRendersAccessTerm) {
  auto A = CsrMatrix<double>::fromCoo(3, 4, {{0, 1, 1}, {0, 3, 2}, {2, 0, 3}});
  DenseVector<double> X(4, 1.0);
  auto S = spmvQuery(A, X);
  auto Best = bestPlan(S.Q);
  ASSERT_TRUE(Best);
  std::string Explain = Best->explain(S.Q);
  EXPECT_NE(Explain.find(" access\n"), std::string::npos);
  EXPECT_NE(Explain.find("indexing:\n"), std::string::npos);
  EXPECT_NE(Explain.find("tl_j dense gather"), std::string::npos);
  // The access term the EXPLAIN prices is the stored AccessCost.
  EXPECT_GT(Best->AccessCost, 0.0);
  EXPECT_EQ(Best->cost(), Best->StreamCost + Best->TransposeCost +
                              Best->RehashCost + Best->AccessCost);
}

//===----------------------------------------------------------------------===//
// Schedule selection
//===----------------------------------------------------------------------===//

TEST(Schedule, SpmvTiledExactlyWhenGatherSpillsL1) {
  Rng R(5);
  const Idx N = 1 << 12; // x occupies 32 KiB: exactly the boundary.
  auto A = randomCsr(R, N, N, 20000);
  auto X = randomDenseVector(R, N);
  auto S = spmvQuery(A, X);
  auto Best = bestPlan(S.Q);
  ASSERT_TRUE(Best);
  IndexingInfo Info = analyzeIndexing(S.Q, *Best);

  // L1 smaller than the gathered vector -> tiled, tile = L1/2 elements.
  ScheduleOptions Small;
  Small.L1Bytes = 16 * 1024;
  KernelSchedule KS = chooseSchedule(S.Q, *Best, Info, Small);
  EXPECT_TRUE(KS.Tiled);
  EXPECT_EQ(KS.ColTile, 16 * 1024 / 2 / 8);
  // Inner j is a reduction: never vectorized, whatever the width.
  EXPECT_FALSE(KS.Simd);

  // L1 big enough to hold x -> the plain kernel.
  ScheduleOptions Big;
  Big.L1Bytes = 64 * 1024;
  EXPECT_FALSE(chooseSchedule(S.Q, *Best, Info, Big).Tiled);
}

TEST(Schedule, MatmulTilesOnWorkspaceScatter) {
  // Lin-comb matmul rewrites the whole dense workspace row once per summed
  // j step, so the output row is a gathered operand in its own right. With
  // k wider than j it outweighs B's row gather and is named in the reason.
  Rng R(6);
  const Idx N = 1 << 12;
  auto A = randomCsr(R, N, N, 20000);
  auto B = randomCsr(R, N, 2 * N, 20000);
  PlanQuery Q = matmulQuery(A, B);
  auto P = planForOrder(Q, {tlI(), tlJ(), tlK()});
  ASSERT_TRUE(P);
  IndexingInfo Info = analyzeIndexing(Q, *P);

  ScheduleOptions Small;
  Small.L1Bytes = 16 * 1024;
  KernelSchedule KS = chooseSchedule(Q, *P, Info, Small);
  EXPECT_TRUE(KS.Tiled);
  EXPECT_NE(KS.Reason.find("output(tl_k)"), std::string::npos);
  // Inner k drives a compressed level: not a dense-sequential tail.
  EXPECT_FALSE(KS.Simd);

  ScheduleOptions Big;
  Big.L1Bytes = 1 << 20;
  EXPECT_FALSE(chooseSchedule(Q, *P, Info, Big).Tiled);
}

TEST(Schedule, SimdOnlyOnFreeDenseSequentialInner) {
  // A free dense innermost loop (every lane an independent output) is
  // vectorized once its extent covers a vector; a forced width of 1
  // (the ETCH_SIMD=OFF build) keeps it scalar.
  const Idx NI = 8, NJ = 16;
  std::vector<Tuple> T;
  for (Idx I = 0; I < NI; ++I)
    for (Idx J = 0; J < NJ; ++J)
      T.push_back({I, J});
  PlanQuery Q;
  PlanTerm Term;
  Term.Factors = {{"M", {tlI(), tlJ()}}};
  Term.Free = {tlI(), tlJ()};
  Q.Terms.push_back(Term);
  Q.Stats.emplace("M", statsFromTuples("M", {tlI(), tlJ()},
                                       {LevelSpec::Dense, LevelSpec::Dense},
                                       {NI, NJ}, T));
  Q.Dims.emplace(tlI().id(), NI);
  Q.Dims.emplace(tlJ().id(), NJ);
  auto P = planForOrder(Q, {tlI(), tlJ()});
  ASSERT_TRUE(P);
  IndexingInfo Info = analyzeIndexing(Q, *P);

  ScheduleOptions SO;
  SO.SimdWidth = 4;
  EXPECT_TRUE(chooseSchedule(Q, *P, Info, SO).Simd);
  SO.SimdWidth = 1;
  EXPECT_FALSE(chooseSchedule(Q, *P, Info, SO).Simd);
  // Too narrow for one vector: scalar.
  SO.SimdWidth = 32;
  EXPECT_FALSE(chooseSchedule(Q, *P, Info, SO).Simd);

  // The same loop as a reduction must never vectorize: lanes would split
  // a serial fp accumulation chain.
  PlanQuery QSum = Q;
  QSum.Terms[0].Free = {};
  QSum.Terms[0].Summed = {tlI(), tlJ()};
  auto PSum = planForOrder(QSum, {tlI(), tlJ()});
  ASSERT_TRUE(PSum);
  IndexingInfo InfoSum = analyzeIndexing(QSum, *PSum);
  SO.SimdWidth = 4;
  KernelSchedule KS = chooseSchedule(QSum, *PSum, InfoSum, SO);
  EXPECT_FALSE(KS.Simd);
  EXPECT_NE(KS.Reason.find("reduction"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Bit-identity: tiled variants vs their serial originals
//===----------------------------------------------------------------------===//

// Tile sweeps cover the degenerate shapes: 0 = unblocked path, 1 = one
// column per block, extent and beyond = a single block.
const int64_t kTiles[] = {0, 1, 2, 3, 7, 64, 1 << 20};

TEST(TiledKernels, SpmvAllTilesMatchSerialExhaustively) {
  // Hand-built matrix with an empty row, a full row, and a singleton.
  auto A = CsrMatrix<double>::fromCoo(
      4, 6,
      {{0, 0, 1.5}, {0, 5, -2.25}, {2, 1, 3.0}, {2, 2, 0.5},
       {2, 3, -1.0}, {2, 4, 2.0}, {3, 2, 7.0}});
  Rng R(7);
  auto X = randomDenseVector(R, 6);
  DenseVector<double> Ref(4), Y(4);
  kernels::spmv(A, X, Ref);
  for (int64_t Tile : kTiles) {
    kernels::spmvTiled(A, X, Y, Tile);
    EXPECT_TRUE(sameBits(Y.Val, Ref.Val)) << "tile " << Tile;
  }
}

TEST(TiledKernels, SpmvRandomizedMatchesSerial) {
  Rng R(11);
  for (int Case = 0; Case < 20; ++Case) {
    Idx Rows = 1 + static_cast<Idx>(R.nextBelow(60));
    Idx Cols = 1 + static_cast<Idx>(R.nextBelow(80));
    size_t Nnz = R.nextBelow(
        static_cast<uint64_t>(Rows) * static_cast<uint64_t>(Cols) / 2 + 1);
    auto A = randomCsr(R, Rows, Cols, Nnz);
    auto X = randomDenseVector(R, Cols);
    DenseVector<double> Ref(Rows), Y(Rows);
    kernels::spmv(A, X, Ref);
    for (int64_t Tile : kTiles) {
      kernels::spmvTiled(A, X, Y, Tile);
      EXPECT_TRUE(sameBits(Y.Val, Ref.Val))
          << "case " << Case << " tile " << Tile;
    }
    ThreadPool Pool(3);
    for (size_t Chunks : {size_t(1), size_t(2), size_t(5)}) {
      kernels::spmvTiledParallel(Pool, A, X, Y, 3, Chunks);
      EXPECT_TRUE(sameBits(Y.Val, Ref.Val))
          << "case " << Case << " chunks " << Chunks;
    }
  }
}

TEST(TiledKernels, InnerMatchesStreamKernel) {
  Rng R(13);
  for (int Case = 0; Case < 20; ++Case) {
    Idx N = 1 + static_cast<Idx>(R.nextBelow(40));
    uint64_t Cap = static_cast<uint64_t>(N) * static_cast<uint64_t>(N);
    auto A = randomCsr(
        R, N, N,
        std::min(Cap, R.nextBelow(static_cast<uint64_t>(N) * 4)));
    auto B = randomCsr(
        R, N, N,
        std::min(Cap, R.nextBelow(static_cast<uint64_t>(N) * 4)));
    double Ref = kernels::inner(A, B);
    double Raw = kernels::innerTiled(A, B);
    EXPECT_TRUE(std::memcmp(&Ref, &Raw, sizeof(double)) == 0)
        << "case " << Case;
  }
}

TEST(TiledKernels, MmulAllTilesMatchSerialExhaustively) {
  auto A = CsrMatrix<double>::fromCoo(
      3, 4, {{0, 0, 1.0}, {0, 3, 2.0}, {2, 1, -3.0}, {2, 2, 0.25}});
  auto B = CsrMatrix<double>::fromCoo(
      4, 5,
      {{0, 0, 1.0}, {0, 4, 2.0}, {1, 2, 3.0}, {2, 2, -1.5},
       {3, 1, 0.5}, {3, 4, -2.0}});
  auto Ref = kernels::mmul(A, B);
  for (int64_t Tile : kTiles)
    EXPECT_TRUE(sameCsr(kernels::mmulTiled(A, B, Tile), Ref))
        << "tile " << Tile;
}

TEST(TiledKernels, MmulRandomizedMatchesSerialIncludingCancellation) {
  Rng R(17);
  for (int Case = 0; Case < 12; ++Case) {
    Idx N = 1 + static_cast<Idx>(R.nextBelow(30));
    uint64_t Cap = static_cast<uint64_t>(N) * static_cast<uint64_t>(N);
    auto A = randomCsr(
        R, N, N,
        std::min(Cap, R.nextBelow(static_cast<uint64_t>(N) * 3)));
    auto B = randomCsr(
        R, N, N,
        std::min(Cap, R.nextBelow(static_cast<uint64_t>(N) * 3)));
    // Mix in exact negations so some workspace sums cancel to exactly 0.0
    // mid-row (the duplicate-Touched-push path must fire identically).
    for (size_t I = 0; I + 1 < A.Val.size(); I += 2)
      A.Val[I + 1] = -A.Val[I];
    auto Ref = kernels::mmul(A, B);
    for (int64_t Tile : kTiles)
      EXPECT_TRUE(sameCsr(kernels::mmulTiled(A, B, Tile), Ref))
          << "case " << Case << " tile " << Tile;
  }
}

TEST(TiledKernels, MttkrpSimdAndParallelMatchSerial) {
  Rng R(19);
  for (int64_t Rank : {1, 3, 4, 7, 16, 33}) {
    auto B = randomCsf3(R, 12, 10, 8, 80);
    std::vector<double> C(static_cast<size_t>(10 * Rank)),
        D(static_cast<size_t>(8 * Rank));
    for (auto &V : C)
      V = randomValue(R);
    for (auto &V : D)
      V = randomValue(R);
    std::vector<double> Ref, Out;
    kernels::mttkrp(B, C, D, Rank, Ref);
    for (bool Simd : {false, true}) {
      kernels::mttkrpTiled(B, C, D, Rank, Out, Simd);
      EXPECT_TRUE(sameBits(Out, Ref)) << "rank " << Rank << " simd " << Simd;
    }
    ThreadPool Pool(3);
    for (size_t Chunks : {size_t(1), size_t(3), size_t(16)}) {
      kernels::mttkrpTiledParallel(Pool, B, C, D, Rank, Out, true, Chunks);
      EXPECT_TRUE(sameBits(Out, Ref))
          << "rank " << Rank << " chunks " << Chunks;
    }
  }
}

TEST(TiledKernels, TriangleRawGallopMatchesStreamPlan) {
  // Worst-case family plus a random graph; the raw GenericJoin with
  // galloping intersections must count exactly what the stream plan does.
  for (Idx N : {Idx(1), Idx(2), Idx(64), Idx(300)}) {
    EdgeList G = triangleWorstCase(N);
    auto P = trianglePrepare(G, G, G);
    int64_t Ref = triangleFused(*P);
    EXPECT_EQ(triangleFusedTiled(*P), Ref) << "worst-case n " << N;
    ThreadPool Pool(3);
    for (size_t Chunks : {size_t(1), size_t(4)})
      EXPECT_EQ(triangleFusedTiledParallel(Pool, *P, Chunks), Ref)
          << "worst-case n " << N << " chunks " << Chunks;
  }
  Rng R(23);
  EdgeList G;
  for (int E = 0; E < 400; ++E)
    G.Edges.push_back({static_cast<Idx>(R.nextBelow(40)),
                       static_cast<Idx>(R.nextBelow(40))});
  auto P = trianglePrepare(G, G, G);
  int64_t Ref = triangleFused(*P);
  EXPECT_EQ(triangleFusedTiled(*P), Ref);
  ThreadPool Pool(2);
  EXPECT_EQ(triangleFusedTiledParallel(Pool, *P, 7), Ref);
}

#if ETCH_SIMD_F64
TEST(Simd, LaneOpsMatchScalarBitForBit) {
  // The portable vector type applies IEEE ops per lane: a*b+c per lane
  // equals the scalar expression exactly.
  Rng R(29);
  for (int Case = 0; Case < 200; ++Case) {
    double A[4], B[4], C[4], Out[4];
    for (int L = 0; L < 4; ++L) {
      A[L] = randomValue(R);
      B[L] = randomValue(R);
      C[L] = randomValue(R);
    }
    simdStore(Out, simdLoad(A) + simdLoad(B) * simdLoad(C));
    for (int L = 0; L < 4; ++L) {
      double Want = A[L] + B[L] * C[L];
      EXPECT_TRUE(std::memcmp(&Out[L], &Want, sizeof(double)) == 0);
    }
  }
}
#endif

} // namespace
