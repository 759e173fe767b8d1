//===- tests/planner_test.cpp - Planner invariants and goldens ------------===//
//
// Part of the etch project.
//
//===----------------------------------------------------------------------===//
//
// Unit coverage for src/planner/: statistics builders, sum-of-products
// extraction (renames resolved), the cost model's required rankings
// (Section 8.1 linear-combination over inner-product; a worst-case-optimal
// triangle order), rename invariance, enumerator validity (every emitted
// plan realizes to sorted bindings and a well-typed expression — the
// Definition 5.7 requirements), EXPLAIN goldens, and an end-to-end
// realize-install-compile-run check including a forced transposed order.
//
//===----------------------------------------------------------------------===//

#include "planner/realize.h"

#include "core/eval.h"
#include "formats/random.h"
#include "stats_oracle.h"

#include <gtest/gtest.h>

using namespace etch;

namespace {

// Fresh attributes interned in hierarchy order for this test binary.
Attr plA(int I) {
  static std::vector<Attr> As = [] {
    std::vector<Attr> V;
    for (const char *N : {"pl_i", "pl_j", "pl_jj", "pl_k"})
      V.push_back(Attr::named(N));
    return V;
  }();
  return As.at(static_cast<size_t>(I));
}
Attr plI() { return plA(0); }
Attr plJ() { return plA(1); }
Attr plJJ() { return plA(2); } // An alias for pl_j used by rename tests.
Attr plK() { return plA(3); }

// The Section 8.1 matmul query Σ_j A(i,j)·B(j,k) over the given matrices.
struct MatmulQuery {
  ExprPtr E;
  TypeContext Ctx;
  PlanQuery Q;
};

MatmulQuery matmulQuery(const CsrMatrix<double> &A,
                        const CsrMatrix<double> &B) {
  MatmulQuery M;
  M.Ctx["A"] = Shape{plI(), plJ()};
  M.Ctx["B"] = Shape{plJ(), plK()};
  ExprPtr Prod = mulExpand(Expr::var("A"), Expr::var("B"), M.Ctx);
  EXPECT_TRUE(Prod);
  M.E = Expr::sum(plJ(), Prod);
  std::map<std::string, TensorStats> Stats;
  Stats["A"] = statsOfCsr("A", A, plI(), plJ());
  Stats["B"] = statsOfCsr("B", B, plJ(), plK());
  std::string Err;
  auto Q = extractQuery(M.E, M.Ctx, Stats, {}, &Err);
  EXPECT_TRUE(Q) << Err;
  M.Q = *Q;
  return M;
}

std::vector<Attr> order3(Attr A, Attr B, Attr C) { return {A, B, C}; }

} // namespace

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

TEST(PlannerStats, FromTuplesCountsDistinctAndFill) {
  // 2x3 matrix with rows {0: cols 0,2} and {1: col 1}.
  TensorStats S = statsFromTuples(
      "A", {plI(), plJ()}, {LevelSpec::Dense, LevelSpec::Compressed}, {2, 3},
      {{0, 0}, {0, 2}, {1, 1}});
  EXPECT_EQ(S.Nnz, 3);
  ASSERT_EQ(S.Levels.size(), 2u);
  EXPECT_EQ(S.Levels[0].Distinct, 2);
  EXPECT_EQ(S.Levels[1].Distinct, 3);
  EXPECT_DOUBLE_EQ(S.Levels[0].AvgFill, 2.0);       // 2 rows from 1 root.
  EXPECT_DOUBLE_EQ(S.Levels[1].AvgFill, 3.0 / 2.0); // 3 entries / 2 rows.
  EXPECT_EQ(S.Levels[0].A, plI());
  EXPECT_EQ(S.Levels[1].A, plJ());
}

TEST(PlannerStats, CsrBuilderMatchesTuples) {
  // Every builder against the set-based oracle, on random inputs that
  // include empty tensors, empty rows, single rows, and extents far past
  // the entry count (the sort-unique path of the distinct count).
  using K = LevelSpec::Kind;
  const K D = LevelSpec::Dense, C = LevelSpec::Compressed,
          H = LevelSpec::Hashed;
  Rng R(3);
  auto extent = [&](Idx Small) -> Idx {
    switch (R.nextBelow(3)) {
    case 0:
      return Small;
    case 1:
      return Small * 100;
    default:
      return Idx(1) << 40;
    }
  };
  for (int Round = 0; Round < 60; ++Round) {
    SCOPED_TRACE("round " + std::to_string(Round));
    // CSR and DCSR over the same canonical entries.
    {
      const Idx Rows = R.nextBool(0.2) ? 1 : 1 + Idx(R.nextBelow(20));
      const Idx Cols = extent(1 + Idx(R.nextBelow(30)));
      const uint64_t Cap = std::min<uint64_t>(
          60, static_cast<uint64_t>(Rows) * static_cast<uint64_t>(Cols));
      const size_t Nnz = R.nextBool(0.1) ? 0 : R.nextBelow(Cap + 1);
      auto Coo = randomCoo(R, Rows, Cols, Nnz);
      std::vector<Tuple> Ts;
      for (const auto &E : Coo)
        Ts.push_back({E.Row, E.Col});
      TensorStats Want =
          oracleStats({plI(), plJ()}, {D, C}, {Rows, Cols}, Ts);
      Want.CanTranspose = true;
      expectSameStats(
          statsOfCsr("A", CsrMatrix<double>::fromCoo(Rows, Cols, Coo), plI(),
                     plJ()),
          Want);
      Want.Levels[0].Kind = C;
      expectSameStats(
          statsOfDcsr("A", DcsrMatrix<double>::fromCoo(Rows, Cols, Coo),
                      plI(), plJ()),
          Want);
    }
    // Sparse and hashed vectors; the hashed one accumulates repeats in
    // arbitrary order and is frozen only sometimes.
    {
      const Idx N = extent(1 + Idx(R.nextBelow(40)));
      const size_t Nnz = R.nextBelow(
          std::min<uint64_t>(30, static_cast<uint64_t>(N)) + 1);
      SparseVector<double> X = randomSparseVector(R, N, Nnz);
      TensorStats Want = oracleStats({plI()}, {C}, {N}, crdTuples(X.Crd));
      Want.CanHash = true;
      expectSameStats(statsOfSparseVector("x", X, plI()), Want);

      HashedVector<double> Hv(N);
      std::vector<Tuple> Ts;
      for (size_t I = 0, E = R.nextBelow(30); I < E; ++I) {
        Idx Cd = X.Crd.empty() || R.nextBool(0.5)
                     ? Idx(R.nextBelow(static_cast<uint64_t>(N)))
                     : X.Crd[R.nextBelow(X.Crd.size())];
        Hv.accumulate(Cd, 1.0);
        Ts.push_back({Cd});
      }
      if (R.nextBool(0.5))
        Hv.freeze();
      std::set<Tuple> Unique(Ts.begin(), Ts.end());
      Want = oracleStats({plI()}, {H}, {N}, {Unique.begin(), Unique.end()});
      Want.CanHash = true;
      expectSameStats(statsOfHashedVector("h", Hv, plI()), Want);
    }
    // Dense vectors: 0.0 and -0.0 are both absent entries.
    {
      DenseVector<double> X(Idx(R.nextBelow(40)));
      std::vector<Tuple> Ts;
      for (size_t I = 0; I < X.Val.size(); ++I) {
        const uint64_t Pick = R.nextBelow(3);
        X.Val[I] = Pick == 0 ? 0.0 : Pick == 1 ? -0.0 : randomValue(R);
        if (Pick == 2)
          Ts.push_back({static_cast<Idx>(I)});
      }
      expectSameStats(statsOfDenseVector("d", X, plI()),
                      oracleStats({plI()}, {D}, {X.Size}, Ts));
    }
    // CSF, order 3.
    {
      const Idx DI = 1 + Idx(R.nextBelow(6)), DJ = 1 + Idx(R.nextBelow(6));
      const Idx DK = R.nextBool(0.3) ? Idx(1) << 40 : 1 + Idx(R.nextBelow(8));
      const size_t Nnz = R.nextBelow(
          std::min<uint64_t>(50, static_cast<uint64_t>(DI * DJ) *
                                     static_cast<uint64_t>(DK)) +
          1);
      auto T = randomCsf3(R, DI, DJ, DK, Nnz);
      std::vector<Tuple> Ts;
      for (size_t P0 = 0; P0 < T.Crd0.size(); ++P0)
        for (size_t P1 = T.Pos0[P0]; P1 < T.Pos0[P0 + 1]; ++P1)
          for (size_t P2 = T.Pos1[P1]; P2 < T.Pos1[P1 + 1]; ++P2)
            Ts.push_back({T.Crd0[P0], T.Crd1[P1], T.Crd2[P2]});
      expectSameStats(statsOfCsf3("T", T, plI(), plJ(), plK()),
                      oracleStats({plI(), plJ(), plK()}, {C, C, C},
                                  {DI, DJ, DK}, Ts));
    }
    // Raw tuples of order 1-3: unsorted, with repeats, any level kinds.
    {
      const size_t Order = 1 + R.nextBelow(3);
      const std::vector<Attr> All = {plI(), plJ(), plK()};
      std::vector<Attr> Attrs(All.begin(), All.begin() + Order);
      std::vector<K> Kinds;
      std::vector<int64_t> Extents;
      for (size_t L = 0; L < Order; ++L) {
        Kinds.push_back(L == 0 && R.nextBool(0.3) ? D : C);
        Extents.push_back(extent(1 + Idx(R.nextBelow(5))));
      }
      std::vector<Tuple> Ts;
      for (size_t I = 0, E = R.nextBelow(40); I < E; ++I) {
        if (!Ts.empty() && R.nextBool(0.25)) {
          Ts.push_back(Ts[R.nextBelow(Ts.size())]);
          continue;
        }
        Tuple T;
        for (size_t L = 0; L < Order; ++L)
          T.push_back(Idx(R.nextBelow(
              std::min<uint64_t>(6, static_cast<uint64_t>(Extents[L])))));
        Ts.push_back(std::move(T));
      }
      expectSameStats(statsFromTuples("t", Attrs, Kinds, Extents, Ts),
                      oracleStats(Attrs, Kinds, Extents, Ts));
    }
  }
}

TEST(PlannerStats, HashedVectorBuilderReportsHashedKind) {
  HashedVector<double> X(Idx(1) << 20);
  X.accumulate(7, 1.0);
  X.accumulate(1000000, 2.0);
  X.accumulate(7, 0.5); // Duplicate accumulation: still one entry.
  X.freeze();
  TensorStats S = statsOfHashedVector("h", X, plI());
  EXPECT_EQ(S.Nnz, 2);
  ASSERT_EQ(S.Levels.size(), 1u);
  EXPECT_EQ(S.Levels[0].Kind, LevelSpec::Hashed);
  EXPECT_EQ(S.Levels[0].Extent, Idx(1) << 20);
  EXPECT_EQ(S.Levels[0].Distinct, 2);
  EXPECT_TRUE(S.CanHash);
  EXPECT_FALSE(S.CanTranspose);
  EXPECT_NE(statsToString(S).find("hashed(pl_i:"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Extraction
//===----------------------------------------------------------------------===//

TEST(PlannerExtract, MatmulShape) {
  Rng R(5);
  auto A = randomCsr(R, 30, 30, 90);
  auto B = randomCsr(R, 30, 30, 90);
  auto M = matmulQuery(A, B);
  ASSERT_EQ(M.Q.Terms.size(), 1u);
  const PlanTerm &T = M.Q.Terms[0];
  ASSERT_EQ(T.Factors.size(), 2u);
  EXPECT_EQ(T.Free, (Shape{plI(), plK()}));
  EXPECT_EQ(T.Summed, (std::vector<Attr>{plJ()}));
  EXPECT_TRUE(T.Expanded.empty());
  EXPECT_EQ(M.Q.allAttrs(), (Shape{plI(), plJ(), plK()}));
  EXPECT_EQ(M.Q.dimOf(plI()), 30);
}

TEST(PlannerExtract, ResolvesRenamesToLeafAccesses) {
  // B2 is stored at (pl_jj, pl_k); the query renames pl_jj -> pl_j.
  TypeContext Ctx;
  Ctx["A"] = Shape{plI(), plJ()};
  Ctx["B2"] = Shape{plJJ(), plK()};
  ExprPtr B2 = Expr::rename({{plJJ(), plJ()}}, Expr::var("B2"));
  ExprPtr Prod = mulExpand(Expr::var("A"), B2, Ctx);
  ASSERT_TRUE(Prod);
  ExprPtr E = Expr::sum(plJ(), Prod);

  Rng R(7);
  auto Am = randomCsr(R, 20, 20, 60);
  auto Bm = randomCsr(R, 20, 20, 60);
  std::map<std::string, TensorStats> Stats;
  Stats["A"] = statsOfCsr("A", Am, plI(), plJ());
  Stats["B2"] = statsOfCsr("B2", Bm, plJJ(), plK());
  std::string Err;
  auto Q = extractQuery(E, Ctx, Stats, {}, &Err);
  ASSERT_TRUE(Q) << Err;
  // The B2 factor's query attributes are the renamed ones, positionally
  // aligned with its stored levels.
  const PlanTerm &T = Q->Terms[0];
  bool Found = false;
  for (const PlanFactor &F : T.Factors)
    if (F.Tensor == "B2") {
      Found = true;
      EXPECT_EQ(F.Query, (std::vector<Attr>{plJ(), plK()}));
    }
  EXPECT_TRUE(Found);
}

TEST(PlannerExtract, RejectsSumUnderMul) {
  TypeContext Ctx;
  Ctx["x"] = Shape{plI()};
  Ctx["y"] = Shape{plI()};
  // (Σ_i x) · (Σ_i y) distributes into a product of contractions.
  ExprPtr E = Expr::mul(Expr::sum(plI(), Expr::var("x")),
                        Expr::sum(plI(), Expr::var("y")));
  std::map<std::string, TensorStats> Stats;
  SparseVector<double> V(4);
  Stats["x"] = statsOfSparseVector("x", V, plI());
  Stats["y"] = statsOfSparseVector("y", V, plI());
  std::string Err;
  EXPECT_FALSE(extractQuery(E, Ctx, Stats, {}, &Err));
  EXPECT_NE(Err.find("Σ under"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Cost model rankings
//===----------------------------------------------------------------------===//

TEST(PlannerCost, Sec81RanksLinearCombinationFirst) {
  // Scaled-down Section 8.1 instance: n x n with n*20 nonzeros.
  Rng R(11);
  const Idx N = 1000;
  auto A = randomCsr(R, N, N, 20000);
  auto B = randomCsr(R, N, N, 20000);
  auto M = matmulQuery(A, B);

  auto LinComb = planForOrder(M.Q, order3(plI(), plJ(), plK()));
  auto InnerProd = planForOrder(M.Q, order3(plI(), plK(), plJ()));
  ASSERT_TRUE(LinComb && InnerProd);
  // The asymptotic gap (O(n k^2) vs O(n^2 k)) dominates everything else.
  EXPECT_LT(LinComb->cost() * 10.0, InnerProd->cost());
  // The inner-product order iterates B column-major: a transposed copy.
  EXPECT_EQ(LinComb->TransposeCost, 0.0);
  EXPECT_GT(InnerProd->TransposeCost, 0.0);

  // And the full enumeration recovers the linear-combination order on top.
  auto Best = bestPlan(M.Q);
  ASSERT_TRUE(Best);
  EXPECT_EQ(Best->Order, order3(plI(), plJ(), plK()));
}

TEST(PlannerCost, TriangleWorstCasePicksUntransposedOrder) {
  // The worst-case family of queries_triangle.cpp: R = S = T =
  // {0}x[n] ∪ [n]x{0}. Any pairwise join materializes Θ(n²); the fused
  // (a,b,c) order is Θ(n) and is also the only transpose-free one.
  const Idx N = 500;
  std::vector<Tuple> Edges;
  for (Idx I = 0; I < N; ++I) {
    Edges.push_back({0, I});
    Edges.push_back({I, 0});
  }
  Attr Aa = Attr::named("pl_ta"), Ab = Attr::named("pl_tb"),
       Ac = Attr::named("pl_tc");
  auto edgeStats = [&](const char *Name, Attr X, Attr Y) {
    TensorStats S =
        statsFromTuples(Name, {X, Y},
                        {LevelSpec::Compressed, LevelSpec::Compressed},
                        {N, N}, Edges);
    S.CanTranspose = true;
    return S;
  };
  TypeContext Ctx;
  Ctx["R"] = Shape{Aa, Ab};
  Ctx["S"] = Shape{Ab, Ac};
  Ctx["T"] = Shape{Aa, Ac};
  std::map<std::string, TensorStats> Stats;
  Stats["R"] = edgeStats("R", Aa, Ab);
  Stats["S"] = edgeStats("S", Ab, Ac);
  Stats["T"] = edgeStats("T", Aa, Ac);
  ExprPtr Prod = mulExpand(
      mulExpand(Expr::var("R"), Expr::var("S"), Ctx), Expr::var("T"), Ctx);
  ASSERT_TRUE(Prod);
  ExprPtr E = Expr::sum(Aa, Expr::sum(Ab, Expr::sum(Ac, Prod)));
  std::string Err;
  auto Q = extractQuery(E, Ctx, Stats, {}, &Err);
  ASSERT_TRUE(Q) << Err;

  auto Best = bestPlan(*Q);
  ASSERT_TRUE(Best);
  EXPECT_EQ(Best->Order, order3(Aa, Ab, Ac));
  for (const PlanAccess &Acc : Best->Accesses)
    EXPECT_FALSE(Acc.Transposed);
  // Worst-case-optimality in miniature: the chosen plan's estimate is
  // near-linear, far below the Θ(n²) a pairwise-join order would pay.
  EXPECT_LT(Best->cost(), 100.0 * static_cast<double>(N));
}

TEST(PlannerCost, InvariantUnderRename) {
  Rng R(13);
  auto Am = randomCsr(R, 64, 64, 512);
  auto Bm = randomCsr(R, 64, 64, 512);

  // Plain query at (i, j, k).
  auto Plain = matmulQuery(Am, Bm);
  // Same query with B stored at (pl_jj, pl_k) and renamed into place.
  TypeContext Ctx;
  Ctx["A"] = Shape{plI(), plJ()};
  Ctx["B2"] = Shape{plJJ(), plK()};
  ExprPtr B2 = Expr::rename({{plJJ(), plJ()}}, Expr::var("B2"));
  ExprPtr Prod = mulExpand(Expr::var("A"), B2, Ctx);
  ASSERT_TRUE(Prod);
  ExprPtr E = Expr::sum(plJ(), Prod);
  std::map<std::string, TensorStats> Stats;
  Stats["A"] = statsOfCsr("A", Am, plI(), plJ());
  Stats["B2"] = statsOfCsr("B2", Bm, plJJ(), plK());
  std::string Err;
  auto Q2 = extractQuery(E, Ctx, Stats, {}, &Err);
  ASSERT_TRUE(Q2) << Err;

  // Identical costs order-by-order: the model only sees positional stats.
  for (const auto &Order :
       {order3(plI(), plJ(), plK()), order3(plI(), plK(), plJ()),
        order3(plJ(), plI(), plK()), order3(plK(), plJ(), plI())}) {
    auto P1 = planForOrder(Plain.Q, Order);
    auto P2 = planForOrder(*Q2, Order);
    ASSERT_EQ(P1.has_value(), P2.has_value());
    if (P1) {
      EXPECT_DOUBLE_EQ(P1->StreamCost, P2->StreamCost);
      EXPECT_DOUBLE_EQ(P1->TransposeCost, P2->TransposeCost);
    }
  }
}

//===----------------------------------------------------------------------===//
// Enumerator validity (Definition 5.7 via realization)
//===----------------------------------------------------------------------===//

TEST(PlannerEnumerate, EveryPlanRealizesToValidStreams) {
  Rng R(17);
  auto Am = randomCsr(R, 32, 32, 128);
  auto Bm = randomCsr(R, 32, 32, 128);
  auto M = matmulQuery(Am, Bm);
  auto Plans = enumeratePlans(M.Q);
  ASSERT_FALSE(Plans.empty());
  // 3! = 6 candidate orders; all are realizable since both inputs are
  // two-level transposable matrices.
  EXPECT_EQ(Plans.size(), 6u);
  for (const Plan &P : Plans) {
    RealizedPlan RP = realizePlan(M.Q, P, "pt_en");
    // Definition 5.7: every binding's shape ascends in the global
    // (interning) order, and the rebuilt expression type-checks.
    for (const TensorBinding &B : RP.Bindings) {
      EXPECT_TRUE(std::is_sorted(B.Shp.begin(), B.Shp.end()));
      EXPECT_EQ(B.Shp.size(), B.Levels.size());
    }
    TypeContext Ctx;
    for (const TensorBinding &B : RP.Bindings)
      Ctx[B.Name] = B.Shp;
    std::string Err;
    auto Shp = inferShape(RP.E, Ctx, &Err);
    ASSERT_TRUE(Shp) << Err;
    // Free shape maps to the realized attributes of the plan order.
    Shape Want;
    for (Attr A : M.Q.Terms[0].Free)
      Want.push_back(RP.fresh(A));
    std::sort(Want.begin(), Want.end());
    EXPECT_EQ(*Shp, Want);
  }
  // Costs come out sorted best-first.
  for (size_t I = 1; I < Plans.size(); ++I)
    EXPECT_LE(Plans[I - 1].cost(), Plans[I].cost());
}

//===----------------------------------------------------------------------===//
// EXPLAIN goldens
//===----------------------------------------------------------------------===//

TEST(PlannerExplain, MatmulGolden) {
  // Hand-built instance so every statistic in the golden is checkable:
  // A = [[1,0,2],[0,3,0]] (CSR 2x3), B = [[0,4],[0,0],[5,6]] (CSR 3x2).
  auto A = CsrMatrix<double>::fromCoo(2, 3, {{0, 0, 1}, {0, 2, 2}, {1, 1, 3}});
  auto B = CsrMatrix<double>::fromCoo(3, 2, {{0, 1, 4}, {2, 0, 5}, {2, 1, 6}});
  auto M = matmulQuery(A, B);
  auto Best = bestPlan(M.Q);
  ASSERT_TRUE(Best);
  EXPECT_EQ(Best->explain(M.Q),
            "order: pl_i < pl_j < pl_k\n"
            "cost: 10.2 = 9.5 stream + 0 transpose + 0 rehash"
            " + 0.75 access\n"
            "inputs:\n"
            "  A: dense(pl_i:2, distinct 2) compressed(pl_j:3, distinct 3)"
            " nnz 3\n"
            "  B: dense(pl_j:3, distinct 2) compressed(pl_k:2, distinct 2)"
            " nnz 3\n"
            "term 1: Σpl_j A(pl_i, pl_j) · B(pl_j, pl_k)\n"
            "  for pl_i [2]: iters 2, visits 2, drivers A\n"
            "  Σ pl_j [3]: iters 1.5, visits 3, drivers A B\n"
            "  for pl_k [2]: iters 1.5, visits 4.5, drivers B\n"

            "accesses:\n"
            "  A: dense(pl_i) -> compressed(pl_j, linear)  [as stored]\n"
            "  B: dense(pl_j) -> compressed(pl_k, linear)  [as stored]\n"
            "indexing:\n"
            "  A: (pl_i, pl_j, pl_k) -> (pl_i, pl_j); pl_i dense sequential"
            " [drives], pl_j compressed sequential [drives]\n"
            "  B: (pl_i, pl_j, pl_k) -> (pl_j, pl_k); pl_j dense gather,"
            " pl_k compressed sequential [drives]\n");
}

TEST(PlannerExplain, TriangleGolden) {
  // Four-node triangle instance: edges of a square plus one diagonal.
  std::vector<Tuple> Edges{{0, 1}, {0, 2}, {1, 2}, {1, 3}, {2, 3}};
  Attr Aa = Attr::named("pl_ga"), Ab = Attr::named("pl_gb"),
       Ac = Attr::named("pl_gc");
  auto edgeStats = [&](const char *Name, Attr X, Attr Y) {
    return statsFromTuples(Name, {X, Y},
                           {LevelSpec::Compressed, LevelSpec::Compressed},
                           {4, 4}, Edges);
  };
  TypeContext Ctx;
  Ctx["R"] = Shape{Aa, Ab};
  Ctx["S"] = Shape{Ab, Ac};
  Ctx["T"] = Shape{Aa, Ac};
  std::map<std::string, TensorStats> Stats;
  Stats["R"] = edgeStats("R", Aa, Ab);
  Stats["S"] = edgeStats("S", Ab, Ac);
  Stats["T"] = edgeStats("T", Aa, Ac);
  ExprPtr Prod = mulExpand(
      mulExpand(Expr::var("R"), Expr::var("S"), Ctx), Expr::var("T"), Ctx);
  ASSERT_TRUE(Prod);
  ExprPtr E = Expr::sum(Aa, Expr::sum(Ab, Expr::sum(Ac, Prod)));
  std::string Err;
  auto Q = extractQuery(E, Ctx, Stats, {}, &Err);
  ASSERT_TRUE(Q) << Err;
  auto Best = bestPlan(*Q);
  ASSERT_TRUE(Best);
  EXPECT_EQ(Best->explain(*Q),
            "order: pl_ga < pl_gb < pl_gc\n"
            "cost: 54.6 = 50.5 stream + 0 transpose + 0 rehash"
            " + 4.08 access\n"
            "inputs:\n"
            "  R: compressed(pl_ga:4, distinct 3) compressed(pl_gb:4,"
            " distinct 3) nnz 5\n"
            "  S: compressed(pl_gb:4, distinct 3) compressed(pl_gc:4,"
            " distinct 3) nnz 5\n"
            "  T: compressed(pl_ga:4, distinct 3) compressed(pl_gc:4,"
            " distinct 3) nnz 5\n"
            "term 1: Σpl_gc Σpl_gb Σpl_ga R(pl_ga, pl_gb) · S(pl_gb, pl_gc)"
            " · T(pl_ga, pl_gc)\n"
            "  Σ pl_ga [4]: iters 3, visits 3, drivers R T\n"
            "  Σ pl_gb [4]: iters 1.67, visits 5, drivers R S\n"
            "  Σ pl_gc [4]: iters 1.67, visits 8.33, drivers S T\n"
            "accesses:\n"
            "  R: compressed(pl_ga, linear) -> compressed(pl_gb, linear)"
            "  [as stored]\n"
            "  S: compressed(pl_gb, linear) -> compressed(pl_gc, linear)"
            "  [as stored]\n"
            "  T: compressed(pl_ga, linear) -> compressed(pl_gc, linear)"
            "  [as stored]\n"
            "indexing:\n"
            "  R: (pl_ga, pl_gb, pl_gc) -> (pl_ga, pl_gb); pl_ga compressed"
            " sequential [drives], pl_gb compressed sequential [drives]\n"
            "  S: (pl_ga, pl_gb, pl_gc) -> (pl_gb, pl_gc); pl_gb compressed"
            " gather, pl_gc compressed sequential [drives]\n"
            "  T: (pl_ga, pl_gb, pl_gc) -> (pl_ga, pl_gc); pl_ga compressed"
            " gather, pl_gc compressed gather\n");
}

namespace {

/// Hand-built single-level sparse-vector statistics over a huge key space,
/// so every number in the hashed-selection goldens is checkable by hand.
TensorStats sparseKeyStats(const char *Name, Attr A, int64_t Extent,
                           int64_t Nnz) {
  TensorStats S;
  S.Name = Name;
  S.Nnz = Nnz;
  S.Levels = {{A, LevelSpec::Compressed, Extent, Nnz,
               static_cast<double>(Nnz)}};
  S.CanHash = true;
  return S;
}

/// Σ_h s(h)·x(h) over a 2^40 key space: s drives with 5000 entries, x is
/// probed and holds 20000.
PlanQuery sparseKeyQuery() {
  Attr Ah = Attr::named("pl_h");
  const int64_t Extent = int64_t(1) << 40;
  TypeContext Ctx;
  Ctx["s"] = Shape{Ah};
  Ctx["x"] = Shape{Ah};
  ExprPtr Prod = mulExpand(Expr::var("s"), Expr::var("x"), Ctx);
  EXPECT_TRUE(Prod);
  ExprPtr E = Expr::sum(Ah, std::move(Prod));
  std::map<std::string, TensorStats> Stats;
  Stats["s"] = sparseKeyStats("s", Ah, Extent, 5000);
  Stats["x"] = sparseKeyStats("x", Ah, Extent, 20000);
  std::string Err;
  auto Q = extractQuery(E, Ctx, Stats, {}, &Err);
  EXPECT_TRUE(Q) << Err;
  return *Q;
}

} // namespace

TEST(PlannerCost, PicksHashedWhenProbesDominate) {
  // Probe-vs-scan arithmetic: the driver visits x 5000 times. Compressed,
  // each visit scans log2(2 + 20000) ≈ 14.3 — ≈ 7.1e4 total; hashed, each
  // visit probes once (5e3) plus a 4e4 one-pass table build. Hashed wins;
  // rehashing s (the driver, which pays no locates) never does.
  PlanQuery Q = sparseKeyQuery();
  auto Best = bestPlan(Q);
  ASSERT_TRUE(Best);
  ASSERT_EQ(Best->Accesses.size(), 2u);
  const PlanAccess &S = Best->Accesses[0], &X = Best->Accesses[1];
  EXPECT_EQ(S.Tensor, "s");
  EXPECT_EQ(S.Levels[0].K, LevelSpec::Compressed);
  EXPECT_FALSE(S.Rehashed);
  EXPECT_EQ(X.Tensor, "x");
  EXPECT_EQ(X.Levels[0].K, LevelSpec::Hashed);
  EXPECT_TRUE(X.Rehashed);
  // The probe table the caller must build: 2^ceil(log2(2*20000)).
  EXPECT_EQ(X.Levels[0].TabSize, 65536);
  EXPECT_DOUBLE_EQ(Best->RehashCost, 2.0 * 20000);

  // The same plan under AllowHashed = false keeps both compressed and
  // pays the scan charge instead.
  PlanOptions NoHash;
  NoHash.AllowHashed = false;
  auto Stored = bestPlan(Q, NoHash);
  ASSERT_TRUE(Stored);
  for (const PlanAccess &A : Stored->Accesses)
    EXPECT_EQ(A.Levels[0].K, LevelSpec::Compressed);
  EXPECT_GT(Stored->cost(), Best->cost());
}

TEST(PlannerExplain, SparseKeyHashedGolden) {
  PlanQuery Q = sparseKeyQuery();
  auto Best = bestPlan(Q);
  ASSERT_TRUE(Best);
  EXPECT_EQ(Best->explain(Q),
            "order: pl_h\n"
            "cost: 5.12e+04 = 1e+04 stream + 0 transpose + 4e+04 rehash"
            " + 1.25e+03 access\n"
            "inputs:\n"
            "  s: compressed(pl_h:1099511627776, distinct 5000) nnz 5000\n"
            "  x: compressed(pl_h:1099511627776, distinct 20000) nnz"
            " 20000\n"
            "term 1: Σpl_h s(pl_h) · x(pl_h)\n"
            "  Σ pl_h [1099511627776]: iters 5e+03, visits 5e+03, drivers"
            " s x\n"
            "accesses:\n"
            "  s: compressed(pl_h, gallop)  [as stored]\n"
            "  x: hashed(pl_h, gallop)  [hashed copy]\n"
            "indexing:\n"
            "  s: (pl_h) -> (pl_h); pl_h compressed sequential [drives]\n"
            "  x: (pl_h) -> (pl_h); pl_h hashed gather\n");
}

//===----------------------------------------------------------------------===//
// End to end: realize, install, compile, run
//===----------------------------------------------------------------------===//

namespace {

double oracleMatmulTotal(const CsrMatrix<double> &A,
                         const CsrMatrix<double> &B) {
  double Total = 0.0;
  for (Idx I = 0; I < A.NumRows; ++I)
    for (size_t P = A.Pos[static_cast<size_t>(I)];
         P < A.Pos[static_cast<size_t>(I) + 1]; ++P) {
      Idx J = A.Crd[P];
      for (size_t Q = B.Pos[static_cast<size_t>(J)];
           Q < B.Pos[static_cast<size_t>(J) + 1]; ++Q)
        Total += A.Val[P] * B.Val[Q];
    }
  return Total;
}

double runPlannedMatmul(const CsrMatrix<double> &A, const CsrMatrix<double> &B,
                        const Plan &P, const PlanQuery &Q,
                        const std::string &Tag) {
  RealizedPlan RP = realizePlan(Q, P, Tag);
  LowerCtx Ctx;
  installPlan(Ctx, RP);
  VmMemory M;
  for (const PlanAccess &Acc : RP.Accesses) {
    const CsrMatrix<double> &Src = Acc.Tensor == "A" ? A : B;
    if (Acc.Transposed)
      bindCsr(M, Acc.bindName(), transpose(Src));
    else
      bindCsr(M, Acc.bindName(), Src);
  }
  PRef Prog = compileFullContraction(Ctx, RP.E, "out");
  auto Err = vmExecute(Prog, M);
  EXPECT_FALSE(Err.has_value()) << *Err;
  auto V = M.getScalar("out");
  EXPECT_TRUE(V.has_value());
  return std::get<double>(*V);
}

} // namespace

TEST(PlannerRealize, PlannedMatmulMatchesOracleAllOrders) {
  Rng R(23);
  auto A = randomCsr(R, 40, 40, 200);
  auto B = randomCsr(R, 40, 40, 200);
  auto M = matmulQuery(A, B);
  const double Want = oracleMatmulTotal(A, B);
  auto Plans = enumeratePlans(M.Q);
  ASSERT_EQ(Plans.size(), 6u);
  size_t Transposed = 0;
  for (size_t I = 0; I < Plans.size(); ++I) {
    for (const PlanAccess &Acc : Plans[I].Accesses)
      Transposed += Acc.Transposed;
    double Got = runPlannedMatmul(A, B, Plans[I], M.Q,
                                  "pt_e2e" + std::to_string(I));
    EXPECT_NEAR(Got, Want, 1e-6 * std::abs(Want)) << "plan #" << I;
  }
  // The sweep exercised both storage orientations.
  EXPECT_GT(Transposed, 0u);
}

TEST(PlannerRealize, PlannedHashedAccessMatchesOracle) {
  // Σ_h s(h)·x(h) over a 2^40 key space with real data: x holds 4000
  // entries, s the 1000 entries at every 4th coordinate of x. The saving
  // (1000 probes replacing 1000 log2(4002)-deep scans) beats the 8000
  // table-build charge, so the best plan re-formats x as hashed; the test
  // then binds the hashed copy and runs the planned kernel.
  Attr Ah = Attr::named("pl_e2h");
  const Idx Space = Idx(1) << 40;
  SparseVector<double> Xv(Space), Sv(Space);
  double Want = 0.0;
  for (Idx I = 0; I < 4000; ++I) {
    Idx C = I * 1000003 + 17;
    double V = 1.0 + 0.25 * static_cast<double>(I % 7);
    Xv.push(C, V);
    if (I % 4 == 0) {
      double W = 2.0 - 0.125 * static_cast<double>(I % 5);
      Sv.push(C, W);
      Want += V * W;
    }
  }

  TypeContext Ctx;
  Ctx["s"] = Shape{Ah};
  Ctx["x"] = Shape{Ah};
  ExprPtr Prod = mulExpand(Expr::var("s"), Expr::var("x"), Ctx);
  ASSERT_TRUE(Prod);
  ExprPtr E = Expr::sum(Ah, std::move(Prod));
  std::map<std::string, TensorStats> Stats;
  Stats["s"] = statsOfSparseVector("s", Sv, Ah);
  Stats["x"] = statsOfSparseVector("x", Xv, Ah);
  std::string Err;
  auto Q = extractQuery(E, Ctx, Stats, {}, &Err);
  ASSERT_TRUE(Q) << Err;
  auto Best = bestPlan(*Q);
  ASSERT_TRUE(Best);

  RealizedPlan RP = realizePlan(*Q, *Best, "pt_hash");
  LowerCtx LCtx;
  installPlan(LCtx, RP);
  VmMemory M;
  size_t Hashed = 0;
  for (const PlanAccess &Acc : RP.Accesses) {
    const SparseVector<double> &Src = Acc.Tensor == "x" ? Xv : Sv;
    if (Acc.Levels[0].K == LevelSpec::Hashed) {
      ++Hashed;
      HashedVector<double> H(Src.Size, Src.nnz());
      for (size_t I = 0; I < Src.nnz(); ++I)
        H.accumulate(Src.Crd[I], Src.Val[I]);
      H.freeze();
      int64_t TabSize = bindHashedVector(M, Acc.bindName(), H);
      // The data-derived table size must match what the plan promised the
      // lowering (the emitted probes index arrays of exactly this size).
      EXPECT_EQ(TabSize, Acc.Levels[0].TabSize);
    } else {
      bindSparseVector(M, Acc.bindName(), Src);
    }
  }
  EXPECT_EQ(Hashed, 1u) << "the cost model should rehash exactly x";

  PRef Prog = compileFullContraction(LCtx, RP.E, "out");
  auto VmErr = vmExecute(Prog, M);
  ASSERT_FALSE(VmErr.has_value()) << *VmErr;
  auto V = M.getScalar("out");
  ASSERT_TRUE(V.has_value());
  EXPECT_NEAR(std::get<double>(*V), Want, 1e-9 * std::abs(Want));
}

TEST(PlannerRealize, InstallPlanSetsBindingsAndDims) {
  Rng R(29);
  auto A = randomCsr(R, 12, 18, 40);
  auto B = randomCsr(R, 18, 9, 40);
  auto M = matmulQuery(A, B);
  auto Best = bestPlan(M.Q);
  ASSERT_TRUE(Best);
  RealizedPlan RP = realizePlan(M.Q, *Best, "pt_inst");
  LowerCtx Ctx;
  installPlan(Ctx, RP);
  EXPECT_EQ(Ctx.Bindings.size(), 2u);
  for (const auto &[A2, N] : RP.FreshDims)
    EXPECT_EQ(Ctx.dimOf(A2), N);
  // Rectangular extents survive the mapping.
  EXPECT_EQ(Ctx.dimOf(RP.fresh(plI())), 12);
  EXPECT_EQ(Ctx.dimOf(RP.fresh(plJ())), 18);
  EXPECT_EQ(Ctx.dimOf(RP.fresh(plK())), 9);
}

TEST(PlannerRealize, FreshAttributesAreNamedByPlanPosition) {
  // Fresh attributes are `<tag>_<k>` by plan position, so realizing one
  // plan twice gives the same attributes (the interner does not grow per
  // realization), and plans of different arity under one tag still come
  // out sorted: positions are always interned in increasing order.
  Rng R(31);
  auto A = randomCsr(R, 12, 18, 40);
  auto B = randomCsr(R, 18, 9, 40);
  auto C = randomCsr(R, 12, 18, 40);
  auto M3 = matmulQuery(A, B);

  // Σ_i Σ_j A(i,j)·C(i,j): two attributes.
  TypeContext Ctx;
  Ctx["A"] = Shape{plI(), plJ()};
  Ctx["C"] = Shape{plI(), plJ()};
  std::string Err;
  ExprPtr E2 = sumAll(mulExpand(Expr::var("A"), Expr::var("C"), Ctx), Ctx,
                      &Err);
  ASSERT_TRUE(E2) << Err;
  std::map<std::string, TensorStats> Stats;
  Stats["A"] = statsOfCsr("A", A, plI(), plJ());
  Stats["C"] = statsOfCsr("C", C, plI(), plJ());
  auto Q2 = extractQuery(E2, Ctx, Stats, {}, &Err);
  ASSERT_TRUE(Q2) << Err;

  auto P2 = bestPlan(*Q2);
  auto P3 = bestPlan(M3.Q);
  ASSERT_TRUE(P2 && P3);
  ASSERT_EQ(P2->Order.size(), 2u);
  ASSERT_EQ(P3->Order.size(), 3u);

  auto ExpectSorted = [](const RealizedPlan &RP) {
    for (const TensorBinding &Bd : RP.Bindings)
      EXPECT_TRUE(std::is_sorted(Bd.Shp.begin(), Bd.Shp.end())) << Bd.Name;
  };
  const std::string Tag = "pt_pos";
  RealizedPlan First = realizePlan(*Q2, *P2, Tag);
  RealizedPlan Again = realizePlan(*Q2, *P2, Tag);
  ASSERT_EQ(First.FreshDims.size(), Again.FreshDims.size());
  for (size_t K = 0; K < First.FreshDims.size(); ++K) {
    EXPECT_EQ(First.FreshDims[K].first, Again.FreshDims[K].first);
    EXPECT_EQ(First.FreshDims[K].first.name(), Tag + "_" + std::to_string(K));
  }
  for (Attr Q : P2->Order)
    EXPECT_EQ(First.fresh(Q), Again.fresh(Q));
  ExpectSorted(First);

  RealizedPlan Wide = realizePlan(M3.Q, *P3, Tag);
  ExpectSorted(Wide);
  EXPECT_EQ(Wide.fresh(P3->Order[0]), First.fresh(P2->Order[0]));
  RealizedPlan Narrow = realizePlan(*Q2, *P2, Tag);
  ExpectSorted(Narrow);
  for (Attr Q : P2->Order)
    EXPECT_EQ(Narrow.fresh(Q), First.fresh(Q));
}
