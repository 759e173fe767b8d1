//===- benchmark/workloads.cpp - Seeded workloads and their oracle --------===//

#include "workloads.h"

#include "relational/tpch.h"

#include <cstring>

using namespace etch;

namespace bench {

namespace {

/// An independent generator stream per purpose, so adding a draw to one
/// tensor never shifts another's data.
Rng stream(uint64_t Seed, uint64_t Tag) {
  return Rng(Seed * 0x2545f4914f6cdd1dULL + Tag * 0x9e3779b97f4a7c15ULL);
}

double intValue(Rng &R) { return 1.0 + static_cast<double>(R.nextBelow(4)); }

SparseVector<double> intSparse(Rng &R, Idx N, size_t Nnz) {
  SparseVector<double> V(N);
  for (uint64_t C : R.sampleDistinctSorted(Nnz, static_cast<uint64_t>(N)))
    V.push(static_cast<Idx>(C), intValue(R));
  return V;
}

DenseVector<double> intDense(Rng &R, Idx N) {
  DenseVector<double> V(N);
  for (double &X : V.Val)
    X = intValue(R);
  return V;
}

/// Row-major, duplicate-free entries of a Rows x Cols matrix.
std::vector<CooEntry<double>> intCoo(Rng &R, Idx Rows, Idx Cols, size_t Nnz) {
  std::vector<CooEntry<double>> Coo;
  Coo.reserve(Nnz);
  uint64_t Universe = static_cast<uint64_t>(Rows) * static_cast<uint64_t>(Cols);
  for (uint64_t C : R.sampleDistinctSorted(Nnz, Universe))
    Coo.push_back({static_cast<Idx>(C / static_cast<uint64_t>(Cols)),
                   static_cast<Idx>(C % static_cast<uint64_t>(Cols)),
                   intValue(R)});
  return Coo;
}

std::vector<double> denseOf(const SparseVector<double> &V) {
  std::vector<double> D(static_cast<size_t>(V.Size), 0.0);
  for (size_t K = 0; K < V.Crd.size(); ++K)
    D[static_cast<size_t>(V.Crd[K])] = V.Val[K];
  return D;
}

TensorDef csrDef(std::string Name, CsrMatrix<double> M, Attr Row, Attr Col) {
  TensorDef T;
  T.Name = std::move(Name);
  T.K = CatalogTensor::Kind::Csr;
  T.Csr = std::move(M);
  T.Row = Row;
  T.Col = Col;
  return T;
}

TensorDef sparseDef(std::string Name, SparseVector<double> V, Attr A) {
  TensorDef T;
  T.Name = std::move(Name);
  T.K = CatalogTensor::Kind::Sparse;
  T.Sparse = std::move(V);
  T.Row = A;
  return T;
}

TensorDef denseDef(std::string Name, DenseVector<double> V, Attr A) {
  TensorDef T;
  T.Name = std::move(Name);
  T.K = CatalogTensor::Kind::Dense;
  T.Dense = std::move(V);
  T.Row = A;
  return T;
}

/// Σ_i Π_k V_k(i) over dense copies.
double dotAll(const std::vector<const std::vector<double> *> &Vs) {
  double S = 0.0;
  for (size_t I = 0; I < Vs.front()->size(); ++I) {
    double P = 1.0;
    for (const std::vector<double> *V : Vs)
      P *= (*V)[I];
    S += P;
  }
  return S;
}

/// Σ_{i,j} A(i, j) · v(j).
double matVecAll(const CsrMatrix<double> &A, const std::vector<double> &V) {
  double S = 0.0;
  for (size_t Q = 0; Q < A.Crd.size(); ++Q)
    S += A.Val[Q] * V[static_cast<size_t>(A.Crd[Q])];
  return S;
}

double squareAll(const CsrMatrix<double> &A) {
  double S = 0.0;
  for (double V : A.Val)
    S += V * V;
  return S;
}

/// Σ_{a,b,c} R(a, b) · S(b, c) · T(a, c), with T's row a scattered densely.
double triangleAll(const CsrMatrix<double> &R, const CsrMatrix<double> &S,
                   const CsrMatrix<double> &T) {
  std::vector<double> Row(static_cast<size_t>(T.NumCols), 0.0);
  double Sum = 0.0;
  for (Idx A = 0; A < R.NumRows; ++A) {
    const size_t AU = static_cast<size_t>(A);
    for (size_t Q = T.Pos[AU]; Q < T.Pos[AU + 1]; ++Q)
      Row[static_cast<size_t>(T.Crd[Q])] = T.Val[Q];
    for (size_t Q = R.Pos[AU]; Q < R.Pos[AU + 1]; ++Q) {
      const size_t B = static_cast<size_t>(R.Crd[Q]);
      for (size_t P = S.Pos[B]; P < S.Pos[B + 1]; ++P)
        Sum += R.Val[Q] * S.Val[P] * Row[static_cast<size_t>(S.Crd[P])];
    }
    for (size_t Q = T.Pos[AU]; Q < T.Pos[AU + 1]; ++Q)
      Row[static_cast<size_t>(T.Crd[Q])] = 0.0;
  }
  return Sum;
}

} // namespace

std::optional<Kind> parseKind(const std::string &Name) {
  for (Kind K : {Kind::ServeSmall, Kind::ServeLarge, Kind::IngestViews,
                 Kind::Replan})
    if (Name == kindName(K))
      return K;
  return std::nullopt;
}

const char *kindName(Kind K) {
  switch (K) {
  case Kind::ServeSmall:
    return "serve_small";
  case Kind::ServeLarge:
    return "serve_large";
  case Kind::IngestViews:
    return "ingest_views";
  case Kind::Replan:
    return "replan";
  }
  return "?";
}

bool sameBits(double A, double B) {
  return std::memcmp(&A, &B, sizeof(double)) == 0;
}

Workload::Workload(Kind WK, uint64_t S) : K(WK), Seed(S) {
  switch (K) {
  case Kind::ServeSmall: {
    // Fig. 2's triple product and two µs-scale neighbours: dispatch is a
    // few µs, so admission, keying, and the plan-cache lookup dominate.
    constexpr Idx N = 2000;
    Attr I = Attr::named("bsm_i");
    Rng R = stream(Seed, 1);
    Tensors.push_back(sparseDef("y", intSparse(R, N, 400), I));
    Tensors.push_back(sparseDef("z", intSparse(R, N, 450), I));
    Tensors.push_back(sparseDef("w", intSparse(R, N, 500), I));
    Tensors.push_back(sparseDef("x", intSparse(R, N, 450), I));
    Tensors.push_back(denseDef("d", intDense(R, N), I));
    std::vector<double> Y = denseOf(Tensors[0].Sparse),
                        Z = denseOf(Tensors[1].Sparse),
                        W = denseOf(Tensors[2].Sparse),
                        X = denseOf(Tensors[3].Sparse);
    const std::vector<double> &D = Tensors[4].Dense.Val;
    Shapes = {{"y.z.w", {{"y", "z", "w"}}},
              {"y.z", {{"y", "z"}}},
              {"x.d", {{"x", "d"}}}};
    Ref["y.z.w"] = dotAll({&Y, &Z, &W});
    Ref["y.z"] = dotAll({&Y, &Z});
    Ref["x.d"] = dotAll({&X, &D});
    break;
  }
  case Kind::ServeLarge: {
    // Working sets past L2: SpMV both ways, a self-join, the Fig. 20
    // triangle, and a Fig. 19 TPC-H join.
    constexpr Idx N = 100000, V = 2000;
    Attr I = Attr::named("blg_i"), J = Attr::named("blg_j");
    Attr A = Attr::named("blg_a"), B = Attr::named("blg_b"),
         C = Attr::named("blg_c");
    Attr O = Attr::named("blg_o"), P = Attr::named("blg_p");
    Rng R = stream(Seed, 2);
    Tensors.push_back(
        csrDef("A", CsrMatrix<double>::fromCoo(N, N, intCoo(R, N, N, 1000000)),
               I, J));
    Tensors.push_back(sparseDef("x", intSparse(R, N, 10000), J));
    Tensors.push_back(denseDef("d", intDense(R, N), J));
    Tensors.push_back(
        csrDef("R", CsrMatrix<double>::fromCoo(V, V, intCoo(R, V, V, 20000)),
               A, B));
    Tensors.push_back(
        csrDef("S", CsrMatrix<double>::fromCoo(V, V, intCoo(R, V, V, 20000)),
               B, C));
    Tensors.push_back(
        csrDef("T", CsrMatrix<double>::fromCoo(V, V, intCoo(R, V, V, 20000)),
               A, C));

    // L(o, p): lineitems by (order, part), weight 1..4 from the quantity;
    // f(p): a 1..4 weight on the green parts (Q9's `p_name LIKE
    // '%green%'`), so L·f totals the green-part lineitems.
    TpchDb Db = generateTpch(0.1, Seed);
    std::vector<CooEntry<double>> L;
    L.reserve(Db.numLineitems());
    for (size_t K = 0; K < Db.numLineitems(); ++K)
      L.push_back({Db.LiOrder[K], Db.LiPart[K],
                   1.0 + static_cast<double>(
                             static_cast<int64_t>(Db.LiQuantity[K]) % 4)});
    const Idx NumParts = static_cast<Idx>(Db.numParts());
    Tensors.push_back(csrDef(
        "L",
        CsrMatrix<double>::fromCoo(static_cast<Idx>(Db.numOrders()), NumParts,
                                   std::move(L)),
        O, P));
    SparseVector<double> F(NumParts);
    Rng RF = stream(Seed, 3);
    for (Idx Part = 0; Part < NumParts; ++Part)
      if (Db.PartGreen[static_cast<size_t>(Part)])
        F.push(Part, intValue(RF));
    Tensors.push_back(sparseDef("f", std::move(F), P));

    const CsrMatrix<double> &AM = Tensors[0].Csr;
    Shapes = {{"A.x", {{"A", "x"}}},
              {"A.d", {{"A", "d"}}},
              {"A.A", {{"A", "A"}}},
              {"R.S.T", {{"R", "S", "T"}}},
              {"L.f", {{"L", "f"}}}};
    Ref["A.x"] = matVecAll(AM, denseOf(Tensors[1].Sparse));
    Ref["A.d"] = matVecAll(AM, Tensors[2].Dense.Val);
    Ref["A.A"] = squareAll(AM);
    Ref["R.S.T"] = triangleAll(Tensors[3].Csr, Tensors[4].Csr, Tensors[5].Csr);
    Ref["L.f"] = matVecAll(Tensors[6].Csr, denseOf(Tensors[7].Sparse));
    break;
  }
  case Kind::IngestViews: {
    // A 40k-nnz matrix under two live views. Readers query B, which is
    // never written, so only the write path (catalog + ivm) sees the
    // writes; B's ~0.1 ms shapes show the writer's interference as a share
    // of the read rather than as µs of host noise.
    constexpr Idx N = 2000;
    Attr I = Attr::named("biv_i"), J = Attr::named("biv_j");
    Rng R = stream(Seed, 4);
    ACoo = intCoo(R, N, N, 40000);
    Tensors.push_back(csrDef("A", CsrMatrix<double>::fromCoo(N, N, ACoo), I, J));
    Tensors.push_back(sparseDef("x", intSparse(R, N, 400), J));
    Tensors.push_back(
        csrDef("B", CsrMatrix<double>::fromCoo(N, N, intCoo(R, N, N, 20000)),
               I, J));
    Tensors.push_back(denseDef("d", intDense(R, N), J));
    XDense = denseOf(Tensors[1].Sparse);
    Views = {{"spmv", {{"A", "x"}}}, {"sq", {{"A", "A"}}}};
    Shapes = {{"B.d", {{"B", "d"}}}, {"B.B", {{"B", "B"}}}};
    Ref["spmv"] = matVecAll(Tensors[0].Csr, XDense);
    Ref["sq"] = squareAll(Tensors[0].Csr);
    Ref["B.d"] = matVecAll(Tensors[2].Csr, Tensors[3].Dense.Val);
    Ref["B.B"] = squareAll(Tensors[2].Csr);
    break;
  }
  case Kind::Replan: {
    // Every iteration writes x, which both shapes read: every query misses
    // the plan cache and pays planner → lowering → bytecode → cc → bind.
    constexpr Idx N = 2000;
    Attr I = Attr::named("brp_i"), J = Attr::named("brp_j");
    Rng R = stream(Seed, 5);
    Tensors.push_back(
        csrDef("A", CsrMatrix<double>::fromCoo(N, N, intCoo(R, N, N, 40000)),
               I, J));
    Tensors.push_back(sparseDef("x", intSparse(R, N, 400), J));
    Tensors.push_back(denseDef("d", intDense(R, N), J));
    const CsrMatrix<double> &AM = Tensors[0].Csr;
    AColSum.assign(static_cast<size_t>(N), 0.0);
    for (size_t Q = 0; Q < AM.Crd.size(); ++Q)
      AColSum[static_cast<size_t>(AM.Crd[Q])] += AM.Val[Q];
    XCrd = Tensors[1].Sparse.Crd;
    XDense = denseOf(Tensors[1].Sparse);
    DDense = Tensors[2].Dense.Val;
    Shapes = {{"A.x", {{"A", "x"}}}, {"x.d", {{"x", "d"}}}};
    Ref["A.x"] = matVecAll(AM, XDense);
    Ref["x.d"] = dotAll({&XDense, &DDense});
    break;
  }
  }
}

Write Workload::write(uint64_t I) const {
  Rng R = stream(Seed, 1000 + I);
  Write W{K == Kind::IngestViews ? "A" : "x", {}, {}, {}};
  if (K == Kind::IngestViews) {
    // 1, 16, or 256 updates of stored entries: nnz stays at 40k, values
    // grow by small integers, and sums stay exact.
    static constexpr size_t Sizes[] = {1, 16, 256};
    size_t Nnz = Sizes[R.nextBelow(3)];
    for (size_t E = 0; E < Nnz; ++E) {
      size_t Slot = static_cast<size_t>(R.nextBelow(ACoo.size()));
      W.Slots.push_back(Slot);
      W.Csr.push_back({ACoo[Slot].Row, ACoo[Slot].Col, intValue(R)});
    }
  } else if (K == Kind::Replan) {
    size_t Slot = static_cast<size_t>(R.nextBelow(XCrd.size()));
    W.Sparse.push_back({XCrd[Slot], intValue(R)});
  }
  return W;
}

void Workload::apply(const Write &W) {
  if (K == Kind::IngestViews) {
    for (size_t E = 0; E < W.Csr.size(); ++E) {
      CooEntry<double> &Stored = ACoo[W.Slots[E]];
      double Delta = W.Csr[E].Val, Old = Stored.Val, New = Old + Delta;
      Ref["spmv"] += Delta * XDense[static_cast<size_t>(Stored.Col)];
      Ref["sq"] += New * New - Old * Old;
      Stored.Val = New;
    }
  } else if (K == Kind::Replan) {
    for (const auto &[Crd, Delta] : W.Sparse) {
      const size_t C = static_cast<size_t>(Crd);
      Ref["A.x"] += Delta * AColSum[C];
      Ref["x.d"] += Delta * DDense[C];
      XDense[C] += Delta;
    }
  }
}

void Workload::load(ContractionService &S) const {
  for (const TensorDef &T : Tensors) {
    switch (T.K) {
    case CatalogTensor::Kind::Csr:
      S.loadCsr(T.Name, T.Csr, T.Row, T.Col);
      break;
    case CatalogTensor::Kind::Sparse:
      S.loadSparse(T.Name, T.Sparse, T.Row);
      break;
    case CatalogTensor::Kind::Dense:
      S.loadDense(T.Name, T.Dense, T.Row);
      break;
    }
  }
}

} // namespace bench
