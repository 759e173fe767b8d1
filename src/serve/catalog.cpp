//===- serve/catalog.cpp - Versioned tensor catalog with snapshots --------===//

#include "serve/catalog.h"

#include "support/assert.h"

using namespace etch;

size_t CatalogTensor::nnz() const {
  switch (K) {
  case Kind::Csr:
    return Csr.nnz();
  case Kind::Sparse:
    return Sparse.nnz();
  case Kind::Dense:
    return Dense.Val.size();
  }
  ETCH_UNREACHABLE("unknown catalog tensor kind");
}

CatalogTensorRef CatalogSnapshot::find(const std::string &Name) const {
  auto It = Tensors.find(Name);
  return It == Tensors.end() ? nullptr : It->second;
}

/// An empty version of \p Name, for its payload and stats to fill.
static std::shared_ptr<CatalogTensor>
newVersion(const std::string &Name, CatalogTensor::Kind K, Shape Shp) {
  auto T = std::make_shared<CatalogTensor>();
  T->Name = Name;
  T->K = K;
  T->Shp = std::move(Shp);
  return T;
}

TensorCatalog::TensorCatalog() : Snap(std::make_shared<CatalogSnapshot>()) {}

CatalogSnapshotRef TensorCatalog::snapshot() const {
  std::lock_guard<std::mutex> L(Mu);
  return Snap;
}

uint64_t TensorCatalog::installLocked(std::shared_ptr<CatalogTensor> T) {
  // Callers hold WriterMu; build the successor snapshot from the current
  // one (map copy, tensors shared) and swap it in under Mu.
  CatalogSnapshotRef Cur = snapshot();
  auto Next = std::make_shared<CatalogSnapshot>(*Cur);
  Next->Epoch = Cur->epoch() + 1;
  T->Version = Next->Epoch;
  Next->Tensors[T->Name] = std::move(T);
  std::lock_guard<std::mutex> L(Mu);
  Snap = std::move(Next);
  return Snap->epoch();
}

uint64_t TensorCatalog::replace(std::shared_ptr<CatalogTensor> T) {
  std::lock_guard<std::mutex> W(WriterMu);
  {
    std::lock_guard<std::mutex> L(Mu);
    ++WriteStats.Replaces;
  }
  return installLocked(std::move(T));
}

uint64_t TensorCatalog::putCsr(const std::string &Name, CsrMatrix<double> M,
                               Attr Row, Attr Col) {
  ETCH_ASSERT(Row < Col, "attributes must follow the global order");
  auto T = newVersion(Name, CatalogTensor::Kind::Csr, {Row, Col});
  T->Stats = statsOfCsr(Name, M, Row, Col);
  T->Csr = std::move(M);
  return replace(std::move(T));
}

uint64_t TensorCatalog::putSparse(const std::string &Name,
                                  SparseVector<double> V, Attr A) {
  auto T = newVersion(Name, CatalogTensor::Kind::Sparse, {A});
  T->Stats = statsOfSparseVector(Name, V, A);
  T->Sparse = std::move(V);
  return replace(std::move(T));
}

uint64_t TensorCatalog::putDense(const std::string &Name,
                                 DenseVector<double> V, Attr A) {
  auto T = newVersion(Name, CatalogTensor::Kind::Dense, {A});
  T->Stats = statsOfDenseVector(Name, V, A);
  T->Dense = std::move(V);
  return replace(std::move(T));
}

uint64_t TensorCatalog::appendCsr(const std::string &Name,
                                  const std::vector<CooEntry<double>> &Delta) {
  std::lock_guard<std::mutex> W(WriterMu);
  CatalogTensorRef Old = snapshot()->find(Name);
  if (!Old || Old->K != CatalogTensor::Kind::Csr)
    return 0;
  const CsrMatrix<double> &M = Old->Csr;
  for (const CooEntry<double> &E : Delta)
    if (E.Row < 0 || E.Row >= M.NumRows || E.Col < 0 || E.Col >= M.NumCols)
      return 0; // Client input: reject the whole batch, install nothing.
  // Sort only the delta; the predecessor is already row-major. One
  // two-pointer merge pass per row builds the successor, dropping sums
  // that cancel to exact zero.
  std::vector<CooEntry<double>> D = canonicalizeCoo(Delta);
  uint64_t Zeros = 0;
  CsrMatrix<double> Next;
  Next.NumRows = M.NumRows;
  Next.NumCols = M.NumCols;
  Next.Pos.assign(1, 0);
  Next.Pos.reserve(static_cast<size_t>(M.NumRows) + 1);
  Next.Crd.reserve(M.nnz() + D.size());
  Next.Val.reserve(M.nnz() + D.size());
  size_t DI = 0;
  for (Idx R = 0; R < M.NumRows; ++R) {
    size_t Q = M.Pos[static_cast<size_t>(R)];
    const size_t QEnd = M.Pos[static_cast<size_t>(R) + 1];
    while (Q < QEnd || (DI < D.size() && D[DI].Row == R)) {
      bool TakeDelta = DI < D.size() && D[DI].Row == R &&
                       (Q == QEnd || D[DI].Col <= M.Crd[Q]);
      if (TakeDelta && Q < QEnd && D[DI].Col == M.Crd[Q]) {
        double X = M.Val[Q] + D[DI].Val;
        if (X != 0.0) {
          Next.Crd.push_back(M.Crd[Q]);
          Next.Val.push_back(X);
        } else {
          ++Zeros;
        }
        ++Q;
        ++DI;
      } else if (TakeDelta) {
        Next.Crd.push_back(D[DI].Col);
        Next.Val.push_back(D[DI].Val);
        ++DI;
      } else {
        Next.Crd.push_back(M.Crd[Q]);
        Next.Val.push_back(M.Val[Q]);
        ++Q;
      }
    }
    Next.Pos.push_back(Next.Crd.size());
  }
  auto T = newVersion(Name, CatalogTensor::Kind::Csr, Old->Shp);
  T->Csr = std::move(Next);
  T->Stats = statsOfCsr(Name, T->Csr, Old->Shp[0], Old->Shp[1]);
  {
    std::lock_guard<std::mutex> L(Mu);
    ++WriteStats.Appends;
    WriteStats.DeltaNnz += D.size();
    WriteStats.MergedNnz += M.nnz();
    WriteStats.CompactedZeros += Zeros;
  }
  return installLocked(std::move(T));
}

uint64_t
TensorCatalog::appendSparse(const std::string &Name,
                            const std::vector<std::pair<Idx, double>> &Delta) {
  std::lock_guard<std::mutex> W(WriterMu);
  CatalogTensorRef Old = snapshot()->find(Name);
  if (!Old || Old->K != CatalogTensor::Kind::Sparse)
    return 0;
  const SparseVector<double> &V = Old->Sparse;
  for (const auto &E : Delta)
    if (E.first < 0 || E.first >= V.Size)
      return 0; // Client input: reject the whole batch, install nothing.
  // Canonicalize the delta, then merge the two sorted runs, dropping sums
  // that cancel to exact zero.
  std::vector<std::pair<Idx, double>> DC = canonicalizeSparse(Delta);
  uint64_t Zeros = 0;
  SparseVector<double> Next(V.Size);
  Next.Crd.reserve(V.nnz() + DC.size());
  Next.Val.reserve(V.nnz() + DC.size());
  size_t I = 0, J = 0;
  while (I < V.Crd.size() || J < DC.size()) {
    if (J == DC.size() || (I < V.Crd.size() && V.Crd[I] < DC[J].first)) {
      Next.push(V.Crd[I], V.Val[I]);
      ++I;
    } else if (I == V.Crd.size() || DC[J].first < V.Crd[I]) {
      Next.push(DC[J].first, DC[J].second);
      ++J;
    } else {
      double X = V.Val[I] + DC[J].second;
      if (X != 0.0)
        Next.push(V.Crd[I], X);
      else
        ++Zeros;
      ++I;
      ++J;
    }
  }
  auto T = newVersion(Name, CatalogTensor::Kind::Sparse, Old->Shp);
  T->Stats = statsOfSparseVector(Name, Next, Old->Shp[0]);
  T->Sparse = std::move(Next);
  {
    std::lock_guard<std::mutex> L(Mu);
    ++WriteStats.Appends;
    WriteStats.DeltaNnz += DC.size();
    WriteStats.MergedNnz += V.nnz();
    WriteStats.CompactedZeros += Zeros;
  }
  return installLocked(std::move(T));
}

CatalogStats TensorCatalog::stats() const {
  std::lock_guard<std::mutex> L(Mu);
  return WriteStats;
}

uint64_t TensorCatalog::erase(const std::string &Name) {
  std::lock_guard<std::mutex> W(WriterMu);
  CatalogSnapshotRef Cur = snapshot();
  auto Next = std::make_shared<CatalogSnapshot>(*Cur);
  Next->Epoch = Cur->epoch() + 1;
  Next->Tensors.erase(Name);
  std::lock_guard<std::mutex> L(Mu);
  Snap = std::move(Next);
  return Snap->epoch();
}
