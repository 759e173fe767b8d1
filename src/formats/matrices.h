//===- formats/matrices.h - CSR / DCSR / CSC matrix storage ----*- C++ -*-===//
//
// Part of the etch project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Owning storage for sparse matrices as two-level hierarchies (Section 2.2
/// / Chou et al.'s level formats):
///
///   - CsrMatrix : dense rows over compressed columns (TACO's CSR);
///   - DcsrMatrix: compressed rows over compressed columns (doubly
///     compressed, for hypersparse matrices — the paper's `smul` bench);
///
/// Each exposes `stream()` returning a nested indexed stream
/// `row ->s col ->s V`; column-level SearchPolicy is a template knob.
/// Builders convert from coordinate (COO) form, and `toKRelation` produces
/// the oracle representation.
///
//===----------------------------------------------------------------------===//

#ifndef ETCH_FORMATS_MATRICES_H
#define ETCH_FORMATS_MATRICES_H

#include "core/krelation.h"
#include "formats/levels.h"
#include "streams/primitives.h"
#include "support/assert.h"

#include <algorithm>
#include <tuple>
#include <vector>

namespace etch {

/// A coordinate-form entry used by the builders.
template <typename V> struct CooEntry {
  Idx Row, Col;
  V Val;
};

/// Sorts COO entries row-major and sums duplicates (dropping zeros).
template <typename V>
std::vector<CooEntry<V>> canonicalizeCoo(std::vector<CooEntry<V>> Coo) {
  std::sort(Coo.begin(), Coo.end(), [](const auto &A, const auto &B) {
    return std::tie(A.Row, A.Col) < std::tie(B.Row, B.Col);
  });
  std::vector<CooEntry<V>> Out;
  for (const auto &E : Coo) {
    if (!Out.empty() && Out.back().Row == E.Row && Out.back().Col == E.Col)
      Out.back().Val += E.Val;
    else
      Out.push_back(E);
  }
  std::erase_if(Out, [](const auto &E) { return E.Val == V(); });
  return Out;
}

/// The sparse-vector counterpart: sorts (coordinate, value) entries by
/// coordinate and sums duplicates (dropping zeros).
template <typename V>
std::vector<std::pair<Idx, V>>
canonicalizeSparse(std::vector<std::pair<Idx, V>> Entries) {
  std::sort(Entries.begin(), Entries.end(),
            [](const auto &A, const auto &B) { return A.first < B.first; });
  std::vector<std::pair<Idx, V>> Out;
  for (const auto &E : Entries) {
    if (!Out.empty() && Out.back().first == E.first)
      Out.back().second += E.second;
    else
      Out.push_back(E);
  }
  std::erase_if(Out, [](const auto &E) { return E.second == V(); });
  return Out;
}

/// CSR: for each of NumRows rows, columns Pos[i]..Pos[i+1) of (Crd, Val).
template <typename V> struct CsrMatrix {
  Idx NumRows = 0, NumCols = 0;
  std::vector<size_t> Pos; // Length NumRows + 1.
  std::vector<Idx> Crd;
  std::vector<V> Val;

  CsrMatrix() = default;
  CsrMatrix(Idx NumRows, Idx NumCols)
      : NumRows(NumRows), NumCols(NumCols),
        Pos(static_cast<size_t>(NumRows) + 1, 0) {}

  size_t nnz() const { return Crd.size(); }

  static CsrMatrix fromCoo(Idx NumRows, Idx NumCols,
                           std::vector<CooEntry<V>> Coo) {
    CsrMatrix M(NumRows, NumCols);
    auto Sorted = canonicalizeCoo(std::move(Coo));
    std::vector<std::pair<std::array<Idx, 2>, V>> Entries;
    Entries.reserve(Sorted.size());
    for (const auto &E : Sorted)
      Entries.push_back({{E.Row, E.Col}, E.Val});
    auto Pack = packLevels<V, 2>({LevelKind::Dense, LevelKind::Compressed},
                                 {NumRows, NumCols}, Entries);
    M.Pos = std::move(Pack.Pos[1]);
    M.Crd = std::move(Pack.Crd[1]);
    M.Val = std::move(Pack.Val);
    return M;
  }

  /// A nested stream: dense row level over compressed column level.
  template <SearchPolicy P = SearchPolicy::Linear> auto stream() const {
    const Idx *CrdP = Crd.data();
    const V *ValP = Val.data();
    const size_t *PosP = Pos.data();
    auto Row = [CrdP, ValP, PosP](Idx R) {
      auto Leaf = [ValP](size_t Q) { return ValP[Q]; };
      return SparseStream<decltype(Leaf), P>(CrdP, PosP[R], PosP[R + 1],
                                             Leaf);
    };
    return DenseStream<decltype(Row)>(NumRows, Row);
  }

  template <Semiring S>
  KRelation<S> toKRelation(Attr RowA, Attr ColA) const {
    ETCH_ASSERT(RowA < ColA, "attribute order must match level order");
    KRelation<S> Rel(Shape{RowA, ColA});
    for (Idx R = 0; R < NumRows; ++R)
      for (size_t Q = Pos[R]; Q < Pos[R + 1]; ++Q)
        Rel.insert({R, Crd[Q]}, Val[Q]);
    Rel.pruneZeros();
    return Rel;
  }
};

/// Transposes a CSR matrix into CSR form (i.e. produces CSC of the input)
/// with a counting sort over columns: O(nnz + rows + cols), no COO detour.
/// Rows of the result are the columns of \p M, in increasing coordinate
/// order, so the result is canonical CSR.
template <typename V> CsrMatrix<V> transpose(const CsrMatrix<V> &M) {
  CsrMatrix<V> T(M.NumCols, M.NumRows);
  T.Crd.resize(M.nnz());
  T.Val.resize(M.nnz());
  // Count entries per column, then prefix-sum into Pos.
  for (Idx C : M.Crd)
    ++T.Pos[static_cast<size_t>(C) + 1];
  for (size_t C = 0; C < static_cast<size_t>(T.NumRows); ++C)
    T.Pos[C + 1] += T.Pos[C];
  // Scatter; a second cursor array tracks each column's write position.
  std::vector<size_t> Cur(T.Pos.begin(), T.Pos.end() - 1);
  for (Idx R = 0; R < M.NumRows; ++R)
    for (size_t Q = M.Pos[static_cast<size_t>(R)];
         Q < M.Pos[static_cast<size_t>(R) + 1]; ++Q) {
      size_t W = Cur[static_cast<size_t>(M.Crd[Q])]++;
      T.Crd[W] = R;
      T.Val[W] = M.Val[Q];
    }
  return T;
}

/// DCSR: compressed row level (RowCrd) over compressed column level.
template <typename V> struct DcsrMatrix {
  Idx NumRows = 0, NumCols = 0;
  std::vector<Idx> RowCrd;  // Nonempty rows, strictly increasing.
  std::vector<size_t> Pos;  // Length RowCrd.size() + 1.
  std::vector<Idx> Crd;
  std::vector<V> Val;

  size_t nnz() const { return Crd.size(); }

  static DcsrMatrix fromCoo(Idx NumRows, Idx NumCols,
                            std::vector<CooEntry<V>> Coo) {
    DcsrMatrix M;
    M.NumRows = NumRows;
    M.NumCols = NumCols;
    auto Sorted = canonicalizeCoo(std::move(Coo));
    std::vector<std::pair<std::array<Idx, 2>, V>> Entries;
    Entries.reserve(Sorted.size());
    for (const auto &E : Sorted)
      Entries.push_back({{E.Row, E.Col}, E.Val});
    auto Pack =
        packLevels<V, 2>({LevelKind::Compressed, LevelKind::Compressed},
                         {NumRows, NumCols}, Entries);
    M.RowCrd = std::move(Pack.Crd[0]);
    M.Pos = std::move(Pack.Pos[1]);
    M.Crd = std::move(Pack.Crd[1]);
    M.Val = std::move(Pack.Val);
    return M;
  }

  /// A nested stream: compressed rows over compressed columns. \p RowP and
  /// \p ColP pick the skip policy per level.
  template <SearchPolicy RowP = SearchPolicy::Linear,
            SearchPolicy ColP = SearchPolicy::Linear>
  auto stream() const {
    const Idx *CrdP = Crd.data();
    const V *ValP = Val.data();
    const size_t *PosP = Pos.data();
    auto Row = [CrdP, ValP, PosP](size_t RQ) {
      auto Leaf = [ValP](size_t Q) { return ValP[Q]; };
      return SparseStream<decltype(Leaf), ColP>(CrdP, PosP[RQ], PosP[RQ + 1],
                                                Leaf);
    };
    return SparseStream<decltype(Row), RowP>(RowCrd.data(), 0, RowCrd.size(),
                                             Row);
  }

  template <Semiring S>
  KRelation<S> toKRelation(Attr RowA, Attr ColA) const {
    ETCH_ASSERT(RowA < ColA, "attribute order must match level order");
    KRelation<S> Rel(Shape{RowA, ColA});
    for (size_t RQ = 0; RQ < RowCrd.size(); ++RQ)
      for (size_t Q = Pos[RQ]; Q < Pos[RQ + 1]; ++Q)
        Rel.insert({RowCrd[RQ], Crd[Q]}, Val[Q]);
    Rel.pruneZeros();
    return Rel;
  }
};

} // namespace etch

#endif // ETCH_FORMATS_MATRICES_H
