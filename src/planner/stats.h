//===- planner/stats.h - Input statistics for the planner ------*- C++ -*-===//
//
// Part of the etch project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-tensor statistics the cost model consumes: total nonzeros plus, for
/// every storage level, the level's kind (dense/compressed/hashed), the
/// attribute extent, the number of *distinct* coordinates observed at that
/// attribute, and the average branching factor (children per distinct
/// parent prefix).
///
/// Distinct counts are per attribute, independent of the level's position
/// in the hierarchy, which makes every cost derived from them invariant
/// under attribute renaming and level permutation — the planner can score
/// an ordering without materializing the transposed tensor (the same idea
/// as cardinality estimation from column statistics in relational
/// optimizers, specialized to the level-format vocabulary of Section 7.3).
///
/// The counts are read off the stored levels (Chou et al., *Format
/// Abstraction*): fibers are non-empty `pos` segments, nnz is the innermost
/// `crd` length, and distinct counts take one flat pass over a `crd`.
/// Builders exist for every owning format in src/formats/ and for raw
/// coordinate tuples (the fuzzer's entry lists and relational edge lists).
///
//===----------------------------------------------------------------------===//

#ifndef ETCH_PLANNER_STATS_H
#define ETCH_PLANNER_STATS_H

#include "compiler/frontend.h"
#include "formats/csf.h"
#include "formats/levels.h"
#include "formats/matrices.h"
#include "formats/vectors.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

namespace etch {

/// Statistics for one storage level of a bound tensor.
struct LevelStat {
  Attr A;                                      ///< Attribute of this level.
  LevelSpec::Kind Kind = LevelSpec::Compressed; ///< Storage kind as bound.
  int64_t Extent = 0;   ///< Index-set size (the attribute's dimension).
  int64_t Distinct = 0; ///< Distinct coordinates observed at this attribute.
  double AvgFill = 0.0; ///< Mean children per distinct parent prefix.
};

/// Statistics for one bound tensor. Levels follow the stored hierarchy
/// order (outermost first); `Shp` of the matching TensorBinding.
struct TensorStats {
  std::string Name;
  int64_t Nnz = 0;
  std::vector<LevelStat> Levels;

  /// Whether the planner may schedule a transposed (level-permuted) copy of
  /// this tensor. Set by the builders for the two-level matrix formats
  /// (CSR/DCSR, via `transpose` / `fromCoo`); deeper formats would need a
  /// re-pack the repo does not provide yet.
  bool CanTranspose = false;

  /// Whether the planner may re-format this tensor's outer level as a
  /// hashed level (formats/levels.h): building the coordinate probe table
  /// is one pass over the entries. Set for single-level formats only
  /// (hashed levels are outermost-only).
  bool CanHash = false;
};

/// Distinct values among \p Crd, each in [0, \p Extent): a seen-array when
/// the extent is at most 8x the entry count, else a sort-unique of a copy,
/// so a hypersparse level never allocates in proportion to its extent.
int64_t countDistinct(const std::vector<Idx> &Crd, int64_t Extent);

/// Non-empty segments [Pos[i], Pos[i + 1]) of a level's `pos`.
inline int64_t nonEmptySegments(const std::vector<size_t> &Pos) {
  int64_t N = 0;
  for (size_t I = 1; I < Pos.size(); ++I)
    N += Pos[I] > Pos[I - 1];
  return N;
}

/// Statistics from counts read off canonical storage: \p Levels carry all
/// but AvgFill, and \p Fibers[L] counts the distinct coordinate prefixes
/// of length L + 1, so that AvgFill[L] is Fibers[L] / Fibers[L - 1].
TensorStats statsFromCounts(std::string Name, int64_t Nnz,
                            std::vector<LevelStat> Levels,
                            const std::vector<int64_t> &Fibers);

/// Statistics from in-extent coordinate tuples aligned with \p LevelAttrs
/// (\p Kinds and \p Extents are per level). Tuples may come in any order
/// and repeat: they are sorted by index and counted as the format builders
/// count, a repeat adding nothing. `Nnz` is `Tuples.size()`.
TensorStats statsFromTuples(std::string Name,
                            const std::vector<Attr> &LevelAttrs,
                            const std::vector<LevelSpec::Kind> &Kinds,
                            const std::vector<int64_t> &Extents,
                            const std::vector<Tuple> &Tuples);

/// Format-specific builders, mirroring the bind*/``*Binding`` helpers of
/// compiler/frontend.h. Each reads its own levels and expects canonical
/// storage: coordinates sorted and unique within every fiber, and no
/// empty fiber below a compressed level. A dense vector's entries are its
/// nonzeros (`-0.0` is zero).
template <typename M>
TensorStats statsOfMatrix(std::string Name, const M &X,
                          LevelSpec::Kind RowKind, Attr Row, Attr Col) {
  const int64_t Rows = nonEmptySegments(X.Pos), Nnz = X.nnz();
  const int64_t Cols = countDistinct(X.Crd, X.NumCols);
  TensorStats S = statsFromCounts(
      std::move(Name), Nnz,
      {{Row, RowKind, X.NumRows, Rows},
       {Col, LevelSpec::Compressed, X.NumCols, Cols}},
      {Rows, Nnz});
  S.CanTranspose = true;
  return S;
}

template <typename V>
TensorStats statsOfCsr(std::string Name, const CsrMatrix<V> &M, Attr Row,
                       Attr Col) {
  return statsOfMatrix(std::move(Name), M, LevelSpec::Dense, Row, Col);
}

template <typename V>
TensorStats statsOfDcsr(std::string Name, const DcsrMatrix<V> &M, Attr Row,
                        Attr Col) {
  return statsOfMatrix(std::move(Name), M, LevelSpec::Compressed, Row, Col);
}

/// One level holding \p N distinct coordinates; hashable unless dense.
inline TensorStats statsOfVector(std::string Name, LevelSpec::Kind Kind,
                                 Attr A, int64_t Extent, int64_t N) {
  TensorStats S =
      statsFromCounts(std::move(Name), N, {{A, Kind, Extent, N}}, {N});
  S.CanHash = Kind != LevelSpec::Dense;
  return S;
}

template <typename V>
TensorStats statsOfSparseVector(std::string Name, const SparseVector<V> &X,
                                Attr A) {
  return statsOfVector(std::move(Name), LevelSpec::Compressed, A, X.Size,
                       X.nnz());
}

template <typename V>
TensorStats statsOfHashedVector(std::string Name, const HashedVector<V> &X,
                                Attr A) {
  return statsOfVector(std::move(Name), LevelSpec::Hashed, A, X.Size, X.nnz());
}

template <typename V>
TensorStats statsOfDenseVector(std::string Name, const DenseVector<V> &X,
                               Attr A) {
  return statsOfVector(
      std::move(Name), LevelSpec::Dense, A, X.Size,
      std::count_if(X.Val.begin(), X.Val.end(), [](V Y) { return Y != V(); }));
}

template <typename V>
TensorStats statsOfCsf3(std::string Name, const CsfTensor3<V> &T, Attr I,
                        Attr J, Attr K) {
  const int64_t Is = nonEmptySegments(T.Pos0), Ijs = nonEmptySegments(T.Pos1),
                Nnz = T.Crd2.size();
  return statsFromCounts(
      std::move(Name), Nnz,
      {{I, LevelSpec::Compressed, T.DimI, Is},
       {J, LevelSpec::Compressed, T.DimJ, countDistinct(T.Crd1, T.DimJ)},
       {K, LevelSpec::Compressed, T.DimK, countDistinct(T.Crd2, T.DimK)}},
      {Is, Ijs, Nnz});
}

/// Renders one tensor's statistics on a single line, for EXPLAIN and the
/// CLI ("A: csr(i:10000, j:10000) nnz 200000 distinct(i)=9998 ...").
std::string statsToString(const TensorStats &S);

} // namespace etch

#endif // ETCH_PLANNER_STATS_H
