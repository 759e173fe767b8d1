//===- tests/stats_oracle.h - Brute-force planner statistics ----*- C++ -*-===//
//
// Part of the etch project.
//
//===----------------------------------------------------------------------===//
//
// A brute-force oracle for planner/stats.h, shared by the planner and serve
// tests: every coordinate and every coordinate prefix goes into a
// `std::set`, and the statistics are the set sizes. The builders under test
// count the same quantities off the stored levels; the oracle counts them
// off the entries, so the two agree only if the level counts are right.
//
//===----------------------------------------------------------------------===//

#ifndef ETCH_TESTS_STATS_ORACLE_H
#define ETCH_TESTS_STATS_ORACLE_H

#include "planner/stats.h"

#include <gtest/gtest.h>

#include <cstring>
#include <set>

namespace etch {

/// Statistics over \p Tuples (any order, repeats allowed) by set sizes:
/// Distinct is the distinct coordinates per level, AvgFill the distinct
/// prefixes of length L + 1 over those of length L, Nnz the tuple count.
inline TensorStats oracleStats(const std::vector<Attr> &Attrs,
                               const std::vector<LevelSpec::Kind> &Kinds,
                               const std::vector<int64_t> &Extents,
                               const std::vector<Tuple> &Tuples) {
  const size_t Order = Attrs.size();
  std::vector<std::set<Idx>> PerLevel(Order);
  std::vector<std::set<Tuple>> Prefixes(Order);
  for (const Tuple &T : Tuples)
    for (size_t L = 0; L < Order; ++L) {
      PerLevel[L].insert(T[L]);
      Prefixes[L].insert(Tuple(T.begin(), T.begin() + L + 1));
    }
  TensorStats S;
  S.Nnz = static_cast<int64_t>(Tuples.size());
  for (size_t L = 0; L < Order; ++L) {
    const double Parents =
        L == 0 ? 1.0 : static_cast<double>(Prefixes[L - 1].size());
    S.Levels.push_back(
        {Attrs[L], Kinds[L], Extents[L],
         static_cast<int64_t>(PerLevel[L].size()),
         Parents == 0.0 ? 0.0
                        : static_cast<double>(Prefixes[L].size()) / Parents});
  }
  return S;
}

inline uint64_t bitsOf(double X) {
  uint64_t B;
  std::memcpy(&B, &X, sizeof(B));
  return B;
}

/// Expects \p Got to equal \p Want field for field, AvgFill by bits.
inline void expectSameStats(const TensorStats &Got, const TensorStats &Want) {
  EXPECT_EQ(Got.Nnz, Want.Nnz);
  EXPECT_EQ(Got.CanTranspose, Want.CanTranspose);
  EXPECT_EQ(Got.CanHash, Want.CanHash);
  ASSERT_EQ(Got.Levels.size(), Want.Levels.size());
  for (size_t L = 0; L < Got.Levels.size(); ++L) {
    const LevelStat &G = Got.Levels[L], &W = Want.Levels[L];
    EXPECT_EQ(G.A, W.A) << "level " << L;
    EXPECT_EQ(G.Kind, W.Kind) << "level " << L;
    EXPECT_EQ(G.Extent, W.Extent) << "level " << L;
    EXPECT_EQ(G.Distinct, W.Distinct) << "level " << L;
    EXPECT_EQ(bitsOf(G.AvgFill), bitsOf(W.AvgFill))
        << "level " << L << ": " << G.AvgFill << " vs " << W.AvgFill;
  }
}

/// The stored entries of a CSR matrix as (row, col) tuples.
template <typename V> std::vector<Tuple> csrTuples(const CsrMatrix<V> &M) {
  std::vector<Tuple> Ts;
  for (Idx R = 0; R < M.NumRows; ++R)
    for (size_t Q = M.Pos[static_cast<size_t>(R)];
         Q < M.Pos[static_cast<size_t>(R) + 1]; ++Q)
      Ts.push_back({R, M.Crd[Q]});
  return Ts;
}

/// The stored coordinates of a one-level format as 1-tuples.
inline std::vector<Tuple> crdTuples(const std::vector<Idx> &Crd) {
  std::vector<Tuple> Ts;
  for (Idx C : Crd)
    Ts.push_back({C});
  return Ts;
}

} // namespace etch

#endif // ETCH_TESTS_STATS_ORACLE_H
