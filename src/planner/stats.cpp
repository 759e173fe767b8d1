//===- planner/stats.cpp - Input statistics for the planner ---------------===//
//
// Part of the etch project.
//
//===----------------------------------------------------------------------===//

#include "planner/stats.h"

#include "support/assert.h"

#include <algorithm>
#include <numeric>
#include <sstream>

namespace etch {

int64_t countDistinct(const std::vector<Idx> &Crd, int64_t Extent) {
  // A byte per extent slot costs no more than the sorted copy's eight
  // bytes per entry while the extent is within 8x the entry count.
  if (Extent <= 8 * static_cast<int64_t>(Crd.size())) {
    std::vector<uint8_t> Seen(static_cast<size_t>(Extent), 0);
    int64_t D = 0;
    for (Idx C : Crd) {
      ETCH_ASSERT(C >= 0 && C < Extent, "coordinate out of extent");
      D += !Seen[static_cast<size_t>(C)];
      Seen[static_cast<size_t>(C)] = 1;
    }
    return D;
  }
  std::vector<Idx> Copy = Crd;
  std::sort(Copy.begin(), Copy.end());
  return std::unique(Copy.begin(), Copy.end()) - Copy.begin();
}

TensorStats statsFromCounts(std::string Name, int64_t Nnz,
                            std::vector<LevelStat> Levels,
                            const std::vector<int64_t> &Fibers) {
  ETCH_ASSERT(Fibers.size() == Levels.size(),
              "one fiber count per level required");
  for (size_t L = 0; L < Levels.size(); ++L) {
    const double Parents = L == 0 ? 1.0 : static_cast<double>(Fibers[L - 1]);
    Levels[L].AvgFill =
        Parents == 0.0 ? 0.0 : static_cast<double>(Fibers[L]) / Parents;
  }
  return {std::move(Name), Nnz, std::move(Levels)};
}

TensorStats statsFromTuples(std::string Name,
                            const std::vector<Attr> &LevelAttrs,
                            const std::vector<LevelSpec::Kind> &Kinds,
                            const std::vector<int64_t> &Extents,
                            const std::vector<Tuple> &Tuples) {
  const size_t Order = LevelAttrs.size();
  ETCH_ASSERT(Kinds.size() == Order && Extents.size() == Order,
              "per-level vectors must agree in length");
  for (const Tuple &T : Tuples)
    ETCH_ASSERT(T.size() == Order, "tuple arity mismatch");
  // Canonical order by index, without copying a tuple. In that order an
  // entry opens a new fiber at every level from the first coordinate
  // where it differs from its predecessor on; a repeat opens none.
  std::vector<size_t> Ord(Tuples.size());
  std::iota(Ord.begin(), Ord.end(), size_t(0));
  std::sort(Ord.begin(), Ord.end(),
            [&](size_t A, size_t B) { return Tuples[A] < Tuples[B]; });
  std::vector<int64_t> Fibers(Order, Ord.empty() ? 0 : 1);
  for (size_t I = 1; I < Ord.size(); ++I) {
    const Tuple &P = Tuples[Ord[I - 1]], &T = Tuples[Ord[I]];
    size_t L = 0;
    while (L < Order && P[L] == T[L])
      ++L;
    for (; L < Order; ++L)
      ++Fibers[L];
  }
  std::vector<LevelStat> Levels;
  std::vector<Idx> Crd(Tuples.size());
  for (size_t L = 0; L < Order; ++L) {
    for (size_t I = 0; I < Tuples.size(); ++I)
      Crd[I] = Tuples[I][L];
    Levels.push_back({LevelAttrs[L], Kinds[L], Extents[L],
                      L == 0 ? Fibers[0] : countDistinct(Crd, Extents[L])});
  }
  return statsFromCounts(std::move(Name), static_cast<int64_t>(Tuples.size()),
                         std::move(Levels), Fibers);
}

std::string statsToString(const TensorStats &S) {
  std::ostringstream OS;
  OS << S.Name << ":";
  for (const LevelStat &L : S.Levels)
    OS << " "
       << (L.Kind == LevelSpec::Dense    ? "dense"
           : L.Kind == LevelSpec::Hashed ? "hashed"
                                         : "compressed")
       << "("
       << L.A.name() << ":" << L.Extent << ", distinct " << L.Distinct
       << ")";
  OS << " nnz " << S.Nnz;
  return OS.str();
}

} // namespace etch
