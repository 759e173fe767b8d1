//===- serve/catalog.h - Versioned tensor catalog with snapshots -*- C++ -*-===//
//
// Part of the etch project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serve layer's tensor store: a read-mostly catalog of named tensors
/// with copy-on-write snapshots. Readers call `snapshot()` and hold an
/// immutable, internally consistent view — every tensor in it carries the
/// version (epoch) that installed it and the planner statistics computed
/// at install time — while writers build the next epoch off to the side
/// and swap it in atomically. A query that planned and executed against
/// epoch E is unaffected by a concurrent load or append installing E+1;
/// the tensors themselves are shared (`shared_ptr<const CatalogTensor>`),
/// so a snapshot copy is one map copy, never a data copy.
///
/// Appends are COW at tensor granularity: `appendCsr` / `appendSparse`
/// build the successor payload by a *sorted merge* of the canonicalized
/// delta into the predecessor (K-relation addition: a batch of appends is
/// itself a K-relation — O(nnz + Δ log Δ), not a full re-sort) and
/// install it as a new version. Entries whose weights cancel to exact
/// zero are compacted away, so deletions (negative-weight deltas) leave
/// no zombie tuples. Old versions stay alive for as long as some snapshot
/// (or plan-cache entry) references them. `CatalogStats` surfaces the
/// per-append rebuild cost: how many predecessor entries each append
/// copied versus how many the delta actually touched.
///
//===----------------------------------------------------------------------===//

#ifndef ETCH_SERVE_CATALOG_H
#define ETCH_SERVE_CATALOG_H

#include "formats/matrices.h"
#include "formats/vectors.h"
#include "planner/stats.h"

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace etch {

/// One immutable version of one catalog tensor. Exactly one of the
/// payload members is populated, per `K`; `Stats` is derived from the
/// payload at install time so planning never rescans data.
struct CatalogTensor {
  enum class Kind { Csr, Sparse, Dense };

  std::string Name;
  Kind K = Kind::Sparse;
  uint64_t Version = 0; ///< Epoch that installed this version.
  Shape Shp;            ///< Attributes, outermost first.

  CsrMatrix<double> Csr;
  SparseVector<double> Sparse;
  DenseVector<double> Dense;

  TensorStats Stats;

  size_t nnz() const;
};

using CatalogTensorRef = std::shared_ptr<const CatalogTensor>;

/// An immutable view of the catalog at one epoch.
class CatalogSnapshot {
public:
  uint64_t epoch() const { return Epoch; }

  /// The tensor named \p Name, or null.
  CatalogTensorRef find(const std::string &Name) const;

  const std::map<std::string, CatalogTensorRef> &tensors() const {
    return Tensors;
  }

private:
  friend class TensorCatalog;
  uint64_t Epoch = 0;
  std::map<std::string, CatalogTensorRef> Tensors;
};

using CatalogSnapshotRef = std::shared_ptr<const CatalogSnapshot>;

/// Write-path cost counters. `MergedNnz / Appends` is the mean rebuild
/// cost of an append — the price of COW versioning the merge path keeps
/// at one linear pass (the old path paid an extra sort of the whole
/// payload through `fromCoo`).
struct CatalogStats {
  uint64_t Appends = 0;        ///< appendCsr + appendSparse calls accepted.
  uint64_t DeltaNnz = 0;       ///< Canonicalized delta entries merged in.
  uint64_t MergedNnz = 0;      ///< Predecessor entries copied by merges.
  uint64_t CompactedZeros = 0; ///< Entries cancelled to exact zero.
  uint64_t Replaces = 0;       ///< putCsr/putSparse/putDense installs.
};

/// The mutable catalog. Writers serialize against each other and publish
/// whole snapshots; readers never block writers beyond the pointer swap.
class TensorCatalog {
public:
  TensorCatalog();

  /// The current snapshot. O(1); the returned view never changes.
  CatalogSnapshotRef snapshot() const;

  /// The current epoch (monotonically increasing; bumped per mutation).
  uint64_t epoch() const { return snapshot()->epoch(); }

  /// Installs (or replaces) a tensor; returns the new epoch.
  uint64_t putCsr(const std::string &Name, CsrMatrix<double> M, Attr Row,
                  Attr Col);
  uint64_t putSparse(const std::string &Name, SparseVector<double> V, Attr A);
  uint64_t putDense(const std::string &Name, DenseVector<double> V, Attr A);

  /// COW append: merges the canonicalized \p Delta into \p Name (semiring
  /// addition on colliding coordinates, exact-zero sums dropped) and
  /// installs the result as a new version. Returns 0 and installs nothing
  /// if \p Name is absent or of another kind, or if any delta coordinate
  /// is outside its extents (client input: the whole batch is rejected).
  uint64_t appendCsr(const std::string &Name,
                     const std::vector<CooEntry<double>> &Delta);
  uint64_t appendSparse(const std::string &Name,
                        const std::vector<std::pair<Idx, double>> &Delta);

  /// Removes \p Name (no-op if absent). Returns the new epoch.
  uint64_t erase(const std::string &Name);

  CatalogStats stats() const;

private:
  uint64_t installLocked(std::shared_ptr<CatalogTensor> T);
  /// Installs a whole new version built outside the writer lock.
  uint64_t replace(std::shared_ptr<CatalogTensor> T);

  mutable std::mutex Mu; ///< Guards the snapshot pointer swap and stats.
  std::mutex WriterMu;   ///< Serializes writers; appends build under it.
  CatalogSnapshotRef Snap;
  CatalogStats WriteStats;
};

} // namespace etch

#endif // ETCH_SERVE_CATALOG_H
