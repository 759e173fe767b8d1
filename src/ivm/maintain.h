//===- ivm/maintain.h - Materialized-view maintenance driver ---*- C++ -*-===//
//
// Part of the etch project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The maintenance driver behind live materialized views: contraction
/// queries registered over `TensorCatalog` tensors whose stored results
/// are kept current by *delta* contraction instead of recomputation.
///
/// Two kinds of views:
///
///   - **Scalar views** — the serving layer's query shape (the full
///     contraction of a product of catalog tensors: SpMV totals, TPC-H
///     revenue, triangle counts). A batch Δ on factor `t` refreshes the
///     view through the delta-rewrite identity (ivm/delta.h): the driver
///     presents Δ as a synthetic catalog tensor `t~Δ` and runs
///     `Σ Δ·B·…` through the ordinary planner / formats / backends. A
///     factor occurring k times expands binomially — for m = 1..k the
///     contraction with m delta copies runs once and contributes with
///     coefficient C(k,m), which is exactly `(A+Δ)^k - A^k` —
///     so self-joins like triangle counts maintain exactly.
///   - **Grouped views** — group-bys: only part of the attribute set is
///     contracted and the view is relation-valued. These maintain at the
///     K-relation layer (`GroupedView`), whose pruning guarantees
///     deletions that cancel a weight to the semiring zero leave no
///     zombie tuple behind.
///
/// Delta plans are *retained* in the `PlanCache` (keyed on the view, not
/// on tensor versions) and refreshed by rebinding, so after the first
/// batch a refresh performs no planner enumeration and no compilation —
/// the PlanCache counters prove it. Every stored view state is held
/// bit-identical to full recomputation by the oracle tests and the
/// `etch-fuzz --delta` leg (exact-valued data; see ivm/delta.h for the
/// f64 caveat).
///
/// Thread-safety: mutators (`register*`, `onAppend*`, `onReplace`,
/// `onErase`, `recompute`) must be serialized by the caller — the service
/// runs them under its write lock. `read*` and `stats` are safe against
/// concurrent mutators.
///
//===----------------------------------------------------------------------===//

#ifndef ETCH_IVM_MAINTAIN_H
#define ETCH_IVM_MAINTAIN_H

#include "core/semiring.h"
#include "ivm/delta.h"
#include "serve/catalog.h"
#include "serve/plancache.h"
#include "serve/prepare.h"

#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace etch {

struct IvmOptions {
  /// Plan preparation knobs for view plans. `AllowHashed` is forced off
  /// and `Retain` forced on internally: retained plans are rebound across
  /// appends, and a hashed copy bakes a per-nnz table size.
  PrepareOptions Prep;
  /// Executor for view refreshes: Auto runs the plan's own executor; the
  /// fuzz leg forces Tree, with `Prep.UseNative` off.
  ExecBackend Backend = ExecBackend::Auto;
};

/// A consistent reading of a scalar view.
struct ViewReading {
  bool Ok = false;
  std::string Error;
  std::string Name;
  double Value = 0.0;
  uint64_t Epoch = 0; ///< Catalog epoch the value reflects.
  std::string Backend; ///< Executor of the last refresh.
};

struct MaintainStats {
  uint64_t ScalarViews = 0;
  uint64_t GroupedViews = 0;
  uint64_t Batches = 0;          ///< Append/delete batches observed.
  uint64_t DeltaRefreshes = 0;   ///< Scalar refreshes served by delta plans.
  uint64_t FullRecomputes = 0;   ///< Registration / replace recomputations.
  uint64_t DeltaPlanBuilds = 0;  ///< Delta plans prepared (planner ran).
  uint64_t DeltaPlanHits = 0;    ///< Delta dispatches on a retained plan.
  uint64_t GroupedRefreshes = 0; ///< Grouped-view delta applications.
  uint64_t EmptyBatches = 0;     ///< Batches that canonicalized to nothing.
};

/// Registers views over a catalog and folds every append/delete batch
/// into them. One driver per catalog; the `ContractionService` owns one
/// and routes its write path through the `on*` hooks.
class MaintenanceDriver {
public:
  MaintenanceDriver(TensorCatalog &Catalog, PlanCache &Plans,
                    IvmOptions Opts = {});
  ~MaintenanceDriver();

  /// Registers the scalar view `Name = Σ Π Factors` (duplicates allowed)
  /// and computes its initial value from the current snapshot. Fails on
  /// unknown factors or an unplannable query.
  bool registerView(const std::string &Name,
                    std::vector<std::string> Factors, std::string *Err);

  /// Registers the grouped view `Name = Σ_{attrs ∉ GroupBy} Π Factors`,
  /// maintained at the K-relation layer. Every attribute in \p GroupBy
  /// must occur in some factor's shape.
  bool registerGroupedView(const std::string &Name,
                           std::vector<std::string> Factors,
                           const Shape &GroupBy, std::string *Err);

  /// Drops a view (either kind) and its retained plans.
  bool unregister(const std::string &Name);

  std::vector<std::string> viewNames() const;

  /// Current value of a scalar view; nullopt when unknown.
  std::optional<ViewReading> read(const std::string &Name) const;

  /// Current relation of a grouped view; nullopt when unknown.
  std::optional<KRelation<F64Semiring>>
  readGrouped(const std::string &Name) const;

  /// Full recomputation of a scalar view from the *current* snapshot,
  /// without touching the stored value — the oracle `read` is held
  /// bit-identical to (under exact arithmetic). Runs on the view's
  /// retained refresh plan (rebound, planner-free).
  std::optional<ViewReading> recompute(const std::string &Name);

  /// Full recomputation of a grouped view from its maintained base.
  std::optional<KRelation<F64Semiring>>
  recomputeGrouped(const std::string &Name) const;

  /// Write-path hooks. \p Pre is the snapshot the batch was applied *to*
  /// (captured before the catalog installed it), \p Post the snapshot
  /// after: old factor occurrences bind Pre payloads, so multi-occurrence
  /// views expand `(A+Δ)^k` against the right A.
  void onAppendCsr(const std::string &Name,
                   const std::vector<CooEntry<double>> &Delta,
                   const CatalogSnapshotRef &Pre,
                   const CatalogSnapshotRef &Post);
  void onAppendSparse(const std::string &Name,
                      const std::vector<std::pair<Idx, double>> &Delta,
                      const CatalogSnapshotRef &Pre,
                      const CatalogSnapshotRef &Post);
  /// A load replaced \p Name wholesale: affected views rebuild their
  /// plans and recompute in full (a replacement has no delta).
  void onReplace(const std::string &Name, const CatalogSnapshotRef &Post);
  /// \p Name was erased: affected views enter an error state until a
  /// factor reappears via onReplace.
  void onErase(const std::string &Name, const CatalogSnapshotRef &Post);

  MaintainStats stats() const;

private:
  struct ScalarView {
    std::string Name;
    std::vector<std::string> Factors; ///< Sorted.
    bool Ok = false;
    std::string Error;
    double Value = 0.0;
    uint64_t Epoch = 0;
    std::string Backend;
    std::vector<std::string> PlanKeys; ///< Retained keys owned by the view.
  };
  struct Grouped {
    std::string Name;
    std::vector<std::string> Factors; ///< Sorted.
    Shape GroupBy;
    bool Ok = false;
    std::string Error;
    GroupedView<F64Semiring> View;
  };

  std::string planKey(const std::string &View, const std::string &Tag) const;
  /// Prepares (or rebinds) and runs the view's full-refresh plan against
  /// \p Snap; returns false with a diagnostic on failure.
  bool runFull(ScalarView &V, const CatalogSnapshotRef &Snap, double *Out,
               std::string *Backend, std::string *Err);
  void refreshScalar(ScalarView &V, const std::string &Tensor,
                     const CatalogTensorRef &DeltaT,
                     const CatalogSnapshotRef &Pre,
                     const CatalogSnapshotRef &Post);
  void replaceScalar(ScalarView &V, const CatalogSnapshotRef &Post);
  /// Builds the grouped view's expression and base context from \p Snap.
  bool buildGrouped(Grouped &G, const CatalogSnapshotRef &Snap,
                    std::string *Err);
  void onBatch(const std::string &Name, const CatalogTensorRef &DeltaT,
               const CatalogSnapshotRef &Pre, const CatalogSnapshotRef &Post);

  TensorCatalog &Catalog;
  PlanCache &Plans;
  IvmOptions Opts;

  mutable std::mutex Mu; ///< Guards the view tables and stats.
  std::map<std::string, ScalarView> Scalars;
  std::map<std::string, Grouped> Groups;
  MaintainStats Stats;
};

/// The synthetic catalog-tensor name a delta batch on \p Tensor is
/// resolved under. Stays a valid C identifier (the native emitter
/// requires it); registration rejects factor names that collide with it.
std::string deltaFactorName(const std::string &Tensor);

/// The canonicalized batch as a catalog tensor shaped like \p Base
/// (same kind, attrs, extents), with fresh stats — ready to resolve as a
/// plan factor. Returns null for an empty (fully cancelled) batch.
CatalogTensorRef deltaTensorCsr(const CatalogTensor &Base,
                                const std::vector<CooEntry<double>> &Delta);
CatalogTensorRef
deltaTensorSparse(const CatalogTensor &Base,
                  const std::vector<std::pair<Idx, double>> &Delta);

/// \p T's payload as a K-relation over its shape (the grouped-view and
/// fuzz oracle representation).
KRelation<F64Semiring> relationOf(const CatalogTensor &T);

} // namespace etch

#endif // ETCH_IVM_MAINTAIN_H
