//===- serve/service.h - Concurrent contraction service --------*- C++ -*-===//
//
// Part of the etch project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The long-lived serving layer over the whole stack: clients submit
/// contraction queries (a product of named catalog tensors, fully
/// contracted to a scalar) from any number of threads, and the service
/// answers them through three layers of amortization:
///
///   1. a snapshotted `TensorCatalog` — each query runs against one
///      consistent epoch while loads and appends install later epochs;
///   2. a `PlanCache` keyed on (query shape, per-factor storage format,
///      per-factor tensor version): a hit reuses the planner's chosen
///      order, the compiled program, the JIT'd native kernel, and the
///      marshaled input buffers — no enumeration, no compilation, no
///      rebinding;
///   3. an admission layer that coalesces identical in-flight queries:
///      concurrent requests for the same key ride one kernel dispatch and
///      fan the (immutable) result back out;
///   4. incremental view maintenance (src/ivm/): queries registered as
///      materialized views are refreshed per append by a *delta*
///      contraction over the batch instead of recomputation, on retained
///      plans that survive writes — `readView` then answers from the
///      stored value without dispatching anything.
///
/// Execution prefers the JIT-to-native backend (content-addressed kernel
/// cache, PR 7) and degrades to the bytecode VM per plan when no
/// toolchain is available — both produce bit-identical results, which the
/// serve tests and `bench_serve` verify against per-request serial
/// execution. Batch submission fans out over the PR-2 `ThreadPool`.
///
//===----------------------------------------------------------------------===//

#ifndef ETCH_SERVE_SERVICE_H
#define ETCH_SERVE_SERVICE_H

#include "ivm/maintain.h"
#include "serve/catalog.h"
#include "serve/plancache.h"
#include "serve/prepare.h"
#include "support/threadpool.h"

#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace etch {

/// A client request: the full contraction Σ (over every attribute) of the
/// product of the named catalog tensors. Factor order is irrelevant — the
/// service canonicalizes it (f64 multiplication commutes exactly), so
/// permuted requests share one plan-cache entry and one admission flight.
struct ServeQuery {
  std::vector<std::string> Tensors;
};

struct ServeResult {
  bool Ok = false;
  std::string Error;
  double Value = 0.0;
  uint64_t Epoch = 0;       ///< Snapshot epoch the execution ran against.
  bool PlanCacheHit = false;
  bool Coalesced = false;   ///< Served by riding another request's dispatch.
  std::string Backend;      ///< "native" or "bytecode".
};

/// Plans use the `PrepareOptions` defaults and a default-capacity cache.
struct ServeOptions {
  unsigned Threads = 0;    ///< Executor-pool lanes for batches (0 = hw).
  bool UseNative = true;   ///< JIT when a toolchain is available.
  std::string JitCacheDir; ///< Kernel-cache override (tests, benches).
};

struct ServiceStats {
  uint64_t Queries = 0;    ///< Requests admitted (incl. batch members).
  uint64_t Executions = 0; ///< Kernel dispatches actually performed.
  uint64_t Coalesced = 0;  ///< Requests served without their own dispatch.
  uint64_t NativeRuns = 0;
  uint64_t BytecodeRuns = 0;
};

class ContractionService {
public:
  explicit ContractionService(ServeOptions Opts = {});

  /// Catalog access for loading data. Prefer the write-through helpers
  /// below for mutations: they also invalidate superseded cached plans.
  TensorCatalog &catalog() { return Catalog; }
  CatalogSnapshotRef snapshot() const { return Catalog.snapshot(); }

  /// Write-through mutations: forward to the catalog, then drop cached
  /// plans reading the tensor (stale keys would only age out via LRU).
  /// An append the catalog rejects returns 0 and has no other effect: no
  /// plan is invalidated and no view is refreshed.
  uint64_t loadCsr(const std::string &Name, CsrMatrix<double> M, Attr Row,
                   Attr Col);
  uint64_t loadSparse(const std::string &Name, SparseVector<double> V,
                      Attr A);
  uint64_t loadDense(const std::string &Name, DenseVector<double> V, Attr A);
  uint64_t appendCsr(const std::string &Name,
                     const std::vector<CooEntry<double>> &Delta);
  uint64_t appendSparse(const std::string &Name,
                        const std::vector<std::pair<Idx, double>> &Delta);

  /// Deletions: remove the stored weight at the given coordinates by
  /// appending its negation (f64 is a ring), so views maintain through
  /// the same delta path and cancelled entries compact to nothing.
  /// Coordinates with no stored weight are ignored.
  uint64_t deleteCsr(const std::string &Name,
                     const std::vector<std::pair<Idx, Idx>> &Coords);
  uint64_t deleteSparse(const std::string &Name,
                        const std::vector<Idx> &Coords);

  /// Registers `Name = Σ Π Q.Tensors` as a live materialized view: the
  /// initial value computes now, and every append/delete batch folds in
  /// incrementally. Registration and writes serialize on the write lock.
  bool registerView(const std::string &Name, const ServeQuery &Q,
                    std::string *Err);
  /// The stored value of a view — no planner, no kernel, just a read.
  /// Consistent with the catalog: the reading's Epoch is the epoch of the
  /// last write folded in.
  std::optional<ViewReading> readView(const std::string &Name) const;
  bool unregisterView(const std::string &Name);

  /// The maintenance driver, for grouped (relation-valued) views and
  /// maintenance statistics. Mutating driver calls must not race the
  /// service write path.
  MaintenanceDriver &maintenance() { return *Views; }
  MaintainStats viewStats() const { return Views->stats(); }

  /// Answers \p Q against the current epoch (thread-safe; blocking).
  ServeResult query(const ServeQuery &Q);

  /// Answers \p Q against a pinned snapshot: the isolation primitive —
  /// results depend only on the tensor versions in \p Snap, bit-identical
  /// no matter what writers install concurrently.
  ServeResult query(const ServeQuery &Q, const CatalogSnapshotRef &Snap);

  /// Answers a batch against one consistent snapshot, grouping identical
  /// queries onto one dispatch each and fanning groups out over the
  /// executor pool. Results are index-aligned with \p Qs.
  std::vector<ServeResult> queryBatch(const std::vector<ServeQuery> &Qs);

  PlanCacheStats planStats() const { return Plans.stats(); }
  ServiceStats stats() const;

private:
  struct Flight {
    std::mutex Mu;
    std::condition_variable Cv;
    bool Done = false;
    ServeResult R;
  };

  /// Canonical plan/admission key for \p Q under \p Snap, or nullopt with
  /// a diagnostic when a factor is missing from the snapshot.
  std::optional<std::string> makeKey(const ServeQuery &Q,
                                     const CatalogSnapshot &Snap,
                                     std::string *Err) const;

  ServeResult admit(const ServeQuery &Q, const CatalogSnapshotRef &Snap);
  ServeResult execute(const std::string &Key, const ServeQuery &Q,
                      const CatalogSnapshotRef &Snap);
  CachedPlanRef planAndCompile(const std::string &Key, const ServeQuery &Q,
                               const CatalogSnapshotRef &Snap,
                               std::string *Err);
  uint64_t appendCsrLocked(const std::string &Name,
                           const std::vector<CooEntry<double>> &Delta);
  uint64_t appendSparseLocked(const std::string &Name,
                              const std::vector<std::pair<Idx, double>> &Delta);

  ServeOptions Opts;
  TensorCatalog Catalog;
  mutable PlanCache Plans;
  std::unique_ptr<MaintenanceDriver> Views;
  ThreadPool Exec;

  /// Serializes the write path end to end: capture the pre-append
  /// snapshot, install the batch, invalidate superseded plans, fold the
  /// batch into the views. Readers never take it.
  std::mutex WriteMu;

  std::mutex AdmMu;
  std::unordered_map<std::string, std::shared_ptr<Flight>> Inflight;

  mutable std::mutex StatMu;
  ServiceStats Stats;
};

} // namespace etch

#endif // ETCH_SERVE_SERVICE_H
