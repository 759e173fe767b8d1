//===- serve/plancache.h - LRU cache of planned, compiled queries -*- C++ -*-===//
//
// Part of the etch project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serve layer's plan cache. A key pins everything a cached execution
/// depends on: the query shape (factor names and their attribute
/// structure), each factor's per-level storage format, and each factor's
/// tensor *version* (the stats epoch that installed it) — so a hit is
/// correct by construction and performs no planner enumeration, no
/// compilation, and no rebinding. The value is the fully prepared
/// execution state: the realized plan's compiled `P` program and one
/// executor bound to the snapshot the plan was built against — either the
/// JIT'd native kernel with a marshaled-once `NativeCall`, or bytecode
/// with its input bindings.
///
/// Keying on per-tensor versions (instead of the global epoch) keeps the
/// hit rate high under mixed traffic: a write to tensor `A` invalidates
/// only plans that read `A`; plans over other tensors keep hitting.
/// Superseded entries are also dropped eagerly (`invalidateTensor`,
/// counted as Invalidations) so they do not occupy LRU capacity.
///
/// Correctness contract: Kovach et al.'s semantics guarantee every
/// enumerated plan computes the same contraction, so serving a cached
/// plan is an optimization choice, never a semantic one — the serve tests
/// hold cached-hit results bit-identical to cold per-request execution.
///
//===----------------------------------------------------------------------===//

#ifndef ETCH_SERVE_PLANCACHE_H
#define ETCH_SERVE_PLANCACHE_H

#include "compiler/bytecode.h"
#include "compiler/jit.h"
#include "planner/realize.h"

#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace etch {

/// Counters for the serving amortization story (and the >90%-hit-rate
/// acceptance gate). PlannerRuns counts actual `enumeratePlans` calls —
/// the "a hit performs no planner enumeration" verification hangs off it.
struct PlanCacheStats {
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t Evictions = 0;     ///< LRU-dropped past the capacity bound.
  uint64_t Invalidations = 0; ///< Dropped because a read tensor changed.
  uint64_t Retained = 0;      ///< Survived an invalidation (delta plans).
  uint64_t PlannerRuns = 0;   ///< enumeratePlans invocations (miss path).
  uint64_t Resident = 0;      ///< Entries currently cached.
};

/// One planned + compiled + bound query. Immutable after construction
/// except for the executor state (`Call` / `BoundMem` / the rebind
/// bookkeeping), which `ExecMu` serializes: a NativeCall's resident
/// buffers are single-dispatch, and a retained plan's inputs are
/// re-marshaled in place by `rebindPlan` between dispatches.
struct CachedPlan {
  std::string Key;
  std::vector<std::string> Tensors; ///< Factor names (for invalidation).
  uint64_t Epoch = 0;               ///< Snapshot epoch the plan was built at.
  double PlannerCost = 0.0;
  std::string Explain;
  std::string OutVar;
  /// A retained plan survives `invalidateTensor`: it is keyed on what it
  /// *is* (an IVM view's delta or refresh plan), not on the tensor
  /// versions it was bound against, and is refreshed by rebinding.
  bool Retain = false;

  PRef Prog;
  BytecodeProgram Bc;               ///< Empty on a native plan.
  NativeKernelRef Kernel;           ///< Null: execute on the bytecode VM.
  std::unique_ptr<NativeCall> Call; ///< Prepared native dispatch.
  VmMemory BoundMem;                ///< Bytecode inputs; empty if native.
  std::vector<PlanAccess> Accesses; ///< Realized accesses, for rebinding.
  std::vector<uint64_t> BoundVersions; ///< Version last bound, per access.
  std::vector<int> BoundKinds;      ///< CatalogTensor::Kind per access; a
                                    ///< rebind to a different kind fails
                                    ///< (the plan's levels are format-bound).
  std::mutex ExecMu;                ///< One dispatch at a time per entry.
};

using CachedPlanRef = std::shared_ptr<CachedPlan>;

/// Thread-safe LRU map from plan key to prepared execution state.
class PlanCache {
public:
  explicit PlanCache(size_t Cap = 128);

  /// The cached plan for \p Key, or null; counts Hits / Misses.
  CachedPlanRef lookup(const std::string &Key);

  /// Inserts \p P (keyed by P->Key), evicting past capacity. A racing
  /// insert of the same key keeps the incumbent and returns it, so all
  /// callers converge on one executor per key.
  CachedPlanRef insert(CachedPlanRef P);

  /// Drops every non-retained plan reading \p Tensor (counted as
  /// Invalidations); retained plans survive and count as Retained.
  void invalidateTensor(const std::string &Tensor);

  /// Drops the plan under \p Key regardless of retention (the IVM driver
  /// uses this when a view is unregistered or its plan must be rebuilt,
  /// e.g. after a load replaced a factor's storage kind).
  void erase(const std::string &Key);

  /// Counts one planner enumeration (called by the miss path only).
  void countPlannerRun();

  PlanCacheStats stats() const;

private:
  struct Slot {
    CachedPlanRef P;
    std::list<std::string>::iterator LruIt;
  };
  void touchLocked(Slot &S);
  void evictToCapLocked();

  mutable std::mutex Mu;
  size_t Cap;
  std::unordered_map<std::string, Slot> Map;
  std::list<std::string> Lru; ///< Most recent first.
  PlanCacheStats Stats;
};

} // namespace etch

#endif // ETCH_SERVE_PLANCACHE_H
