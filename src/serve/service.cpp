//===- serve/service.cpp - Concurrent contraction service -----------------===//

#include "serve/service.h"

#include "support/assert.h"

#include <algorithm>

using namespace etch;

ContractionService::ContractionService(ServeOptions O)
    : Opts(std::move(O)), Exec(Opts.Threads) {
  IvmOptions IO;
  IO.Prep.UseNative = Opts.UseNative;
  IO.Prep.JitCacheDir = Opts.JitCacheDir;
  Views = std::make_unique<MaintenanceDriver>(Catalog, Plans, std::move(IO));
}

//===----------------------------------------------------------------------===//
// Write-through mutations
//===----------------------------------------------------------------------===//

uint64_t ContractionService::loadCsr(const std::string &Name,
                                     CsrMatrix<double> M, Attr Row,
                                     Attr Col) {
  std::lock_guard<std::mutex> W(WriteMu);
  uint64_t E = Catalog.putCsr(Name, std::move(M), Row, Col);
  Plans.invalidateTensor(Name);
  Views->onReplace(Name, Catalog.snapshot());
  return E;
}

uint64_t ContractionService::loadSparse(const std::string &Name,
                                        SparseVector<double> V, Attr A) {
  std::lock_guard<std::mutex> W(WriteMu);
  uint64_t E = Catalog.putSparse(Name, std::move(V), A);
  Plans.invalidateTensor(Name);
  Views->onReplace(Name, Catalog.snapshot());
  return E;
}

uint64_t ContractionService::loadDense(const std::string &Name,
                                       DenseVector<double> V, Attr A) {
  std::lock_guard<std::mutex> W(WriteMu);
  uint64_t E = Catalog.putDense(Name, std::move(V), A);
  Plans.invalidateTensor(Name);
  Views->onReplace(Name, Catalog.snapshot());
  return E;
}

uint64_t
ContractionService::appendCsrLocked(const std::string &Name,
                                    const std::vector<CooEntry<double>> &Delta) {
  CatalogSnapshotRef Pre = Catalog.snapshot();
  uint64_t E = Catalog.appendCsr(Name, Delta);
  if (E) {
    Plans.invalidateTensor(Name);
    Views->onAppendCsr(Name, Delta, Pre, Catalog.snapshot());
  }
  return E;
}

uint64_t ContractionService::appendSparseLocked(
    const std::string &Name,
    const std::vector<std::pair<Idx, double>> &Delta) {
  CatalogSnapshotRef Pre = Catalog.snapshot();
  uint64_t E = Catalog.appendSparse(Name, Delta);
  if (E) {
    Plans.invalidateTensor(Name);
    Views->onAppendSparse(Name, Delta, Pre, Catalog.snapshot());
  }
  return E;
}

uint64_t
ContractionService::appendCsr(const std::string &Name,
                              const std::vector<CooEntry<double>> &Delta) {
  std::lock_guard<std::mutex> W(WriteMu);
  return appendCsrLocked(Name, Delta);
}

uint64_t ContractionService::appendSparse(
    const std::string &Name,
    const std::vector<std::pair<Idx, double>> &Delta) {
  std::lock_guard<std::mutex> W(WriteMu);
  return appendSparseLocked(Name, Delta);
}

uint64_t
ContractionService::deleteCsr(const std::string &Name,
                              const std::vector<std::pair<Idx, Idx>> &Coords) {
  std::lock_guard<std::mutex> W(WriteMu);
  CatalogTensorRef T = Catalog.snapshot()->find(Name);
  if (!T || T->K != CatalogTensor::Kind::Csr)
    return 0;
  std::vector<CooEntry<double>> Delta;
  for (const auto &[R, C] : Coords) {
    if (R < 0 || R >= T->Csr.NumRows)
      continue;
    for (size_t Q = T->Csr.Pos[static_cast<size_t>(R)];
         Q < T->Csr.Pos[static_cast<size_t>(R) + 1]; ++Q)
      if (T->Csr.Crd[Q] == C) {
        Delta.push_back({R, C, -T->Csr.Val[Q]});
        break;
      }
  }
  if (Delta.empty())
    return T->Version;
  return appendCsrLocked(Name, Delta);
}

uint64_t ContractionService::deleteSparse(const std::string &Name,
                                          const std::vector<Idx> &Coords) {
  std::lock_guard<std::mutex> W(WriteMu);
  CatalogTensorRef T = Catalog.snapshot()->find(Name);
  if (!T || T->K != CatalogTensor::Kind::Sparse)
    return 0;
  std::vector<std::pair<Idx, double>> Delta;
  for (Idx C : Coords) {
    auto It = std::lower_bound(T->Sparse.Crd.begin(), T->Sparse.Crd.end(), C);
    if (It != T->Sparse.Crd.end() && *It == C)
      Delta.emplace_back(
          C, -T->Sparse.Val[static_cast<size_t>(It - T->Sparse.Crd.begin())]);
  }
  if (Delta.empty())
    return T->Version;
  return appendSparseLocked(Name, Delta);
}

//===----------------------------------------------------------------------===//
// Views
//===----------------------------------------------------------------------===//

bool ContractionService::registerView(const std::string &Name,
                                      const ServeQuery &Q, std::string *Err) {
  std::lock_guard<std::mutex> W(WriteMu);
  return Views->registerView(Name, Q.Tensors, Err);
}

std::optional<ViewReading>
ContractionService::readView(const std::string &Name) const {
  return Views->read(Name);
}

bool ContractionService::unregisterView(const std::string &Name) {
  std::lock_guard<std::mutex> W(WriteMu);
  return Views->unregister(Name);
}

//===----------------------------------------------------------------------===//
// Keys
//===----------------------------------------------------------------------===//

std::optional<std::string>
ContractionService::makeKey(const ServeQuery &Q, const CatalogSnapshot &Snap,
                            std::string *Err) const {
  if (Q.Tensors.empty()) {
    if (Err)
      *Err = "empty query";
    return std::nullopt;
  }
  // Canonical factor order: f64 multiplication commutes bit-exactly, so
  // permuted requests may share one plan and one admission flight.
  std::vector<std::string> Names = Q.Tensors;
  std::sort(Names.begin(), Names.end());

  std::string K = "alg=f64;opt=" +
                  std::to_string(PrepareOptions().OptLevel) +
                  ";native=" + (Opts.UseNative ? "1" : "0");
  for (const std::string &Name : Names) {
    CatalogTensorRef T = Snap.find(Name);
    if (!T) {
      if (Err)
        *Err = "unknown tensor '" + Name + "'";
      return std::nullopt;
    }
    // The version pins data, stats, and extents; shape and per-level
    // storage kinds are spelled out so the key reads as the query shape
    // plus per-factor format selection.
    K += "|" + Name + "@v" + std::to_string(T->Version) + "#k" +
         std::to_string(static_cast<int>(T->K));
    for (size_t L = 0; L < T->Stats.Levels.size(); ++L) {
      const LevelStat &LS = T->Stats.Levels[L];
      K += ":" + LS.A.name() + "/" + std::to_string(LS.Extent) + "/f" +
           std::to_string(static_cast<int>(LS.Kind));
    }
  }
  return K;
}

//===----------------------------------------------------------------------===//
// Planning + compilation (the miss path)
//===----------------------------------------------------------------------===//

CachedPlanRef ContractionService::planAndCompile(const std::string &Key,
                                                 const ServeQuery &Q,
                                                 const CatalogSnapshotRef &Snap,
                                                 std::string *Err) {
  std::vector<std::string> Names = Q.Tensors;
  std::sort(Names.begin(), Names.end());
  PrepareOptions PO;
  PO.UseNative = Opts.UseNative;
  PO.JitCacheDir = Opts.JitCacheDir;
  return prepareContraction(Key, Names, snapshotResolver(Snap), PO, &Plans,
                            Err);
}

//===----------------------------------------------------------------------===//
// Execution + admission
//===----------------------------------------------------------------------===//

ServeResult ContractionService::execute(const std::string &Key,
                                        const ServeQuery &Q,
                                        const CatalogSnapshotRef &Snap) {
  ServeResult R;
  R.Epoch = Snap->epoch();

  CachedPlanRef P = Plans.lookup(Key);
  R.PlanCacheHit = P != nullptr;
  if (!P) {
    std::string Err;
    P = planAndCompile(Key, Q, Snap, &Err);
    if (!P) {
      R.Error = Err;
      return R;
    }
    P = Plans.insert(P);
  }

  ExecOutcome O = executePlan(*P);
  if (!O.Ok) {
    R.Error = O.Error;
    return R;
  }
  R.Value = O.Value;
  R.Backend = O.Backend;
  R.Ok = true;
  {
    std::lock_guard<std::mutex> SL(StatMu);
    ++Stats.Executions;
    if (R.Backend == "native")
      ++Stats.NativeRuns;
    else
      ++Stats.BytecodeRuns;
  }
  return R;
}

ServeResult ContractionService::admit(const ServeQuery &Q,
                                      const CatalogSnapshotRef &Snap) {
  {
    std::lock_guard<std::mutex> SL(StatMu);
    ++Stats.Queries;
  }
  std::string KeyErr;
  std::optional<std::string> Key = makeKey(Q, *Snap, &KeyErr);
  if (!Key) {
    ServeResult R;
    R.Epoch = Snap->epoch();
    R.Error = KeyErr;
    return R;
  }

  std::shared_ptr<Flight> F;
  bool Leader = false;
  {
    std::lock_guard<std::mutex> L(AdmMu);
    auto It = Inflight.find(*Key);
    if (It != Inflight.end()) {
      F = It->second;
    } else {
      F = std::make_shared<Flight>();
      Inflight.emplace(*Key, F);
      Leader = true;
    }
  }

  if (!Leader) {
    // Ride the in-flight execution: identical key means identical tensor
    // versions, so the leader's result is this request's result.
    std::unique_lock<std::mutex> L(F->Mu);
    F->Cv.wait(L, [&] { return F->Done; });
    ServeResult R = F->R;
    R.Coalesced = true;
    std::lock_guard<std::mutex> SL(StatMu);
    ++Stats.Coalesced;
    return R;
  }

  ServeResult R = execute(*Key, Q, Snap);
  {
    // Retire the flight before publishing: arrivals from here on start a
    // fresh execution instead of joining a completed one.
    std::lock_guard<std::mutex> L(AdmMu);
    Inflight.erase(*Key);
  }
  {
    std::lock_guard<std::mutex> L(F->Mu);
    F->R = R;
    F->Done = true;
  }
  F->Cv.notify_all();
  return R;
}

ServeResult ContractionService::query(const ServeQuery &Q) {
  return admit(Q, Catalog.snapshot());
}

ServeResult ContractionService::query(const ServeQuery &Q,
                                      const CatalogSnapshotRef &Snap) {
  ETCH_ASSERT(Snap, "null snapshot");
  return admit(Q, Snap);
}

std::vector<ServeResult>
ContractionService::queryBatch(const std::vector<ServeQuery> &Qs) {
  CatalogSnapshotRef Snap = Catalog.snapshot();
  std::vector<ServeResult> Out(Qs.size());

  // Group identical queries: one dispatch per group, results fanned back
  // out. Keys also dedupe against concurrent query() callers via admit().
  std::map<std::string, std::vector<size_t>> Groups;
  for (size_t I = 0; I < Qs.size(); ++I) {
    std::string KeyErr;
    std::optional<std::string> Key = makeKey(Qs[I], *Snap, &KeyErr);
    if (!Key) {
      Out[I].Epoch = Snap->epoch();
      Out[I].Error = KeyErr;
      std::lock_guard<std::mutex> SL(StatMu);
      ++Stats.Queries;
      continue;
    }
    Groups[*Key].push_back(I);
  }

  std::vector<const std::vector<size_t> *> Work;
  Work.reserve(Groups.size());
  for (const auto &[_, Idxs] : Groups)
    Work.push_back(&Idxs);

  Exec.parallelFor(Work.size(), [&](size_t G) {
    const std::vector<size_t> &Idxs = *Work[G];
    ServeResult R = admit(Qs[Idxs.front()], Snap);
    Out[Idxs.front()] = R;
    for (size_t J = 1; J < Idxs.size(); ++J) {
      Out[Idxs[J]] = R;
      Out[Idxs[J]].Coalesced = true;
    }
    if (Idxs.size() > 1) {
      std::lock_guard<std::mutex> SL(StatMu);
      Stats.Queries += Idxs.size() - 1;
      Stats.Coalesced += Idxs.size() - 1;
    }
  });
  return Out;
}

ServiceStats ContractionService::stats() const {
  std::lock_guard<std::mutex> SL(StatMu);
  return Stats;
}
