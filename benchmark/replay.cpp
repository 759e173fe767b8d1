//===- benchmark/replay.cpp - Traced replay through the public layers -----===//

#include "replay.h"

#include "compiler/frontend.h"
#include "planner/plan.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>

using namespace etch;

namespace bench {

namespace fs = std::filesystem;

//===----------------------------------------------------------------------===//
// Tracer
//===----------------------------------------------------------------------===//

void Tracer::beginOp(uint32_t Op) {
  Recording = Enabled && Ops < MaxOps;
  if (!Recording)
    return;
  ++Ops;
  CurOp = Op;
  Cur = -1;
  if (Spans.capacity() == 0)
    Spans.reserve(1 << 20);
}

void Tracer::endOp() {
  Recording = false;
  Cur = -1;
}

int32_t Tracer::open(const char *Name) {
  if (!Recording)
    return -1;
  Span S;
  S.Start = nowNs();
  S.Name = Name;
  S.Parent = Cur;
  S.Op = CurOp;
  Spans.push_back(S);
  Cur = static_cast<int32_t>(Spans.size() - 1);
  return Cur;
}

void Tracer::close(int32_t I) {
  if (I < 0)
    return;
  Span &S = Spans[static_cast<size_t>(I)];
  S.End = nowNs();
  Cur = S.Parent;
}

bool Tracer::writeJsonLines(const std::string &Path) const {
  FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  int64_t T0 = Spans.empty() ? 0 : Spans.front().Start;
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(F,
                 "{\"op\":%u,\"span\":%zu,\"parent\":%d,\"name\":\"%s\","
                 "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 S.Op, I, S.Parent, S.Name,
                 static_cast<long long>(S.Start - T0),
                 static_cast<long long>(S.End - T0));
  }
  return std::fclose(F) == 0;
}

//===----------------------------------------------------------------------===//
// ReplayStack
//===----------------------------------------------------------------------===//

ReplayStack::ReplayStack(Tracer &T, const std::string &JitCacheDir) : T(T) {
  // The service's defaults (ServeOptions → PrepareOptions).
  PO.JitCacheDir = JitCacheDir;
  IvmOptions IO;
  IO.Prep.OptLevel = PO.OptLevel;
  IO.Prep.UseNative = PO.UseNative;
  IO.Prep.JitCacheDir = PO.JitCacheDir;
  Views = std::make_unique<MaintenanceDriver>(Catalog, Plans, std::move(IO));
}

ReplayStack::~ReplayStack() = default;

void ReplayStack::load(const TensorDef &D) {
  switch (D.K) {
  case CatalogTensor::Kind::Csr:
    Catalog.putCsr(D.Name, D.Csr, D.Row, D.Col);
    break;
  case CatalogTensor::Kind::Sparse:
    Catalog.putSparse(D.Name, D.Sparse, D.Row);
    break;
  case CatalogTensor::Kind::Dense:
    Catalog.putDense(D.Name, D.Dense, D.Row);
    break;
  }
  Plans.invalidateTensor(D.Name);
  Views->onReplace(D.Name, Catalog.snapshot());
}

bool ReplayStack::registerView(const ShapeDef &V, std::string *Err) {
  return Views->registerView(V.Name, V.Q.Tensors, Err);
}

std::string ReplayStack::key(const std::vector<std::string> &Names,
                             const CatalogSnapshot &Snap,
                             std::string *Err) const {
  // The service's key: shape, per-factor version, kind, and level formats.
  std::string K = "alg=f64;opt=" + std::to_string(PO.OptLevel) +
                  ";native=" + (PO.UseNative ? "1" : "0");
  for (const std::string &Name : Names) {
    CatalogTensorRef T = Snap.find(Name);
    if (!T) {
      *Err = "unknown tensor '" + Name + "'";
      return "";
    }
    K += "|" + Name + "@v" + std::to_string(T->Version) + "#k" +
         std::to_string(static_cast<int>(T->K));
    for (const LevelStat &LS : T->Stats.Levels)
      K += ":" + LS.A.name() + "/" + std::to_string(LS.Extent) + "/f" +
           std::to_string(static_cast<int>(LS.Kind));
  }
  return K;
}

CachedPlanRef ReplayStack::prepare(const std::string &Key,
                                   const std::vector<std::string> &Names,
                                   const CatalogSnapshotRef &Snap,
                                   bool Native, std::string *Err) {
  TensorResolver Resolve = snapshotResolver(Snap);
  std::map<std::string, CatalogTensorRef> Resolved;
  uint64_t MaxVersion = 0;
  std::optional<PlanQuery> PQ;
  {
    SpanScope S(T, "planner.extract");
    TypeContext Ctx;
    std::map<std::string, TensorStats> Stats;
    std::map<uint32_t, int64_t> Dims;
    for (const std::string &Name : Names) {
      if (Resolved.count(Name))
        continue;
      CatalogTensorRef Tn = Resolve(Name);
      if (!Tn) {
        *Err = "unknown tensor '" + Name + "'";
        return nullptr;
      }
      Resolved[Name] = Tn;
      Ctx[Name] = Tn->Shp;
      Stats[Name] = Tn->Stats;
      MaxVersion = std::max(MaxVersion, Tn->Version);
      for (const LevelStat &LS : Tn->Stats.Levels)
        Dims[LS.A.id()] = LS.Extent;
    }
    ExprPtr Prod;
    for (const std::string &Name : Names) {
      ExprPtr V = Expr::var(Name);
      Prod = Prod ? mulExpand(std::move(Prod), std::move(V), Ctx, Err)
                  : std::move(V);
      if (!Prod)
        return nullptr;
    }
    ExprPtr E = sumAll(std::move(Prod), Ctx, Err);
    if (!E)
      return nullptr;
    PQ = extractQuery(E, Ctx, Stats, Dims, Err);
  }
  if (!PQ)
    return nullptr;

  std::vector<Plan> Enumerated;
  {
    SpanScope S(T, "planner.enumerate");
    PlanOptions PlanOpts;
    PlanOpts.AllowHashed = PO.AllowHashed;
    Plans.countPlannerRun();
    Enumerated = enumeratePlans(*PQ, PlanOpts);
  }
  Counts.PlansEnumerated += Enumerated.size();
  if (Enumerated.empty()) {
    *Err = "no realizable attribute order";
    return nullptr;
  }
  const Plan &Best = Enumerated.front();

  auto CP = std::make_shared<CachedPlan>();
  LowerCtx LCtx;
  LCtx.OptLevel = PO.OptLevel;
  RealizedPlan RP;
  {
    SpanScope S(T, "planner.realize");
    RP = realizePlan(*PQ, Best, "srv");
    installPlan(LCtx, RP);
    CP->Key = Key;
    CP->Tensors = Names;
    CP->Tensors.erase(std::unique(CP->Tensors.begin(), CP->Tensors.end()),
                      CP->Tensors.end());
    CP->Epoch = MaxVersion;
    CP->PlannerCost = Best.cost();
    CP->Explain = Best.explain(*PQ);
    CP->OutVar = "out";
  }
  {
    SpanScope S(T, "compiler.lower");
    CP->Prog = compileFullContraction(LCtx, RP.E, CP->OutVar);
  }
  CP->Accesses = RP.Accesses;
  for (const PlanAccess &Acc : RP.Accesses) {
    CP->BoundVersions.push_back(0);
    CP->BoundKinds.push_back(static_cast<int>(Resolved.at(Acc.Tensor)->K));
  }
  {
    // A forced rebind of a fresh plan binds every access, exactly as
    // prepareContraction's bind loop does.
    SpanScope S(T, "bind.marshal");
    if (!rebindPlan(*CP, Resolve, /*Force=*/true, Err))
      return nullptr;
  }
  {
    SpanScope S(T, "bytecode.compile");
    CP->Bc = compileBytecode(CP->Prog);
  }
  if (!CP->Bc.ok()) {
    *Err = "bytecode compile error: " + CP->Bc.CompileError;
    return nullptr;
  }

  if (Native && jitToolchain().Available) {
    JitCacheStats Before = jitCacheStats();
    NativeKernelRef K;
    {
      SpanScope S(T, "jit.compile");
      JitOptions JO;
      JO.CacheDir = PO.JitCacheDir;
      std::string JitErr;
      K = jitCompile(CP->Prog, JO, &JitErr);
    }
    JitCacheStats After = jitCacheStats();
    ++Counts.JitCalls;
    Counts.JitCompiles += After.Compiles - Before.Compiles;
    Counts.JitCacheHits +=
        (After.MemHits - Before.MemHits) + (After.DiskHits - Before.DiskHits);
    if (K) {
      std::error_code Ec;
      uintmax_t Bytes =
          fs::file_size(fs::path(jitCacheDir(PO.JitCacheDir)) / (K->key() + ".c"),
                        Ec);
      if (!Ec)
        Counts.SourceBytes += Bytes;
      SpanScope S(T, "jit.native_bind");
      auto Call = std::make_unique<NativeCall>(K);
      std::string BindErr;
      if (Call->bind(CP->BoundMem, &BindErr)) {
        CP->Kernel = std::move(K);
        CP->Call = std::move(Call);
      }
    }
  }
  return CP;
}

QueryAnswer ReplayStack::query(const ServeQuery &Q) {
  QueryAnswer A;
  CatalogSnapshotRef Snap;
  {
    SpanScope S(T, "catalog.snapshot");
    Snap = Catalog.snapshot();
  }
  std::vector<std::string> Names;
  std::string Key;
  {
    SpanScope S(T, "serve.key");
    Names = Q.Tensors;
    std::sort(Names.begin(), Names.end());
    Key = key(Names, *Snap, &A.Error);
  }
  if (Key.empty())
    return A;

  CachedPlanRef P;
  {
    SpanScope S(T, "plancache.lookup");
    P = Plans.lookup(Key);
  }
  ++Counts.Lookups;
  if (P) {
    ++Counts.Hits;
  } else {
    ++Counts.Misses;
    {
      SpanScope S(T, "serve.miss");
      P = prepare(Key, Names, Snap, PO.UseNative, &A.Error);
    }
    if (!P)
      return A;
    {
      SpanScope S(T, "plancache.insert");
      P = Plans.insert(P);
    }
    std::erase_if(Prepared, [](const std::weak_ptr<CachedPlan> &W) {
      return W.expired();
    });
    Prepared.push_back(P);
    if ((Counts.Misses - 1) % 50 == 0)
      Pending = PendingCheck{Key, Names, Snap};
  }

  ExecOutcome O;
  {
    SpanScope S(T, "dispatch");
    O = executePlan(*P);
  }
  A.Ok = O.Ok;
  A.Error = O.Error;
  A.Value = O.Value;
  return A;
}

void ReplayStack::checkPending() {
  if (!Pending)
    return;
  PendingCheck C = std::move(*Pending);
  Pending.reset();
  // The JIT is off on both sides: each would end in the same jitCompile
  // call, and cc's run-to-run noise would swamp drift in everything else.
  PrepareOptions Direct = PO;
  Direct.UseNative = false;
  MissCounts Saved = Counts;
  std::vector<int64_t> DirectNs, ReplayNs;
  for (int I = 0; I < 5; ++I) {
    std::string Err;
    int64_t T0 = nowNs();
    bool Ok = prepareContraction(C.Key, C.Names, snapshotResolver(C.Snap),
                                 Direct, /*Cache=*/nullptr, &Err) != nullptr;
    int64_t T1 = nowNs();
    Ok = Ok && prepare(C.Key, C.Names, C.Snap, /*Native=*/false, &Err);
    int64_t T2 = nowNs();
    if (!Ok)
      break;
    DirectNs.push_back(T1 - T0);
    ReplayNs.push_back(T2 - T1);
  }
  Counts = std::move(Saved);
  if (DirectNs.size() < 5)
    return;
  auto medianMs = [](std::vector<int64_t> V) {
    std::nth_element(V.begin(), V.begin() + V.size() / 2, V.end());
    return static_cast<double>(V[V.size() / 2]) * 1e-6;
  };
  Counts.PrepareVsReplay.emplace_back(medianMs(DirectNs), medianMs(ReplayNs));
}

bool ReplayStack::append(const Write &W) {
  CatalogSnapshotRef Pre;
  {
    SpanScope S(T, "catalog.snapshot");
    Pre = Catalog.snapshot();
  }
  uint64_t E;
  {
    SpanScope S(T, "catalog.append");
    E = W.Csr.empty() ? Catalog.appendSparse(W.Tensor, W.Sparse)
                      : Catalog.appendCsr(W.Tensor, W.Csr);
  }
  if (!E)
    return false;
  {
    SpanScope S(T, "plancache.invalidate");
    Plans.invalidateTensor(W.Tensor);
  }
  CatalogSnapshotRef Post;
  {
    SpanScope S(T, "catalog.snapshot");
    Post = Catalog.snapshot();
  }
  {
    SpanScope S(T, "ivm.on_append");
    if (W.Csr.empty())
      Views->onAppendSparse(W.Tensor, W.Sparse, Pre, Post);
    else
      Views->onAppendCsr(W.Tensor, W.Csr, Pre, Post);
  }
  // Dropping the pre-append snapshot frees the superseded tensor version.
  SpanScope S(T, "catalog.release");
  Pre.reset();
  Post.reset();
  return true;
}

std::optional<ViewReading> ReplayStack::readView(const std::string &Name) {
  SpanScope S(T, "ivm.read");
  return Views->read(Name);
}

double ReplayStack::restatsMs(const std::string &Tensor) const {
  CatalogTensorRef Tn = Catalog.snapshot()->find(Tensor);
  if (!Tn)
    return 0.0;
  std::vector<int64_t> Ns;
  for (int I = 0; I < 3; ++I) {
    int64_t T0 = nowNs();
    TensorStats S = Tn->K == CatalogTensor::Kind::Csr
                        ? statsOfCsr(Tensor, Tn->Csr, Tn->Shp[0], Tn->Shp[1])
                        : statsOfSparseVector(Tensor, Tn->Sparse, Tn->Shp[0]);
    Ns.push_back(nowNs() - T0);
  }
  std::sort(Ns.begin(), Ns.end());
  return static_cast<double>(Ns[1]) * 1e-6;
}

uint64_t ReplayStack::boundBytes() const {
  uint64_t Bytes = 0;
  for (const std::weak_ptr<CachedPlan> &W : Prepared) {
    CachedPlanRef P = W.lock();
    if (!P)
      continue;
    for (const auto &[Name, Arr] : P->BoundMem.allArrays())
      Bytes += Arr.size() * sizeof(ImpValue);
  }
  return Bytes;
}

} // namespace bench
