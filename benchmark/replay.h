//===- benchmark/replay.h - Traced replay through the public layers -*- C++ -*-===//
//
// Part of the etch project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced half of the benchmark. `ReplayStack` answers the same
/// operations the service does, by calling each layer's public functions in
/// the order `serve/service.cpp` and `serve/prepare.cpp` call them:
///
///   query:  catalog.snapshot → serve.key → plancache.lookup →
///           [serve.miss (planner.extract → planner.enumerate →
///            planner.realize → compiler.lower → bind.marshal →
///            bytecode.compile → jit.compile → jit.native_bind) →
///            plancache.insert] → dispatch
///   write:  catalog.snapshot → catalog.append → plancache.invalidate →
///           catalog.snapshot → ivm.on_append → catalog.release
///   view:   ivm.read
///
/// A `Tracer` records one span per step (name, start, end, parent span, op
/// id) in memory and writes them out as JSON lines at exit. Spans live in
/// the benchmark only; nothing inside the program is instrumented.
///
//===----------------------------------------------------------------------===//

#ifndef ETCH_BENCHMARK_REPLAY_H
#define ETCH_BENCHMARK_REPLAY_H

#include "workloads.h"

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace bench {

inline int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char *Name;
  int64_t Start = 0, End = 0;
  int32_t Parent = -1; ///< Index of the enclosing span, or -1.
  uint32_t Op = 0;
};

/// In-memory span recorder. Off, it records nothing and reads no clock.
class Tracer {
public:
  explicit Tracer(size_t MaxOps) : MaxOps(MaxOps) {}

  /// Starts operation \p Op; spans opened until endOp() belong to it.
  /// Recording stops for good once MaxOps operations have been traced.
  void beginOp(uint32_t Op);
  void endOp();
  void setEnabled(bool On) { Enabled = On; }

  /// Opens a span under the innermost open one; returns its index, or -1
  /// when not recording.
  int32_t open(const char *Name);
  void close(int32_t I);

  const std::vector<Span> &spans() const { return Spans; }
  bool writeJsonLines(const std::string &Path) const;

private:
  size_t MaxOps;
  size_t Ops = 0;
  bool Enabled = false;
  bool Recording = false;
  uint32_t CurOp = 0;
  int32_t Cur = -1;
  std::vector<Span> Spans;
};

class SpanScope {
public:
  SpanScope(Tracer &T, const char *Name) : T(T), I(T.open(Name)) {}
  ~SpanScope() { T.close(I); }
  SpanScope(const SpanScope &) = delete;
  SpanScope &operator=(const SpanScope &) = delete;

private:
  Tracer &T;
  int32_t I;
};

/// Counts the replayed miss path produces (spans give the times).
struct MissCounts {
  uint64_t Lookups = 0, Hits = 0, Misses = 0;
  uint64_t PlansEnumerated = 0;
  uint64_t SourceBytes = 0;   ///< Generated C per miss that compiled.
  uint64_t JitCalls = 0, JitCompiles = 0, JitCacheHits = 0;
  /// Every 50th miss is prepared again, alternately through
  /// prepareContraction and through the replayed stages, both with the JIT
  /// off; each pair holds the two median times in ms.
  std::vector<std::pair<double, double>> PrepareVsReplay;
};

struct QueryAnswer {
  bool Ok = false;
  std::string Error;
  double Value = 0.0;
};

/// A single-threaded service built from the public layer APIs.
class ReplayStack {
public:
  ReplayStack(Tracer &T, const std::string &JitCacheDir);
  ~ReplayStack();

  void load(const TensorDef &T);
  bool registerView(const ShapeDef &V, std::string *Err);
  QueryAnswer query(const etch::ServeQuery &Q);
  bool append(const Write &W);
  std::optional<etch::ViewReading> readView(const std::string &Name);

  /// Runs the prepareContraction cross-check queued by the last sampled
  /// miss. Call between operations, outside any op's timing.
  void checkPending();

  const MissCounts &counts() const { return Counts; }
  /// Bytes of BoundMem held by the live query plans.
  uint64_t boundBytes() const;
  etch::MaintainStats viewStats() const { return Views->stats(); }
  etch::CatalogStats catalogStats() const { return Catalog.stats(); }
  /// Median time (ms) of recomputing \p Tensor's planner statistics from
  /// its current version, as every append does for the whole tensor.
  double restatsMs(const std::string &Tensor) const;

private:
  std::string key(const std::vector<std::string> &Names,
                  const etch::CatalogSnapshot &Snap, std::string *Err) const;
  etch::CachedPlanRef prepare(const std::string &Key,
                              const std::vector<std::string> &Names,
                              const etch::CatalogSnapshotRef &Snap,
                              bool Native, std::string *Err);

  Tracer &T;
  etch::PrepareOptions PO;
  etch::TensorCatalog Catalog;
  etch::PlanCache Plans;
  std::unique_ptr<etch::MaintenanceDriver> Views;
  MissCounts Counts;
  std::vector<std::weak_ptr<etch::CachedPlan>> Prepared;

  struct PendingCheck {
    std::string Key;
    std::vector<std::string> Names;
    etch::CatalogSnapshotRef Snap;
  };
  std::optional<PendingCheck> Pending;
};

} // namespace bench

#endif // ETCH_BENCHMARK_REPLAY_H
