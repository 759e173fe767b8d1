//===- benchmark/main.cpp - The served-system benchmark --------------------===//
//
// Part of the etch project.
//
//===----------------------------------------------------------------------===//
//
// Runs one workload (workloads.h) against a `ContractionService` and prints
// its metrics; `run.py` builds this binary and drives it.
//
//   etch_serve_bench --workload W --seed N --seconds S --tmp DIR
//                    [--setup-only] [--trace FILE]
//
// A run sets the service up (timed: construction, loads, view
// registration, and one correct answer per shape into a cold kernel
// cache), warms up for 2 s untimed, then measures for --seconds. Every answer is
// compared bit for bit with the workload's oracle. With --trace the run
// then replays the same operations through the public layer functions
// (replay.h), checks the replay against the served answers, and reports the
// per-layer metrics; the spans go to FILE as JSON lines.
//
// The last line of stdout is one JSON object: correct, attempted, failed,
// and every metric measured, each with its unit. The exit code is nonzero
// when any answer was wrong or a gate failed.
//
//===----------------------------------------------------------------------===//

#include "replay.h"
#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string_view>
#include <thread>

#include <unistd.h>

using namespace etch;
using namespace bench;

namespace {

namespace fs = std::filesystem;

/// Untimed warm-up before every measured window.
constexpr int64_t WarmupNs = 2000000000;

struct Options {
  Kind K = Kind::ServeSmall;
  uint64_t Seed = 1;
  double Seconds = 15.0;
  bool SetupOnly = false;
  std::string TracePath;
  std::string TmpDir;
};

bool parseArgs(int Argc, char **Argv, Options &O) {
  bool HaveWorkload = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (A == "--setup-only") {
      O.SetupOnly = true;
      continue;
    }
    if (I + 1 >= Argc)
      return false;
    const char *V = Argv[++I];
    if (A == "--workload") {
      std::optional<Kind> K = parseKind(V);
      if (!K)
        return false;
      O.K = *K;
      HaveWorkload = true;
    } else if (A == "--seed") {
      O.Seed = std::strtoull(V, nullptr, 10);
    } else if (A == "--seconds") {
      O.Seconds = std::atof(V);
    } else if (A == "--trace") {
      O.TracePath = V;
    } else if (A == "--tmp") {
      O.TmpDir = V;
    } else {
      return false;
    }
  }
  return HaveWorkload && !O.TmpDir.empty() && O.Seconds > 0;
}

//===----------------------------------------------------------------------===//
// Statistics and reporting
//===----------------------------------------------------------------------===//

double nsToMs(int64_t Ns) { return static_cast<double>(Ns) * 1e-6; }

/// Nearest-rank percentile (\p Q in [0, 1]); 0 for an empty sample.
double percentile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t Rank =
      static_cast<size_t>(std::ceil(Q * static_cast<double>(V.size())));
  return V[std::clamp<size_t>(Rank, 1, V.size()) - 1];
}

/// A uniform sample of at most Cap latencies from a stream of any length
/// (reservoir sampling). Its memory is allocated and touched up front, so
/// the benchmark's own bookkeeping does not move peak RSS with throughput.
class Reservoir {
public:
  static constexpr size_t Cap = size_t(1) << 16;

  explicit Reservoir(uint64_t Seed) : Buf(Cap, 0.0), R(Seed) {}

  void add(double Ms) {
    if (Seen < Cap) {
      Buf[Seen] = Ms;
    } else if (uint64_t J = R.nextBelow(Seen + 1); J < Cap) {
      Buf[J] = Ms;
    }
    ++Seen;
  }
  uint64_t seen() const { return Seen; }
  size_t size() const { return static_cast<size_t>(std::min<uint64_t>(Seen, Cap)); }
  double at(size_t I) const { return Buf[I]; }

private:
  std::vector<double> Buf;
  uint64_t Seen = 0;
  Rng R;
};

/// Nearest-rank percentile over several reservoirs, each sample weighted by
/// how many operations of its stream it stands for.
double percentile(const std::vector<const Reservoir *> &Rs, double Q) {
  std::vector<std::pair<double, double>> V; // (latency, weight)
  double Total = 0.0;
  for (const Reservoir *R : Rs) {
    if (!R->size())
      continue;
    double W = double(R->seen()) / double(R->size());
    for (size_t I = 0; I < R->size(); ++I)
      V.emplace_back(R->at(I), W);
    Total += double(R->seen());
  }
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  double Need = std::max(Q * Total, 1e-9), Acc = 0.0;
  for (const auto &[Ms, W] : V)
    if ((Acc += W) >= Need)
      return Ms;
  return V.back().first;
}

uint64_t seen(const std::vector<const Reservoir *> &Rs) {
  uint64_t N = 0;
  for (const Reservoir *R : Rs)
    N += R->seen();
  return N;
}

double peakRssMib() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::atof(Line.c_str() + 6) / 1024.0;
  return 0.0;
}

/// Operations attempted and failed, with the first few failures' reasons.
struct Tally {
  uint64_t Attempted = 0, Failed = 0;
  std::vector<std::string> Reasons;

  void fail(std::string Why) {
    ++Failed;
    if (Reasons.size() < 5)
      Reasons.push_back(std::move(Why));
  }
  void merge(const Tally &O) {
    Attempted += O.Attempted;
    Failed += O.Failed;
    for (const std::string &R : O.Reasons)
      if (Reasons.size() < 5)
        Reasons.push_back(R);
  }
};

std::string mismatch(const std::string &What, double Got, double Want) {
  char Buf[160];
  std::snprintf(Buf, sizeof(Buf), "%s: got %.17g, want %.17g", What.c_str(),
                Got, Want);
  return Buf;
}

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

class Report {
public:
  void add(std::string Name, double Value, std::string Unit) {
    Metrics.push_back({std::move(Name), Value, std::move(Unit)});
  }
  void print() const {
    for (const Metric &M : Metrics)
      std::printf("  %-34s %14.6g %s\n", M.Name.c_str(), M.Value,
                  M.Unit.c_str());
  }
  std::string json() const {
    std::string S;
    char Buf[256];
    for (const Metric &M : Metrics) {
      std::snprintf(Buf, sizeof(Buf),
                    "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    S.empty() ? "" : ", ", M.Name.c_str(),
                    std::isfinite(M.Value) ? M.Value : 0.0, M.Unit.c_str());
      S += Buf;
    }
    return "{" + S + "}";
  }

private:
  std::vector<Metric> Metrics;
};

/// A fresh, empty directory under \p Root.
std::string freshDir(const std::string &Root, const std::string &Tag) {
  static int Counter = 0;
  fs::path P = fs::path(Root) / (Tag + "-" + std::to_string(getpid()) + "-" +
                                 std::to_string(Counter++));
  std::error_code Ec;
  fs::remove_all(P, Ec);
  fs::create_directories(P, Ec);
  return P.string();
}

//===----------------------------------------------------------------------===//
// Set-up
//===----------------------------------------------------------------------===//

/// Builds a service and brings it to its first correct answer for every
/// shape and view; \p Seconds gets the time from construction to there.
std::unique_ptr<ContractionService> setUp(const Workload &WL,
                                          const std::string &JitDir,
                                          double *Seconds, Tally &T) {
  int64_t T0 = nowNs();
  ServeOptions SO;
  SO.Threads = 1; // The executor pool serves queryBatch only; keep it small.
  SO.JitCacheDir = JitDir;
  auto Svc = std::make_unique<ContractionService>(SO);
  WL.load(*Svc);
  for (const ShapeDef &V : WL.views()) {
    std::string Err;
    ++T.Attempted;
    if (!Svc->registerView(V.Name, V.Q, &Err))
      T.fail("register " + V.Name + ": " + Err);
  }
  for (const ShapeDef &S : WL.shapes()) {
    ++T.Attempted;
    ServeResult R = Svc->query(S.Q);
    if (!R.Ok)
      T.fail(S.Name + ": " + R.Error);
    else if (!sameBits(R.Value, WL.reference(S.Name)))
      T.fail(mismatch(S.Name, R.Value, WL.reference(S.Name)));
  }
  for (const ShapeDef &V : WL.views()) {
    ++T.Attempted;
    std::optional<ViewReading> R = Svc->readView(V.Name);
    if (!R || !R->Ok)
      T.fail("view " + V.Name + " unreadable");
    else if (!sameBits(R->Value, WL.reference(V.Name)))
      T.fail(mismatch(V.Name, R->Value, WL.reference(V.Name)));
  }
  *Seconds = nsToMs(nowNs() - T0) * 1e-3;
  return Svc;
}

//===----------------------------------------------------------------------===//
// The served run
//===----------------------------------------------------------------------===//

/// An answer the served run gave: (shape or view, writes applied) → value.
/// The replay must give the same.
using AnswerLog = std::map<std::pair<std::string, uint64_t>, double>;

/// What the measured window recorded. Every latency stream has one
/// reservoir per thread that feeds it, allocated before the run starts.
struct ServedRun {
  explicit ServedRun(const Workload &WL, size_t Threads) {
    uint64_t Seed = 1;
    for (const ShapeDef &S : WL.shapes())
      for (size_t T = 0; T < Threads; ++T)
        ByShape[S.Name].emplace_back(Seed++);
    for (size_t T = 0; T < Threads; ++T) {
      Views.emplace_back(Seed++);
      Late.emplace_back(Seed++);
    }
    Writes.emplace_back(Seed++);
  }

  std::vector<const Reservoir *> queries() const {
    std::vector<const Reservoir *> Rs;
    for (const auto &[_, V] : ByShape)
      for (const Reservoir &R : V)
        Rs.push_back(&R);
    return Rs;
  }
  static std::vector<const Reservoir *> all(const std::vector<Reservoir> &V) {
    std::vector<const Reservoir *> Rs;
    for (const Reservoir &R : V)
      Rs.push_back(&R);
    return Rs;
  }

  Tally T;
  std::map<std::string, std::vector<Reservoir>> ByShape; ///< Query latency.
  std::vector<Reservoir> Views;  ///< View-read latency, in µs.
  std::vector<Reservoir> Late;   ///< Open loop: the generator's wake-up delay.
  std::vector<Reservoir> Writes; ///< Write latency.
  uint64_t Ops = 0;              ///< Closed-loop operations completed.
  double OpsSeconds = 0.0;
  double ReadsPerWrite = 0.0; ///< ingest_views: reader ops per write.
  AnswerLog Answers;
  std::vector<std::string> GateFailures;
  ServiceStats SS;
  PlanCacheStats PS;
};

/// serve_small / serve_large: two closed-loop clients, shapes drawn
/// uniformly from the seed.
void runServe(const Options &O, const Workload &WL, ContractionService &Svc,
              int64_t MeasureStart, int64_t Deadline, ServedRun &Out) {
  const std::vector<ShapeDef> &Shapes = WL.shapes();
  std::vector<double> Refs;
  for (const ShapeDef &S : Shapes)
    Refs.push_back(WL.reference(S.Name));
  struct Client {
    uint64_t Ops = 0;
    int64_t LastEnd = 0;
    Tally T;
  };
  std::vector<Client> Cs(2);
  std::vector<std::thread> Ts;
  for (size_t C = 0; C < Cs.size(); ++C)
    Ts.emplace_back([&, C] {
      Client &Me = Cs[C];
      std::vector<Reservoir *> Lat;
      for (const ShapeDef &S : Shapes)
        Lat.push_back(&Out.ByShape.at(S.Name)[C]);
      Rng R(O.Seed * 7919 + C + 1);
      for (;;) {
        int64_t Start = nowNs();
        if (Start >= Deadline)
          break;
        size_t S = static_cast<size_t>(R.nextBelow(Shapes.size()));
        ServeResult Res = Svc.query(Shapes[S].Q);
        int64_t End = nowNs();
        ++Me.T.Attempted;
        if (!Res.Ok)
          Me.T.fail(Shapes[S].Name + ": " + Res.Error);
        else if (!sameBits(Res.Value, Refs[S]))
          Me.T.fail(mismatch(Shapes[S].Name, Res.Value, Refs[S]));
        if (Start >= MeasureStart) {
          Lat[S]->add(nsToMs(End - Start));
          Me.LastEnd = End;
          ++Me.Ops;
        }
      }
    });
  for (std::thread &T : Ts)
    T.join();
  int64_t LastEnd = MeasureStart;
  for (const Client &C : Cs) {
    Out.T.merge(C.T);
    Out.Ops += C.Ops;
    LastEnd = std::max(LastEnd, C.LastEnd);
  }
  Out.OpsSeconds = nsToMs(LastEnd - MeasureStart) * 1e-3;
  for (size_t S = 0; S < Shapes.size(); ++S)
    Out.Answers[{Shapes[S].Name, 0}] = Refs[S];
}

/// The readers' op cycle on ingest_views: view reads and queries on shapes
/// that do not read A. Index < 0 names a view (-1 - view index).
const std::vector<int> &readerCycle() {
  static const std::vector<int> Cycle = {-1, 0, -2, 1};
  return Cycle;
}

/// ingest_views: one closed-loop writer plus two open-loop readers at
/// 1000 ops/s each. A read that was due while its reader was still busy
/// with the previous one is timed from its due time, so a stall counts
/// against every request it delays; otherwise it is timed from when the
/// reader started it, and any delay past the due time is reported as
/// generator lateness instead of read latency.
void runIngest(Workload &WL, ContractionService &Svc, int64_t Begin,
               int64_t MeasureStart, int64_t Deadline, ServedRun &Out) {
  const std::vector<ShapeDef> &Shapes = WL.shapes(), &Views = WL.views();
  std::vector<double> ShapeRefs;
  for (const ShapeDef &S : Shapes)
    ShapeRefs.push_back(WL.reference(S.Name));

  // Written by the writer only: epoch → (writes applied, view references).
  std::map<uint64_t, std::pair<uint64_t, std::vector<double>>> ByEpoch;
  auto viewRefs = [&] {
    std::vector<double> R;
    for (const ShapeDef &V : Views)
      R.push_back(WL.reference(V.Name));
    return R;
  };
  if (std::optional<ViewReading> R = Svc.readView(Views.front().Name))
    ByEpoch[R->Epoch] = {0, viewRefs()};
  MaintainStats WarmMS;
  PlanCacheStats WarmPS;
  bool Warmed = false;
  Tally WriterT;
  int64_t WriterLastEnd = MeasureStart;
  std::thread Writer([&] {
    for (uint64_t I = 0; nowNs() < Deadline; ++I) {
      Write W = WL.write(I);
      int64_t Start = nowNs();
      if (!Warmed && Start >= MeasureStart) {
        WarmMS = Svc.viewStats();
        WarmPS = Svc.planStats();
        Warmed = true;
      }
      uint64_t E = Svc.appendCsr(W.Tensor, W.Csr);
      int64_t End = nowNs();
      ++WriterT.Attempted;
      if (!E) {
        WriterT.fail("append rejected");
        break;
      }
      WL.apply(W);
      ByEpoch[E] = {I + 1, viewRefs()};
      if (Start >= MeasureStart) {
        Out.Writes[0].add(nsToMs(End - Start));
        WriterLastEnd = End;
        ++Out.Ops;
      }
    }
  });

  struct ViewSample {
    size_t View;
    uint64_t Epoch;
    double Value;
  };
  struct Reader {
    std::vector<ViewSample> Readings;
    Tally T;
  };
  std::vector<Reader> Rs(2);
  std::vector<std::thread> Ts;
  for (size_t RI = 0; RI < Rs.size(); ++RI)
    Ts.emplace_back([&, RI] {
      Reader &Me = Rs[RI];
      const int64_t Period = 1000000; // 1000 ops/s per reader.
      const int64_t Offset = static_cast<int64_t>(RI) * Period / 2;
      const std::vector<int> &Cycle = readerCycle();
      int64_t PrevEnd = 0;
      for (int64_t K = 0;; ++K) {
        int64_t Due = Begin + Offset + K * Period;
        if (Due >= Deadline)
          break;
        // Spin rather than sleep: a sleeping vCPU wakes tens of µs late
        // and with cold caches, which would swamp reads that take µs.
        while (nowNs() < Due) {
        }
        int64_t Start = nowNs();
        int64_t From = PrevEnd > Due ? Due : Start;
        int Op = Cycle[static_cast<size_t>(K) % Cycle.size()];
        ++Me.T.Attempted;
        int64_t End;
        if (Op < 0) {
          size_t V = static_cast<size_t>(-1 - Op);
          std::optional<ViewReading> R = Svc.readView(Views[V].Name);
          End = nowNs();
          if (!R || !R->Ok)
            Me.T.fail("view " + Views[V].Name + " unreadable");
          else
            Me.Readings.push_back({V, R->Epoch, R->Value});
          if (Due >= MeasureStart)
            Out.Views[RI].add(nsToMs(End - From) * 1e3);
        } else {
          size_t S = static_cast<size_t>(Op);
          ServeResult R = Svc.query(Shapes[S].Q);
          End = nowNs();
          if (!R.Ok)
            Me.T.fail(Shapes[S].Name + ": " + R.Error);
          else if (!sameBits(R.Value, ShapeRefs[S]))
            Me.T.fail(mismatch(Shapes[S].Name, R.Value, ShapeRefs[S]));
          if (Due >= MeasureStart)
            Out.ByShape.at(Shapes[S].Name)[RI].add(nsToMs(End - From));
        }
        if (Due >= MeasureStart)
          Out.Late[RI].add(nsToMs(Start - std::max(Due, PrevEnd)));
        PrevEnd = End;
      }
    });
  for (std::thread &T : Ts)
    T.join();
  Writer.join();

  Out.T.merge(WriterT);
  uint64_t ReaderOps = 0;
  for (const Reader &R : Rs) {
    Out.T.merge(R.T);
    ReaderOps += R.T.Attempted;
    // Every view reading must equal the oracle at the epoch it reports.
    for (const ViewSample &S : R.Readings) {
      auto It = ByEpoch.find(S.Epoch);
      if (It == ByEpoch.end()) {
        Out.T.fail("view " + Views[S.View].Name + " at unknown epoch " +
                   std::to_string(S.Epoch));
        continue;
      }
      double Want = It->second.second[S.View];
      if (!sameBits(S.Value, Want))
        Out.T.fail(mismatch(Views[S.View].Name + " @" +
                                std::to_string(S.Epoch),
                            S.Value, Want));
      Out.Answers[{Views[S.View].Name, It->second.first}] = S.Value;
    }
  }
  Out.OpsSeconds = nsToMs(WriterLastEnd - MeasureStart) * 1e-3;
  Out.ReadsPerWrite =
      double(ReaderOps) / double(std::max<uint64_t>(1, WriterT.Attempted));
  for (size_t S = 0; S < Shapes.size(); ++S)
    Out.Answers[{Shapes[S].Name, 0}] = ShapeRefs[S];

  // Retained delta plans make the write path planner-free after warm-up.
  MaintainStats MS = Svc.viewStats();
  PlanCacheStats PS = Svc.planStats();
  if (!Warmed)
    Out.GateFailures.push_back("no write landed after warm-up");
  else if (MS.DeltaPlanBuilds != WarmMS.DeltaPlanBuilds ||
           PS.PlannerRuns != WarmPS.PlannerRuns)
    Out.GateFailures.push_back(
        "delta plans rebuilt after warm-up (" +
        std::to_string(WarmMS.DeltaPlanBuilds) + " -> " +
        std::to_string(MS.DeltaPlanBuilds) + " builds, planner runs " +
        std::to_string(WarmPS.PlannerRuns) + " -> " +
        std::to_string(PS.PlannerRuns) + ")");
}

/// replan: append one entry to x, then query A·x or x·d in turn.
void runReplan(Workload &WL, ContractionService &Svc, int64_t MeasureStart,
               int64_t Deadline, ServedRun &Out) {
  const std::vector<ShapeDef> &Shapes = WL.shapes();
  int64_t LastEnd = MeasureStart;
  for (uint64_t I = 0; nowNs() < Deadline; ++I) {
    Write W = WL.write(I);
    int64_t Start = nowNs();
    uint64_t E = Svc.appendSparse(W.Tensor, W.Sparse);
    int64_t Mid = nowNs();
    Out.T.Attempted += 2;
    if (!E) {
      Out.T.fail("append rejected");
      break;
    }
    WL.apply(W);
    const ShapeDef &S = Shapes[I % Shapes.size()];
    int64_t QStart = nowNs();
    ServeResult R = Svc.query(S.Q);
    int64_t End = nowNs();
    double Want = WL.reference(S.Name);
    if (!R.Ok)
      Out.T.fail(S.Name + ": " + R.Error);
    else if (!sameBits(R.Value, Want))
      Out.T.fail(mismatch(S.Name, R.Value, Want));
    Out.Answers[{S.Name, I + 1}] = R.Value;
    if (Start >= MeasureStart) {
      Out.Writes[0].add(nsToMs(Mid - Start));
      Out.ByShape.at(S.Name)[0].add(nsToMs(End - QStart));
      LastEnd = End;
      ++Out.Ops;
    }
  }
  Out.OpsSeconds = nsToMs(LastEnd - MeasureStart) * 1e-3;
}

/// The end-to-end metrics of the served run, plus the per-shape rows.
void reportServed(const Workload &WL, const ServedRun &Srv, Report &Rep) {
  std::printf("per-shape query latency (ms):\n  %-8s %10s %10s %10s %10s\n",
              "shape", "samples", "p50", "p90", "p99");
  double LogP50 = 0.0;
  for (const ShapeDef &S : WL.shapes()) {
    std::vector<const Reservoir *> Rs = ServedRun::all(Srv.ByShape.at(S.Name));
    double P50 = percentile(Rs, 0.50);
    LogP50 += std::log(P50);
    std::printf("  %-8s %10llu %10.4f %10.4f %10.4f\n", S.Name.c_str(),
                static_cast<unsigned long long>(seen(Rs)), P50,
                percentile(Rs, 0.90), percentile(Rs, 0.99));
  }
  std::vector<const Reservoir *> Q = Srv.queries();
  Rep.add("ops_per_s", double(Srv.Ops) / std::max(Srv.OpsSeconds, 1e-9),
          "1/s");
  Rep.add("query_p50_ms", std::exp(LogP50 / double(WL.shapes().size())),
          "ms");
  Rep.add("query_p90_ms", percentile(Q, 0.90), "ms");
  Rep.add("query_p99_ms", percentile(Q, 0.99), "ms");
  Rep.add("query_samples", double(seen(Q)), "count");
  if (WL.writes()) {
    std::vector<const Reservoir *> W = ServedRun::all(Srv.Writes);
    Rep.add("write_p50_ms", percentile(W, 0.50), "ms");
    Rep.add("write_p90_ms", percentile(W, 0.90), "ms");
  }
  if (!WL.views().empty()) {
    Rep.add("view_read_p99_us", percentile(ServedRun::all(Srv.Views), 0.99),
            "us");
    std::vector<const Reservoir *> L = ServedRun::all(Srv.Late);
    Rep.add("generator_late_p99_ms", percentile(L, 0.99), "ms");
    Rep.add("generator_late_max_ms", percentile(L, 1.0), "ms");
  }
}

//===----------------------------------------------------------------------===//
// The traced replay
//===----------------------------------------------------------------------===//

/// Replays the workload's operation stream through a ReplayStack: an
/// untraced stretch, then a traced one, each \p PhaseSeconds long. Adds
/// the per-layer metrics to \p Rep and gate failures to \p Gates.
void runTrace(const Options &O, const ServedRun &Srv, Report &Rep, Tally &T,
              std::vector<std::string> &Gates, double PhaseSeconds) {
  Workload WL(O.K, O.Seed);
  const std::vector<ShapeDef> &Shapes = WL.shapes(), &Views = WL.views();
  Tracer Tr(100000);
  ReplayStack Rs(Tr, freshDir(O.TmpDir, "jit-replay"));
  for (const TensorDef &D : WL.tensors())
    Rs.load(D);
  for (const ShapeDef &V : Views) {
    std::string Err;
    ++T.Attempted;
    if (!Rs.registerView(V, &Err))
      T.fail("replay register " + V.Name + ": " + Err);
  }

  uint32_t OpId = 0;
  uint64_t WritesApplied = 0;
  std::vector<int> OpShape;                             // op id → shape
  // Op wall times per phase (untraced, traced) and op label; set-up ops
  // (Phase -1) are not timed.
  std::map<std::string, std::vector<double>> WallMs[2];
  int Phase = -1;
  auto wall = [&](const std::string &Label, int64_t Ns) {
    if (Phase >= 0)
      WallMs[Phase][Label].push_back(nsToMs(Ns));
  };

  auto checkAnswer = [&](const std::string &Name, uint64_t Version,
                         double Got) {
    double Want = WL.reference(Name);
    if (!sameBits(Got, Want))
      T.fail(mismatch("replay " + Name, Got, Want));
    auto It = Srv.Answers.find({Name, Version});
    if (It != Srv.Answers.end() && !sameBits(Got, It->second))
      T.fail(mismatch("replay vs served " + Name, Got, It->second));
  };
  auto runQuery = [&](size_t S) {
    Tr.beginOp(OpId);
    OpShape.resize(OpId + 1, -1);
    OpShape[OpId++] = static_cast<int>(S);
    int32_t Sp = Tr.open("op.query");
    int64_t T0 = nowNs();
    QueryAnswer A = Rs.query(Shapes[S].Q);
    int64_t T1 = nowNs();
    Tr.close(Sp);
    Tr.endOp();
    Rs.checkPending();
    wall("query " + Shapes[S].Name, T1 - T0);
    ++T.Attempted;
    if (!A.Ok)
      T.fail("replay " + Shapes[S].Name + ": " + A.Error);
    else
      checkAnswer(Shapes[S].Name,
                  WL.kind() == Kind::Replan ? WritesApplied : 0, A.Value);
  };
  auto runView = [&](size_t V) {
    Tr.beginOp(OpId++);
    int32_t Sp = Tr.open("op.view");
    int64_t T0 = nowNs();
    std::optional<ViewReading> R = Rs.readView(Views[V].Name);
    int64_t T1 = nowNs();
    Tr.close(Sp);
    Tr.endOp();
    wall("view " + Views[V].Name, T1 - T0);
    ++T.Attempted;
    if (!R || !R->Ok)
      T.fail("replay view " + Views[V].Name + " unreadable");
    else
      checkAnswer(Views[V].Name, WritesApplied, R->Value);
  };
  auto runWrite = [&] {
    Write W = WL.write(WritesApplied);
    Tr.beginOp(OpId++);
    int32_t Sp = Tr.open("op.write");
    int64_t T0 = nowNs();
    bool Ok = Rs.append(W);
    int64_t T1 = nowNs();
    Tr.close(Sp);
    Tr.endOp();
    wall("write", T1 - T0);
    ++T.Attempted;
    if (!Ok)
      T.fail("replay append rejected");
    WL.apply(W);
    ++WritesApplied;
  };

  // Set-up answers are traced: they are where the serve workloads miss.
  Tr.setEnabled(true);
  for (size_t S = 0; S < Shapes.size(); ++S)
    runQuery(S);
  for (size_t V = 0; V < Views.size(); ++V)
    runView(V);

  // The same stream the served run issued, one op at a time.
  Rng Pick(O.Seed * 7919 + 1);
  const size_t ReadsPerWrite = std::clamp<size_t>(
      static_cast<size_t>(std::lround(Srv.ReadsPerWrite)), 1, 100);
  uint64_t Step = 0;
  auto step = [&] {
    switch (WL.kind()) {
    case Kind::ServeSmall:
    case Kind::ServeLarge:
      runQuery(static_cast<size_t>(Pick.nextBelow(Shapes.size())));
      break;
    case Kind::IngestViews:
      runWrite();
      for (size_t R = 0; R < ReadsPerWrite; ++R, ++Step) {
        int Op = readerCycle()[Step % readerCycle().size()];
        if (Op < 0)
          runView(static_cast<size_t>(-1 - Op));
        else
          runQuery(static_cast<size_t>(Op));
      }
      break;
    case Kind::Replan:
      runWrite();
      runQuery(static_cast<size_t>((WritesApplied - 1) % Shapes.size()));
      break;
    }
  };
  for (Phase = 0; Phase < 2; ++Phase) {
    Tr.setEnabled(Phase == 1);
    int64_t End = nowNs() + static_cast<int64_t>(PhaseSeconds * 1e9);
    while (nowNs() < End)
      step();
  }
  Tr.setEnabled(false);
  if (!O.TracePath.empty() && !Tr.writeJsonLines(O.TracePath))
    Gates.push_back("cannot write " + O.TracePath);

  // Self time per span: its duration minus its children's. Per op type,
  // the stage spans (an op span's children) against the op's wall time.
  const std::vector<Span> &Sp = Tr.spans();
  auto durMs = [&](size_t I) { return nsToMs(Sp[I].End - Sp[I].Start); };
  std::vector<double> Self(Sp.size());
  std::map<std::string, std::pair<double, double>> Cover; // (stages, wall)
  std::map<std::string, std::vector<double>> OpMs;
  for (size_t I = 0; I < Sp.size(); ++I)
    Self[I] = durMs(I);
  for (size_t I = 0; I < Sp.size(); ++I) {
    int32_t P = Sp[I].Parent;
    if (P < 0) {
      Cover[Sp[I].Name].second += durMs(I);
      OpMs[Sp[I].Name].push_back(durMs(I));
      continue;
    }
    Self[static_cast<size_t>(P)] -= durMs(I);
    if (Sp[static_cast<size_t>(P)].Parent < 0)
      Cover[Sp[static_cast<size_t>(P)].Name].first += durMs(I);
  }
  std::map<std::string, std::pair<uint64_t, double>> ByName; // count, self
  std::map<int, std::vector<double>> DispatchMs;
  for (size_t I = 0; I < Sp.size(); ++I) {
    auto &[N, Ms] = ByName[Sp[I].Name];
    ++N;
    Ms += Self[I];
    if (std::string_view(Sp[I].Name) == "dispatch")
      DispatchMs[OpShape[Sp[I].Op]].push_back(durMs(I));
  }
  auto meanSelf = [&](const char *Name, double Scale, const char *Metric,
                      const char *Unit) {
    auto It = ByName.find(Name);
    if (It != ByName.end() && It->second.first)
      Rep.add(Metric, It->second.second / double(It->second.first) * Scale,
              Unit);
  };
  auto frac = [](uint64_t Num, uint64_t Den) {
    return Den ? double(Num) / double(Den) : 0.0;
  };

  // serve: what a request costs above its kernel dispatch, per shape.
  std::printf("\nper-shape rows (served p50/p99 from the untraced run, "
              "dispatch p50 from the traced replay):\n");
  std::printf("  %-8s %14s %14s %16s %12s\n", "shape", "served_p50_ms",
              "served_p99_ms", "dispatch_p50_ms", "overhead_us");
  double OverheadSum = 0.0, LogDispatch = 0.0;
  const bool Large = WL.kind() == Kind::ServeLarge;
  for (size_t S = 0; S < Shapes.size(); ++S) {
    std::vector<const Reservoir *> Served =
        ServedRun::all(Srv.ByShape.at(Shapes[S].Name));
    double D50 = percentile(DispatchMs[static_cast<int>(S)], 0.5);
    double Served50 = percentile(Served, 0.5);
    Rep.add("dispatch." + Shapes[S].Name + (Large ? "_ms" : "_us"),
            Large ? D50 : D50 * 1e3, Large ? "ms" : "us");
    LogDispatch += std::log(D50 * 1e3);
    OverheadSum += (Served50 - D50) * 1e3;
    std::printf("  %-8s %14.4f %14.4f %16.4f %12.2f\n", Shapes[S].Name.c_str(),
                Served50, percentile(Served, 0.99), D50,
                (Served50 - D50) * 1e3);
  }
  std::printf("\n");
  Rep.add("serve.overhead_us", OverheadSum / double(Shapes.size()), "us");
  Rep.add("dispatch.geomean_us",
          std::exp(LogDispatch / double(Shapes.size())), "us");
  Rep.add("serve.coalesced_frac", frac(Srv.SS.Coalesced, Srv.SS.Queries),
          "fraction");
  Rep.add("serve.native_frac", frac(Srv.SS.NativeRuns, Srv.SS.Executions),
          "fraction");
  meanSelf("catalog.snapshot", 1e3, "catalog.snapshot_us", "us");
  meanSelf("plancache.lookup", 1e3, "plancache.lookup_us", "us");
  const MissCounts &C = Rs.counts();
  Rep.add("plancache.hit_frac", frac(C.Hits, C.Lookups), "fraction");

  // The write path (ingest_views, replan).
  if (WL.writes()) {
    meanSelf("catalog.append", 1, "catalog.append_ms", "ms");
    CatalogStats CS = Rs.catalogStats();
    Rep.add("catalog.merge_amplification", frac(CS.MergedNnz, CS.DeltaNnz),
            "ratio");
    meanSelf("plancache.invalidate", 1e3, "plancache.invalidate_us", "us");
    meanSelf("ivm.on_append", 1, "ivm.on_append_ms", "ms");
    meanSelf("catalog.release", 1, "catalog.release_ms", "ms");
    // How much of catalog.append is the statistics pass over the whole
    // new version (statsOfCsr / statsOfSparseVector)?
    Rep.add("catalog.restats_ms", Rs.restatsMs(WL.write(0).Tensor), "ms");
  }
  if (!Views.empty()) {
    MaintainStats MS = Rs.viewStats();
    Rep.add("ivm.delta_hit_frac",
            frac(MS.DeltaPlanHits, MS.DeltaPlanHits + MS.DeltaPlanBuilds),
            "fraction");
    meanSelf("ivm.read", 1e3, "ivm.read_us", "us");
  }

  // The miss path.
  meanSelf("planner.extract", 1e3, "planner.extract_us", "us");
  meanSelf("planner.enumerate", 1, "planner.enumerate_ms", "ms");
  Rep.add("planner.plans_enumerated", frac(C.PlansEnumerated, C.Misses),
          "count");
  meanSelf("planner.realize", 1e3, "planner.realize_us", "us");
  meanSelf("compiler.lower", 1, "compiler.lower_ms", "ms");
  meanSelf("bytecode.compile", 1, "bytecode.compile_ms", "ms");
  meanSelf("bind.marshal", 1, "bind.marshal_ms", "ms");
  meanSelf("jit.compile", 1, "jit.compile_ms", "ms");
  meanSelf("jit.native_bind", 1, "jit.native_bind_ms", "ms");
  Rep.add("jit.source_kib", frac(C.SourceBytes, C.JitCalls) / 1024.0, "KiB");
  Rep.add("jit.cc_per_miss", frac(C.JitCompiles, C.Misses), "count");
  Rep.add("jit.cache_hit_frac", frac(C.JitCacheHits, C.JitCalls), "fraction");
  Rep.add("bind.bound_mib", double(Rs.boundBytes()) / double(1 << 20), "MiB");

  // Gate: the stage spans account for each op type's wall time. Ops under
  // 20 µs are exempt: the tracer's clock reads at each span boundary alone
  // are a few percent of them.
  for (const auto &[Op, SW] : Cover) {
    double Share = SW.second > 0 ? SW.first / SW.second : 1.0;
    bool Exempt = percentile(OpMs[Op], 0.5) < 0.020;
    std::printf("span coverage %-9s %.4f of wall time%s\n", Op.c_str(), Share,
                Exempt ? " (exempt: p50 under 20 us)" : "");
    if (!Exempt && (Share < 0.95 || Share > 1.0001))
      Gates.push_back("stage spans cover " + std::to_string(Share) + " of " +
                      Op + " wall time (need 0.95..1)");
  }
  // Gate: the replayed miss path agrees with prepareContraction.
  for (const auto &[Direct, Replay] : C.PrepareVsReplay) {
    double Drift = Replay / Direct - 1.0;
    std::printf("miss path without the JIT: prepareContraction %.3f ms, "
                "replayed stages %.3f ms (%+.1f%%)\n",
                Direct, Replay, Drift * 100.0);
    if (std::abs(Drift) > 0.10)
      Gates.push_back("replayed miss path drifts " + std::to_string(Drift) +
                      " from prepareContraction (limit 0.10)");
  }
  // Tracing overhead: the same replay, traced against untraced.
  for (const auto &[Op, Ms] : WallMs[1]) {
    double Untraced = percentile(WallMs[0][Op], 0.5);
    double Traced50 = percentile(Ms, 0.5);
    std::printf("tracing overhead %-16s p50 %.4f ms traced vs %.4f ms "
                "untraced (%+.1f%%)\n",
                Op.c_str(), Traced50, Untraced,
                Untraced > 0 ? (Traced50 / Untraced - 1.0) * 100.0 : 0.0);
  }
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  if (!parseArgs(Argc, Argv, O)) {
    std::fprintf(stderr,
                 "usage: etch_serve_bench --workload "
                 "serve_small|serve_large|ingest_views|replan --seed N "
                 "--seconds S --tmp DIR [--setup-only] [--trace FILE]\n");
    return 2;
  }
  std::setvbuf(stdout, nullptr, _IOLBF, 0);

  Workload WL(O.K, O.Seed);
  // Two client threads on serve_*, a writer and two readers on
  // ingest_views, one thread on replan.
  ServedRun Srv(WL, WL.kind() == Kind::Replan ? 1 : 2);
  Tally T;
  double SetupSeconds = 0.0;
  std::unique_ptr<ContractionService> Svc =
      setUp(WL, freshDir(O.TmpDir, "jit"), &SetupSeconds, T);
  Report Rep;
  Rep.add("setup_s", SetupSeconds, "s");

  std::vector<std::string> Gates;
  if (!O.SetupOnly) {
    // Trace runs split --seconds between the served run and the replay.
    double Measure = O.TracePath.empty() ? O.Seconds : O.Seconds / 2;
    int64_t Begin = nowNs();
    int64_t MeasureStart = Begin + WarmupNs;
    int64_t Deadline = MeasureStart + static_cast<int64_t>(Measure * 1e9);
    switch (O.K) {
    case Kind::ServeSmall:
    case Kind::ServeLarge:
      runServe(O, WL, *Svc, MeasureStart, Deadline, Srv);
      break;
    case Kind::IngestViews:
      runIngest(WL, *Svc, Begin, MeasureStart, Deadline, Srv);
      break;
    case Kind::Replan:
      runReplan(WL, *Svc, MeasureStart, Deadline, Srv);
      break;
    }
    T.merge(Srv.T);
    Srv.SS = Svc->stats();
    Srv.PS = Svc->planStats();
    Gates.insert(Gates.end(), Srv.GateFailures.begin(), Srv.GateFailures.end());
    if (Srv.PS.PlannerRuns != Srv.PS.Misses)
      Gates.push_back("planner ran " + std::to_string(Srv.PS.PlannerRuns) +
                      " times for " + std::to_string(Srv.PS.Misses) +
                      " plan-cache misses");
    reportServed(WL, Srv, Rep);
    Rep.add("failed_frac",
            T.Attempted ? double(T.Failed) / double(T.Attempted) : 0.0,
            "fraction");
  }
  Svc.reset();
  Rep.add("peak_rss_mib", peakRssMib(), "MiB");

  if (!O.SetupOnly && !O.TracePath.empty())
    runTrace(O, Srv, Rep, T, Gates, O.Seconds / 4);

  std::error_code Ec;
  fs::remove_all(O.TmpDir, Ec);

  std::printf("workload %s, seed %llu:\n", kindName(O.K),
              static_cast<unsigned long long>(O.Seed));
  Rep.print();
  for (const std::string &R : T.Reasons)
    std::fprintf(stderr, "wrong answer: %s\n", R.c_str());
  for (const std::string &G : Gates)
    std::fprintf(stderr, "gate failed: %s\n", G.c_str());
  bool Correct = T.Failed == 0 && Gates.empty();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(T.Attempted),
              static_cast<unsigned long long>(T.Failed), Rep.json().c_str());
  return Correct ? 0 : 1;
}
