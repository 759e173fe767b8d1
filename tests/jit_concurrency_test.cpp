//===- tests/jit_concurrency_test.cpp - JIT cache under concurrency -------===//
//
// Part of the etch project.
//
//===----------------------------------------------------------------------===//
//
// The serve layer turned the JIT cache from a single-threaded convenience
// into shared infrastructure, and these tests pin the concurrency
// contracts that shift demands:
//
//  * N threads jitCompile-ing the same key all converge on ONE in-process
//    handle (the insert race keeps the incumbent), and a second round is
//    pure memory hits;
//  * the eviction scan tolerates files vanishing mid-scan: a failed stat
//    is skipped, never counted — the old code folded file_size's error
//    value (uintmax_t(-1)) into Total, blowing past any budget and
//    evicting the entire cache;
//  * the in-process handle cache is bounded: past the cap, LRU handles
//    are dropped (counted in JitCacheStats), while kernels still pinned
//    by a live NativeKernelRef keep working — eviction only drops the
//    cache's reference, dlclose happens on the last release;
//  * lowering names its temporaries per compilation, so threads lowering
//    one query at once all emit the same source (one content-address).
//
// The whole file runs under TSan in CI (see .github/workflows/ci.yml).
//
//===----------------------------------------------------------------------===//

#include "compiler/frontend.h"
#include "compiler/jit.h"
#include "formats/random.h"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

using namespace etch;

namespace {

namespace fs = std::filesystem;

Attr AI() { return Attr::named("jc_i"); }

struct ScopedCache {
  std::string Dir;
  explicit ScopedCache(const std::string &Tag) {
    Dir = (fs::path(::testing::TempDir()) / ("etch-jitcc-test-" + Tag))
              .string();
    std::error_code Ec;
    fs::remove_all(Dir, Ec);
    jitResetCacheStatsForTest();
  }
  ~ScopedCache() {
    std::error_code Ec;
    fs::remove_all(Dir, Ec);
    jitResetCacheStatsForTest();
  }
  JitOptions opts() const {
    JitOptions O;
    O.CacheDir = Dir;
    O.CountSteps = false;
    return O;
  }
};

/// Lowers Σ x·y·z in a fresh context at optimization level \p Opt.
PRef lowerTriple(int Opt) {
  LowerCtx Ctx;
  Ctx.OptLevel = Opt;
  Ctx.setDim(AI(), 10);
  Ctx.bind(sparseVecBinding("x", AI()));
  Ctx.bind(sparseVecBinding("y", AI()));
  Ctx.bind(sparseVecBinding("z", AI()));
  return compileFullContraction(
      Ctx, Expr::var("x") * Expr::var("y") * Expr::var("z"), "out");
}

/// Σ x·y·z over a fixed intersection; Opt splits the cache key so each
/// level is a distinct kernel.
struct TripleFixture {
  SparseVector<double> X{10}, Y{10}, Z{10};
  PRef Progs[3];
  TripleFixture() {
    for (auto [I, V] : {std::pair<Idx, double>{1, 2.0}, {4, 3.0}, {7, 5.0}})
      X.push(I, V);
    for (auto [I, V] :
         {std::pair<Idx, double>{0, 1.0}, {4, 2.0}, {7, 2.0}, {9, 9.0}})
      Y.push(I, V);
    for (auto [I, V] : {std::pair<Idx, double>{4, 10.0}, {7, 3.0}, {8, 1.0}})
      Z.push(I, V);
    for (int Opt : {0, 1, 2})
      Progs[Opt] = lowerTriple(Opt);
  }
  const PRef &compile(int Opt) const { return Progs[Opt]; }
  VmMemory memory() const {
    VmMemory M;
    bindSparseVector(M, "x", X);
    bindSparseVector(M, "y", Y);
    bindSparseVector(M, "z", Z);
    return M;
  }
};

double runKernel(const NativeKernelRef &K, const TripleFixture &F) {
  VmMemory M = F.memory();
  VmRunResult R = K->run(M);
  EXPECT_FALSE(R.Error.has_value());
  return std::get<double>(*M.getScalar("out"));
}

//===----------------------------------------------------------------------===//
// Lowering from many threads
//===----------------------------------------------------------------------===//

TEST(JitConcurrency, ConcurrentLoweringsEmitIdenticalSource) {
  // Skip latches and snapshots are named from each compilation's own
  // generator, never a process counter: threads lowering the same query
  // at once must emit byte-identical C.
  TripleFixture F;
  const VmMemory M = F.memory();
  constexpr int Threads = 8;
  std::vector<std::string> Sources(Threads);
  std::vector<std::thread> Pool;
  for (int T = 0; T < Threads; ++T)
    Pool.emplace_back([&Sources, &M, T] {
      Sources[T] = emitCProgram(lowerTriple(0), M, {{"out"}, {}});
    });
  for (std::thread &T : Pool)
    T.join();
  EXPECT_NE(Sources[0].find("skc"), std::string::npos);
  EXPECT_NE(Sources[0].find("skt"), std::string::npos);
  for (int T = 1; T < Threads; ++T)
    EXPECT_EQ(Sources[T], Sources[0]) << "thread " << T;
}

//===----------------------------------------------------------------------===//
// Same-key compilation from many threads
//===----------------------------------------------------------------------===//

TEST(JitConcurrency, SameKeyFromManyThreadsConvergesOnOneHandle) {
  if (!jitToolchain().Available)
    GTEST_SKIP() << "no system C compiler: " << jitToolchain().Diag;
  TripleFixture F;
  PRef Prog = F.compile(2);
  ScopedCache Cache("samekey");

  constexpr int N = 8;
  std::vector<NativeKernelRef> Got(N);
  std::vector<std::string> Errs(N);
  {
    std::vector<std::thread> Ts;
    for (int I = 0; I < N; ++I)
      Ts.emplace_back([&, I] {
        Got[static_cast<size_t>(I)] =
            jitCompile(Prog, Cache.opts(), &Errs[static_cast<size_t>(I)]);
      });
    for (std::thread &T : Ts)
      T.join();
  }
  for (int I = 0; I < N; ++I) {
    ASSERT_NE(Got[static_cast<size_t>(I)], nullptr) << Errs[size_t(I)];
    // The insert race keeps the incumbent: every caller gets the same
    // in-process handle, so racing compiles never leak N dlopens.
    EXPECT_EQ(Got[static_cast<size_t>(I)].get(), Got[0].get());
    EXPECT_EQ(runKernel(Got[static_cast<size_t>(I)], F), 90.0);
  }
  JitCacheStats St = jitCacheStats();
  EXPECT_EQ(St.HandlesResident, 1u);
  // Every thread is accounted for exactly once on its first pass.
  EXPECT_EQ(St.Compiles + St.DiskHits + St.MemHits, static_cast<uint64_t>(N));
  EXPECT_GE(St.Compiles, 1u);

  // Round two: the handle is resident, so all N threads memory-hit.
  {
    std::vector<std::thread> Ts;
    for (int I = 0; I < N; ++I)
      Ts.emplace_back([&, I] {
        Got[static_cast<size_t>(I)] = jitCompile(Prog, Cache.opts(), nullptr);
      });
    for (std::thread &T : Ts)
      T.join();
  }
  JitCacheStats St2 = jitCacheStats();
  EXPECT_EQ(St2.MemHits, St.MemHits + N);
  EXPECT_EQ(St2.Compiles, St.Compiles);
}

//===----------------------------------------------------------------------===//
// Eviction scan vs concurrent removal (the PR's bugfix)
//===----------------------------------------------------------------------===//

TEST(JitConcurrency, EvictionScanSkipsFilesVanishingMidScan) {
  if (!jitToolchain().Available)
    GTEST_SKIP() << "no system C compiler: " << jitToolchain().Diag;
  TripleFixture F;
  ScopedCache Cache("evictrace");
  std::string Err;
  NativeKernelRef K1 = jitCompile(F.compile(1), Cache.opts(), &Err);
  NativeKernelRef K2 = jitCompile(F.compile(2), Cache.opts(), &Err);
  ASSERT_TRUE(K1 && K2) << Err;
  fs::path Real1 = fs::path(Cache.Dir) / (K1->key() + ".so");
  fs::path Real2 = fs::path(Cache.Dir) / (K2->key() + ".so");
  ASSERT_TRUE(fs::exists(Real1) && fs::exists(Real2));

  // Churn: `junk.c` persists with an ever-fresh mtime while `junk.so`
  // (same stem) is created and removed in a tight loop. When a scan's
  // readdir sees junk.so but the file is gone by stat time, the broken
  // code folded file_size's uintmax_t(-1) error value into that stem's
  // byte count AND the running total — and since the stem's mtime is the
  // newest in the directory, the "older" real kernels were evicted first
  // to chase an unreachable budget. The fix skips stat-failed entries,
  // so the scan stays under budget and evicts nothing.
  fs::path JunkC = fs::path(Cache.Dir) / "junk.c";
  fs::path JunkSo = fs::path(Cache.Dir) / "junk.so";
  std::atomic<bool> Stop{false};
  std::thread Churn([&] {
    std::error_code Ec;
    while (!Stop.load(std::memory_order_relaxed)) {
      std::ofstream(JunkC) << "// fresh\n";
      std::ofstream(JunkSo) << "gone in a moment\n";
      fs::remove(JunkSo, Ec);
    }
  });
  const uint64_t Budget = uint64_t(1) << 30; // far above real usage
  for (int I = 0; I < 300; ++I)
    EXPECT_EQ(jitEvictCache(Cache.Dir, Budget), 0) << "scan " << I;
  Stop.store(true, std::memory_order_relaxed);
  Churn.join();

  EXPECT_TRUE(fs::exists(Real1));
  EXPECT_TRUE(fs::exists(Real2));
}

//===----------------------------------------------------------------------===//
// Bounded handle cache (LRU) with pinning
//===----------------------------------------------------------------------===//

TEST(JitConcurrency, HandleCacheLruEvictionAndPinning) {
  if (!jitToolchain().Available)
    GTEST_SKIP() << "no system C compiler: " << jitToolchain().Diag;
  TripleFixture F;
  ScopedCache Cache("handlecap");
  jitSetHandleCacheCap(2);
  EXPECT_EQ(jitHandleCacheCap(), 2u);

  std::string Err;
  NativeKernelRef K0 = jitCompile(F.compile(0), Cache.opts(), &Err);
  NativeKernelRef K1 = jitCompile(F.compile(1), Cache.opts(), &Err);
  ASSERT_TRUE(K0 && K1) << Err;
  EXPECT_EQ(jitCacheStats().HandlesResident, 2u);
  EXPECT_EQ(jitCacheStats().HandleEvictions, 0u);

  // A third distinct kernel pushes the LRU entry (K0) out of the cache.
  NativeKernelRef K2 = jitCompile(F.compile(2), Cache.opts(), &Err);
  ASSERT_NE(K2, nullptr) << Err;
  JitCacheStats St = jitCacheStats();
  EXPECT_EQ(St.HandlesResident, 2u);
  EXPECT_EQ(St.HandleEvictions, 1u);

  // Eviction dropped only the cache's reference: K0 is still pinned by
  // our shared_ptr and keeps executing.
  EXPECT_EQ(runKernel(K0, F), 90.0);

  // Resident entries still memory-hit...
  uint64_t MemBefore = St.MemHits;
  NativeKernelRef K1b = jitCompile(F.compile(1), Cache.opts(), &Err);
  ASSERT_NE(K1b, nullptr);
  EXPECT_EQ(K1b.get(), K1.get());
  EXPECT_EQ(jitCacheStats().MemHits, MemBefore + 1);

  // ...while the evicted key reloads from disk (a new handle, no
  // recompilation) and re-enters the cache, displacing the next LRU.
  uint64_t CompilesBefore = jitCacheStats().Compiles;
  NativeKernelRef K0b = jitCompile(F.compile(0), Cache.opts(), &Err);
  ASSERT_NE(K0b, nullptr) << Err;
  EXPECT_NE(K0b.get(), K0.get());
  JitCacheStats St2 = jitCacheStats();
  EXPECT_EQ(St2.Compiles, CompilesBefore);
  EXPECT_GE(St2.DiskHits, 1u);
  EXPECT_EQ(St2.HandlesResident, 2u);
  EXPECT_EQ(St2.HandleEvictions, 2u);
  EXPECT_EQ(runKernel(K0b, F), 90.0);

  // Tightening the cap evicts immediately; the test-reset restores the
  // default so later tests see the production bound.
  jitSetHandleCacheCap(1);
  EXPECT_EQ(jitCacheStats().HandlesResident, 1u);
  jitResetCacheStatsForTest();
  EXPECT_EQ(jitHandleCacheCap(), JitHandleCacheDefaultCap);
}

TEST(JitConcurrency, HandleCapHoldsUnderConcurrentDistinctCompiles) {
  if (!jitToolchain().Available)
    GTEST_SKIP() << "no system C compiler: " << jitToolchain().Diag;
  TripleFixture F;
  ScopedCache Cache("capthreads");
  jitSetHandleCacheCap(2);

  // Three distinct kernels compiled from three threads repeatedly: the
  // resident count may never exceed the cap, whatever the interleaving.
  std::vector<std::thread> Ts;
  for (int Opt : {0, 1, 2})
    Ts.emplace_back([&, Opt] {
      for (int I = 0; I < 6; ++I) {
        NativeKernelRef K = jitCompile(F.compile(Opt), Cache.opts(), nullptr);
        ASSERT_NE(K, nullptr);
        EXPECT_EQ(runKernel(K, F), 90.0);
      }
    });
  for (std::thread &T : Ts)
    T.join();
  EXPECT_LE(jitCacheStats().HandlesResident, 2u);
  EXPECT_GE(jitCacheStats().HandleEvictions, 1u);
}

} // namespace
