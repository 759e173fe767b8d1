//===- tests/jit_native_test.cpp - JIT-to-native backend -----------------===//
//
// Part of the etch project.
//
//===----------------------------------------------------------------------===//
//
// The native backend (compiler/jit.h) promises the tree-walking VM's
// observable semantics exactly — identical step counts (when compiled
// step-counting), identical error text, bit-identical outputs — plus a
// content-addressed kernel cache with specific hit/miss/corruption
// behavior and a decline-don't-abort failure path. These tests pin all of
// it: golden parity on the compiled Fig. 2 / SpMV / hash-destination
// programs against both the tree VM and the denotational oracle, cache
// key discrimination and reuse counters, corrupted-entry recompilation,
// the bogus-compiler and size-cap declines, error/step-budget text parity,
// prepared NativeCall re-invocation, and cache-directory hygiene.
//
// Every test that touches the cache uses its own directory under the
// gtest temp dir (via JitOptions::CacheDir), so runs never litter $PWD,
// /tmp, or the user's real kernel cache.
//
//===----------------------------------------------------------------------===//

#include "compiler/bytecode.h"
#include "compiler/frontend.h"
#include "compiler/jit.h"
#include "compiler/ops.h"
#include "core/eval.h"
#include "formats/random.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>

using namespace etch;

namespace {

namespace fs = std::filesystem;

Attr AI() { return Attr::named("jn_i"); }
Attr AJ() { return Attr::named("jn_j"); }

/// A fresh cache directory per test, cleaned by the destructor. Also
/// flushes the in-process handle cache and counters, so every test sees
/// a genuinely cold cache.
struct ScopedCache {
  std::string Dir;
  explicit ScopedCache(const std::string &Tag) {
    Dir = (fs::path(::testing::TempDir()) / ("etch-jit-test-" + Tag))
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
  JitOptions opts(bool CountSteps = true) const {
    JitOptions O;
    O.CacheDir = Dir;
    O.CountSteps = CountSteps;
    return O;
  }
};

bool bitsEq(const ImpValue &A, const ImpValue &B) {
  if (impTypeOf(A) != impTypeOf(B))
    return false;
  if (const double *X = std::get_if<double>(&A)) {
    uint64_t XB, YB;
    std::memcpy(&XB, X, sizeof(XB));
    std::memcpy(&YB, &std::get<double>(B), sizeof(YB));
    return XB == YB;
  }
  return A == B;
}

/// Runs \p Prog on the tree VM and a freshly jit-compiled step-counting
/// kernel (each against its own copy of \p Init) and asserts full
/// observable agreement: error text, step count, and bit-identical
/// values for every named scalar and array.
struct ParityRuns {
  VmRunResult Tree, Nat;
  VmMemory TreeMem, NatMem;
};

ParityRuns runParity(const PRef &Prog, const VmMemory &Init,
                     const JitOptions &JO,
                     int64_t MaxSteps = int64_t(1) << 28) {
  ParityRuns R;
  R.TreeMem = Init;
  R.NatMem = Init;
  R.Tree = vmRun(Prog, R.TreeMem, MaxSteps);
  std::string Err;
  NativeKernelRef K = jitCompile(Prog, JO, &Err);
  EXPECT_NE(K, nullptr) << Err;
  if (K)
    R.Nat = K->run(R.NatMem, MaxSteps);
  return R;
}

void expectParity(const ParityRuns &R,
                  const std::vector<std::string> &Scalars,
                  const std::vector<std::string> &Arrays) {
  EXPECT_EQ(R.Tree.Error.has_value(), R.Nat.Error.has_value());
  if (R.Tree.Error && R.Nat.Error) {
    EXPECT_EQ(*R.Tree.Error, *R.Nat.Error);
  }
  EXPECT_EQ(R.Tree.Steps, R.Nat.Steps);
  if (R.Tree.Error)
    return; // after an error, native memory is untouched by contract
  for (const std::string &S : Scalars) {
    auto A = R.TreeMem.getScalar(S), B = R.NatMem.getScalar(S);
    ASSERT_EQ(A.has_value(), B.has_value()) << "scalar " << S;
    if (A) {
      EXPECT_TRUE(bitsEq(*A, *B)) << "scalar " << S;
    }
  }
  for (const std::string &Name : Arrays) {
    const auto *A = R.TreeMem.getArray(Name);
    const auto *B = R.NatMem.getArray(Name);
    ASSERT_EQ(A != nullptr, B != nullptr) << "array " << Name;
    if (!A)
      continue;
    ASSERT_EQ(A->size(), B->size()) << "array " << Name;
    for (size_t I = 0; I < A->size(); ++I) {
      EXPECT_TRUE(bitsEq((*A)[I], (*B)[I]))
          << "array " << Name << "[" << I << "]";
    }
  }
}

/// Figure 2's triple sparse product; the intersection {4, 7} gives
/// 3·2·10 + 5·2·3 = 90.
struct Fig2 {
  SparseVector<double> X{10}, Y{10}, Z{10};
  Fig2() {
    for (auto [I, V] : {std::pair<Idx, double>{1, 2.0}, {4, 3.0}, {7, 5.0}})
      X.push(I, V);
    for (auto [I, V] :
         {std::pair<Idx, double>{0, 1.0}, {4, 2.0}, {7, 2.0}, {9, 9.0}})
      Y.push(I, V);
    for (auto [I, V] : {std::pair<Idx, double>{4, 10.0}, {7, 3.0}, {8, 1.0}})
      Z.push(I, V);
  }
  PRef compile(int Opt) const {
    LowerCtx Ctx;
    Ctx.OptLevel = Opt;
    Ctx.setDim(AI(), 10);
    Ctx.bind(sparseVecBinding("x", AI()));
    Ctx.bind(sparseVecBinding("y", AI()));
    Ctx.bind(sparseVecBinding("z", AI()));
    return compileFullContraction(
        Ctx, Expr::var("x") * Expr::var("y") * Expr::var("z"), "out");
  }
  VmMemory memory() const {
    VmMemory M;
    bindSparseVector(M, "x", X);
    bindSparseVector(M, "y", Y);
    bindSparseVector(M, "z", Z);
    return M;
  }
};

//===----------------------------------------------------------------------===//
// Golden parity: compiled contractions vs tree VM vs oracle
//===----------------------------------------------------------------------===//

TEST(JitNative, Fig2TripleProductAllOptLevels) {
  if (!jitToolchain().Available)
    GTEST_SKIP() << "no system C compiler: " << jitToolchain().Diag;
  Fig2 F;
  ScopedCache C("fig2");
  for (int Opt : {0, 1, 2}) {
    ParityRuns R = runParity(F.compile(Opt), F.memory(), C.opts());
    expectParity(R, {"out"}, {});
    ASSERT_FALSE(R.Nat.Error.has_value());
    EXPECT_EQ(std::get<double>(*R.NatMem.getScalar("out")), 90.0);
  }
}

TEST(JitNative, SpmvAgainstOracle) {
  if (!jitToolchain().Available)
    GTEST_SKIP() << "no system C compiler: " << jitToolchain().Diag;
  Rng R(51);
  auto A = randomCsr(R, 25, 25, 120);
  auto X = randomSparseVector(R, 25, 12);

  LowerCtx Ctx;
  Ctx.OptLevel = 2;
  Ctx.setDim(AI(), 25);
  Ctx.setDim(AJ(), 25);
  Ctx.bind(csrBinding("A", AI(), AJ()));
  Ctx.bind(sparseVecBinding("x", AJ()));
  std::string Err;
  ExprPtr Prod = mulExpand(Expr::var("A"), Expr::var("x"), Ctx.types(), &Err);
  ASSERT_NE(Prod, nullptr) << Err;
  PRef Prog = compileFullContraction(Ctx, Prod, "out");

  VmMemory Init;
  bindCsr(Init, "A", A);
  bindSparseVector(Init, "x", X);

  ScopedCache Cache("spmv");
  ParityRuns PR = runParity(Prog, Init, Cache.opts());
  expectParity(PR, {"out"}, {});
  ASSERT_FALSE(PR.Nat.Error.has_value());

  // The dense reference sum: Σ_i Σ_j A(i,j)·x(j), straight off the CSR
  // arrays.
  std::vector<double> XD(25, 0.0);
  for (size_t K = 0; K < X.Crd.size(); ++K)
    XD[static_cast<size_t>(X.Crd[K])] = X.Val[K];
  double Want = 0.0;
  for (size_t I = 0; I < 25; ++I)
    for (size_t P = static_cast<size_t>(A.Pos[I]);
         P < static_cast<size_t>(A.Pos[I + 1]); ++P)
      Want += A.Val[P] * XD[static_cast<size_t>(A.Crd[P])];
  EXPECT_NEAR(std::get<double>(*PR.NatMem.getScalar("out")), Want, 1e-9);
}

TEST(JitNative, TileDenseTailsBlocksLoopsAndPreservesBits) {
  if (!jitToolchain().Available)
    GTEST_SKIP() << "no system C compiler: " << jitToolchain().Diag;
  Rng R(57);
  auto A = randomCsr(R, 40, 40, 300);
  auto X = randomSparseVector(R, 40, 20);

  LowerCtx Ctx;
  Ctx.OptLevel = 2;
  Ctx.setDim(AI(), 40);
  Ctx.setDim(AJ(), 40);
  Ctx.bind(csrBinding("A", AI(), AJ()));
  Ctx.bind(sparseVecBinding("x", AJ()));
  std::string Err;
  ExprPtr Prod = mulExpand(Expr::var("A"), Expr::var("x"), Ctx.types(), &Err);
  ASSERT_NE(Prod, nullptr) << Err;
  PRef Prog = compileFullContraction(Ctx, Prod, "out");

  // Source level: the option blocks every loop-invariant-bound while loop
  // into an outer guarded re-check plus a counted inner loop. The blocked
  // form carries the unsigned block-end clamp; the plain form never does.
  auto Manifest = deriveKernelManifest(Prog, &Err);
  ASSERT_TRUE(Manifest) << Err;
  CKernelOptions Plain, Tiled;
  Tiled.TileDenseTails = 64;
  std::string PlainSrc = emitCKernel(Prog, *Manifest, Plain);
  std::string TiledSrc = emitCKernel(Prog, *Manifest, Tiled);
  EXPECT_EQ(PlainSrc.find("(uint64_t)64)"), std::string::npos);
  EXPECT_NE(TiledSrc.find("(uint64_t)64)"), std::string::npos);

  // Step-counting kernels are never blocked: the per-iteration charge
  // would be re-timed, breaking step parity with the tree VM.
  CKernelOptions Counted, CountedTiled;
  Counted.CountSteps = true;
  CountedTiled.CountSteps = true;
  CountedTiled.TileDenseTails = 64;
  EXPECT_EQ(emitCKernel(Prog, *Manifest, Counted),
            emitCKernel(Prog, *Manifest, CountedTiled));

  // Behavior: tree VM, untiled native, and tiled native agree bit for
  // bit; the tile is part of the content-address.
  VmMemory Init;
  bindCsr(Init, "A", A);
  bindSparseVector(Init, "x", X);
  VmMemory TreeM = Init, PlainM = Init, TiledM = Init;
  VmRunResult TreeR = vmRun(Prog, TreeM);
  ASSERT_FALSE(TreeR.Error.has_value());

  ScopedCache Cache("tiledtails");
  NativeKernelRef PK = jitCompile(Prog, Cache.opts(false), &Err);
  ASSERT_NE(PK, nullptr) << Err;
  JitOptions TO = Cache.opts(false);
  TO.TileDenseTails = 64;
  NativeKernelRef TK = jitCompile(Prog, TO, &Err);
  ASSERT_NE(TK, nullptr) << Err;
  EXPECT_NE(PK->key(), TK->key());

  VmRunResult PlainR = PK->run(PlainM);
  VmRunResult TiledR = TK->run(TiledM);
  ASSERT_FALSE(PlainR.Error.has_value());
  ASSERT_FALSE(TiledR.Error.has_value());
  auto Want = TreeM.getScalar("out");
  ASSERT_TRUE(Want.has_value());
  ASSERT_TRUE(PlainM.getScalar("out").has_value());
  ASSERT_TRUE(TiledM.getScalar("out").has_value());
  EXPECT_TRUE(bitsEq(*Want, *PlainM.getScalar("out")));
  EXPECT_TRUE(bitsEq(*Want, *TiledM.getScalar("out")));
}

TEST(JitNative, HashDestGroupByMatchesTreeVm) {
  // The PR-6 compiled group-by: probe/insert into caller-provided hash
  // arrays. The kernel mutates bound arrays in place, so this also pins
  // the array write-back path bit for bit.
  if (!jitToolchain().Available)
    GTEST_SKIP() << "no system C compiler: " << jitToolchain().Diag;
  Rng R(43);
  auto A = randomCsr(R, 10, 30, 45);

  LowerCtx Ctx;
  Ctx.setDim(AI(), 10);
  Ctx.setDim(AJ(), 30);
  Ctx.bind(csrBinding("A", AI(), AJ()));

  const int64_t TabSize = 64;
  PRef Prog = PStmt::seq2(
      PStmt::declVar("gcnt", ImpType::I64, eConstI(0)),
      compileExpr(Ctx, Expr::sum(AI(), Expr::var("A")),
                  hashDest(f64Algebra(), "gkey", "gval", "gcnt", TabSize)));

  VmMemory Init;
  bindCsr(Init, "A", A);
  Init.setArrayI64("gkey", std::vector<int64_t>(TabSize, -1));
  Init.setArrayF64("gval", std::vector<double>(TabSize, 0.0));

  ScopedCache Cache("hashdest");
  ParityRuns PR = runParity(Prog, Init, Cache.opts());
  expectParity(PR, {"gcnt"}, {"gkey", "gval"});
}

//===----------------------------------------------------------------------===//
// Error and step-budget parity
//===----------------------------------------------------------------------===//

TEST(JitNative, OutOfBoundsErrorTextMatches) {
  if (!jitToolchain().Available)
    GTEST_SKIP() << "no system C compiler: " << jitToolchain().Diag;
  PRef Prog = PStmt::declVar(
      "out", ImpType::F64,
      EExpr::access("a", ImpType::F64, eConstI(5)));
  VmMemory Init;
  Init.setArrayF64("a", {1.0, 2.0, 3.0});
  ScopedCache Cache("oob");
  ParityRuns PR = runParity(Prog, Init, Cache.opts());
  expectParity(PR, {}, {});
  ASSERT_TRUE(PR.Nat.Error.has_value());
  EXPECT_EQ(*PR.Nat.Error, "out-of-bounds access a[5], size 3");
}

TEST(JitNative, StepBudgetExhaustionMatches) {
  // i = 0; while (i < n) i += 1 — with a budget too small to finish.
  if (!jitToolchain().Available)
    GTEST_SKIP() << "no system C compiler: " << jitToolchain().Diag;
  PRef Prog = PStmt::seq2(
      PStmt::declVar("i", ImpType::I64, eConstI(0)),
      PStmt::whileLoop(eLtI(eVarI("i"), eVarI("n")),
                       PStmt::storeVar("i", eAddI(eVarI("i"), eConstI(1)))));
  VmMemory Init;
  Init.setScalar("n", int64_t{1000});
  ScopedCache Cache("budget");
  ParityRuns PR = runParity(Prog, Init, Cache.opts(), /*MaxSteps=*/10);
  expectParity(PR, {}, {});
  ASSERT_TRUE(PR.Nat.Error.has_value());
  EXPECT_EQ(*PR.Nat.Error,
            "step budget exhausted (possible non-termination)");
  EXPECT_EQ(PR.Nat.Steps, 11); // budget + 1, exactly like the tree VM
}

TEST(JitNative, BindingTypeMismatchMatchesBytecodeText) {
  // The host-side marshaling errors must use the bytecode VM's wording.
  if (!jitToolchain().Available)
    GTEST_SKIP() << "no system C compiler: " << jitToolchain().Diag;
  PRef Prog =
      PStmt::declVar("out", ImpType::F64, EExpr::var("x", ImpType::F64));
  VmMemory Init;
  Init.setScalar("x", int64_t{7}); // bound i64, used f64
  ScopedCache Cache("bindtype");
  std::string Err;
  NativeKernelRef K = jitCompile(Prog, Cache.opts(), &Err);
  ASSERT_NE(K, nullptr) << Err;
  VmMemory NatM = Init, BcM = Init;
  VmRunResult NatR = K->run(NatM);
  VmRunResult BcR = bytecodeCompileAndRun(Prog, BcM);
  ASSERT_TRUE(NatR.Error.has_value());
  ASSERT_TRUE(BcR.Error.has_value());
  EXPECT_EQ(*NatR.Error, *BcR.Error);
  EXPECT_EQ(*NatR.Error, "scalar 'x' is bound as i64 but used as f64");

  // Memory is untouched on a binding error, even an array the program
  // would have written in place.
  PRef Writes = PStmt::seq2(PStmt::storeArr("buf", eConstI(0), eConstF(5.0)),
                            Prog);
  Init.setArrayF64("buf", {0.0, 0.0});
  NativeKernelRef KW = jitCompile(Writes, Cache.opts(), &Err);
  ASSERT_NE(KW, nullptr) << Err;
  VmMemory WM = Init;
  VmRunResult WR = KW->run(WM);
  ASSERT_TRUE(WR.Error.has_value());
  EXPECT_EQ(*WR.Error, "scalar 'x' is bound as i64 but used as f64");
  EXPECT_FALSE(WM.getScalar("out").has_value());
  EXPECT_EQ(std::get<int64_t>(*WM.getScalar("x")), 7);
  ASSERT_NE(WM.getArray("buf"), nullptr);
  EXPECT_EQ(*WM.getArray("buf"), *Init.getArray("buf"));
}

//===----------------------------------------------------------------------===//
// The content-addressed cache
//===----------------------------------------------------------------------===//

TEST(JitNative, SameProgramCompilesOnce) {
  if (!jitToolchain().Available)
    GTEST_SKIP() << "no system C compiler: " << jitToolchain().Diag;
  Fig2 F;
  PRef Prog = F.compile(2);
  ScopedCache Cache("once");
  std::string Err;
  NativeKernelRef K1 = jitCompile(Prog, Cache.opts(), &Err);
  ASSERT_NE(K1, nullptr) << Err;
  NativeKernelRef K2 = jitCompile(Prog, Cache.opts(), &Err);
  ASSERT_NE(K2, nullptr) << Err;
  EXPECT_EQ(K1.get(), K2.get()); // the same in-process handle
  JitCacheStats St = jitCacheStats();
  EXPECT_EQ(St.Compiles, 1u);
  EXPECT_EQ(St.MemHits, 1u);
  EXPECT_EQ(St.DiskHits, 0u);

  // Drop the in-process handles: the on-disk .so must now be reused
  // without invoking the compiler (the cross-run cold-start path).
  jitResetCacheStatsForTest();
  NativeKernelRef K3 = jitCompile(Prog, Cache.opts(), &Err);
  ASSERT_NE(K3, nullptr) << Err;
  St = jitCacheStats();
  EXPECT_EQ(St.Compiles, 0u);
  EXPECT_EQ(St.DiskHits, 1u);
}

TEST(JitNative, KeyDiscriminatesProgramOptionsAndLayout) {
  if (!jitToolchain().Available)
    GTEST_SKIP() << "no system C compiler: " << jitToolchain().Diag;
  Fig2 F;
  ScopedCache Cache("keys");
  std::string Err;

  // Different optimization of the same contraction => different source
  // => different key.
  NativeKernelRef O0 = jitCompile(F.compile(0), Cache.opts(), &Err);
  NativeKernelRef O2 = jitCompile(F.compile(2), Cache.opts(), &Err);
  ASSERT_TRUE(O0 && O2) << Err;
  EXPECT_NE(O0->key(), O2->key());

  // Step counting changes the emitted source, so it must not collide.
  NativeKernelRef Fast = jitCompile(F.compile(2), Cache.opts(false), &Err);
  ASSERT_NE(Fast, nullptr) << Err;
  EXPECT_NE(Fast->key(), O2->key());

  // The key is a function of the program alone: a fresh lowering of the
  // same contraction lands on the same kernel.
  NativeKernelRef Again = jitCompile(F.compile(2), Cache.opts(), &Err);
  ASSERT_NE(Again, nullptr) << Err;
  EXPECT_EQ(Again->key(), O2->key());

  // A different level format for the same logical expression (hashed
  // instead of sorted-compressed x) lowers to different probe code.
  Rng R(7);
  auto XS = randomSparseVector(R, 100, 20);
  HashedVector<double> XH(100, XS.Crd.size());
  for (size_t I = 0; I < XS.Crd.size(); ++I)
    XH.accumulate(XS.Crd[I], XS.Val[I]);
  XH.freeze();
  VmMemory M;
  int64_t TabSize = bindHashedVector(M, "x", XH);
  LowerCtx HCtx;
  HCtx.OptLevel = 2;
  HCtx.setDim(AI(), 100);
  HCtx.bind(hashedVecBinding("x", AI(), TabSize));
  PRef HProg = compileFullContraction(HCtx, Expr::var("x"), "out");
  LowerCtx SCtx;
  SCtx.OptLevel = 2;
  SCtx.setDim(AI(), 100);
  SCtx.bind(sparseVecBinding("x", AI()));
  PRef SProg = compileFullContraction(SCtx, Expr::var("x"), "out");
  NativeKernelRef HK = jitCompile(HProg, Cache.opts(), &Err);
  NativeKernelRef SK = jitCompile(SProg, Cache.opts(), &Err);
  ASSERT_TRUE(HK && SK) << Err;
  EXPECT_NE(HK->key(), SK->key());
}

TEST(JitNative, CorruptedCacheEntryRecompiles) {
  if (!jitToolchain().Available)
    GTEST_SKIP() << "no system C compiler: " << jitToolchain().Diag;
  Fig2 F;
  PRef Prog = F.compile(2);
  ScopedCache Cache("corrupt");
  std::string Err;
  NativeKernelRef K1 = jitCompile(Prog, Cache.opts(), &Err);
  ASSERT_NE(K1, nullptr) << Err;
  std::string So = Cache.Dir + "/" + K1->key() + ".so";
  ASSERT_TRUE(fs::exists(So));

  // Clobber the cached object, drop the in-process handle, recompile.
  // The loaded kernel is released first, and the file is replaced via a
  // fresh inode (remove + create) rather than truncated in place — the
  // dynamic loader mmaps the .so, and shrinking the mapped inode would
  // SIGBUS the process.
  K1.reset();
  jitResetCacheStatsForTest();
  fs::remove(So);
  {
    std::ofstream Out(So, std::ios::binary);
    Out << "this is not a shared object";
  }
  NativeKernelRef K2 = jitCompile(Prog, Cache.opts(), &Err);
  ASSERT_NE(K2, nullptr) << Err;
  JitCacheStats St = jitCacheStats();
  EXPECT_EQ(St.Recompiles, 1u);
  EXPECT_EQ(St.Compiles, 1u);
  EXPECT_EQ(St.DiskHits, 0u);

  // And the recompiled kernel still runs correctly.
  VmMemory M = F.memory();
  VmRunResult R = K2->run(M);
  ASSERT_FALSE(R.Error.has_value()) << *R.Error;
  EXPECT_EQ(std::get<double>(*M.getScalar("out")), 90.0);
}

TEST(JitNative, CacheHygieneAndEviction) {
  if (!jitToolchain().Available)
    GTEST_SKIP() << "no system C compiler: " << jitToolchain().Diag;
  Fig2 F;
  ScopedCache Cache("hygiene");
  std::string Err;
  for (int Opt : {0, 1, 2})
    ASSERT_NE(jitCompile(F.compile(Opt), Cache.opts(), &Err), nullptr)
        << Err;

  // Every file in the cache dir is a content-addressed .c/.so pair —
  // no temp files, no stray names.
  size_t Files = 0;
  for (const auto &Ent : fs::directory_iterator(Cache.Dir)) {
    ++Files;
    std::string Name = Ent.path().filename().string();
    std::string Stem = Ent.path().stem().string();
    std::string Ext = Ent.path().extension().string();
    EXPECT_TRUE(Ext == ".c" || Ext == ".so") << Name;
    EXPECT_EQ(Stem.size(), 64u) << Name;
    EXPECT_EQ(Stem.find_first_not_of("0123456789abcdef"), std::string::npos)
        << Name;
  }
  EXPECT_EQ(Files, 6u); // three kernels, .c + .so each

  // Eviction to zero bytes clears the directory entirely.
  EXPECT_GT(jitEvictCache(Cache.Dir, 0), 0);
  EXPECT_TRUE(fs::is_empty(Cache.Dir));
}

//===----------------------------------------------------------------------===//
// Prepared dispatch (NativeCall)
//===----------------------------------------------------------------------===//

TEST(JitNative, PreparedCallRepeatedInvokeIsStable) {
  // The hash-destination kernel writes into its bound arrays; NativeCall
  // must re-seed them from the pristine copy so every invoke sees the
  // same initial memory.
  if (!jitToolchain().Available)
    GTEST_SKIP() << "no system C compiler: " << jitToolchain().Diag;
  Rng R(43);
  auto A = randomCsr(R, 10, 30, 45);
  LowerCtx Ctx;
  Ctx.setDim(AI(), 10);
  Ctx.setDim(AJ(), 30);
  Ctx.bind(csrBinding("A", AI(), AJ()));
  const int64_t TabSize = 64;
  PRef Prog = PStmt::seq2(
      PStmt::declVar("gcnt", ImpType::I64, eConstI(0)),
      compileExpr(Ctx, Expr::sum(AI(), Expr::var("A")),
                  hashDest(f64Algebra(), "gkey", "gval", "gcnt", TabSize)));

  VmMemory Init;
  bindCsr(Init, "A", A);
  Init.setArrayI64("gkey", std::vector<int64_t>(TabSize, -1));
  Init.setArrayF64("gval", std::vector<double>(TabSize, 0.0));

  VmMemory TreeM = Init;
  VmRunResult TreeR = vmRun(Prog, TreeM);
  ASSERT_FALSE(TreeR.Error.has_value());
  int64_t Want = std::get<int64_t>(*TreeM.getScalar("gcnt"));
  const std::vector<ImpValue> &WantKey = *TreeM.getArray("gkey");
  const std::vector<ImpValue> &WantVal = *TreeM.getArray("gval");

  ScopedCache Cache("prepared");
  std::string Err;
  NativeKernelRef K = jitCompile(Prog, Cache.opts(false), &Err);
  ASSERT_NE(K, nullptr) << Err;
  NativeCall Call(K);
  ASSERT_TRUE(Call.bind(Init, &Err)) << Err;
  for (int I = 0; I < 3; ++I) {
    VmRunResult CR = Call.invoke();
    ASSERT_FALSE(CR.Error.has_value()) << *CR.Error;
    auto Got = Call.scalar("gcnt");
    ASSERT_TRUE(Got.has_value());
    EXPECT_EQ(std::get<int64_t>(*Got), Want) << "invoke " << I;
    // The tables the kernel filled in place read back bit-identical to
    // the tree VM's, invoke after invoke.
    auto GotKey = Call.array("gkey");
    auto GotVal = Call.array("gval");
    ASSERT_TRUE(GotKey && GotVal) << "invoke " << I;
    ASSERT_EQ(GotKey->size(), WantKey.size());
    ASSERT_EQ(GotVal->size(), WantVal.size());
    for (size_t J = 0; J < WantKey.size(); ++J) {
      EXPECT_TRUE(bitsEq((*GotKey)[J], WantKey[J])) << "invoke " << I;
      EXPECT_TRUE(bitsEq((*GotVal)[J], WantVal[J])) << "invoke " << I;
    }
  }
  // bind()'s source memory is never written.
  EXPECT_FALSE(Init.getScalar("gcnt").has_value());
}

//===----------------------------------------------------------------------===//
// Fallback: no usable compiler
//===----------------------------------------------------------------------===//

TEST(JitNative, BogusCompilerFallsBackToBytecode) {
  // Point the toolchain at a nonexistent compiler: jitCompile must decline
  // with a diagnostic (not abort). The caller runs bytecode and names the
  // reason (Serve.BogusCompilerDegradesToANamedBytecodePlan).
  const char *OldCc = std::getenv("ETCH_CC");
  std::string Saved = OldCc ? OldCc : "";
  setenv("ETCH_CC", "/nonexistent/etch-no-such-cc", 1);
  jitResetToolchainForTest();

  EXPECT_FALSE(jitToolchain().Available);
  EXPECT_FALSE(jitToolchain().Diag.empty());

  Fig2 F;
  PRef Prog = F.compile(2);
  std::string Err;
  EXPECT_EQ(jitCompile(Prog, {}, &Err), nullptr);
  EXPECT_EQ(Err.rfind("no native toolchain: ", 0), 0u) << Err;

  // Restore the real toolchain for the remaining tests.
  if (OldCc)
    setenv("ETCH_CC", Saved.c_str(), 1);
  else
    unsetenv("ETCH_CC");
  jitResetToolchainForTest();
}

TEST(JitNative, SourceSizeCapDeclinesAndFallsBack) {
  if (!jitToolchain().Available)
    GTEST_SKIP() << "no native toolchain: " << jitToolchain().Diag;
  ScopedCache Cache("sizecap");

  // Deeply nested fuzz programs can lower to megabytes of C that cc -O2
  // chews on for minutes; past MaxSourceBytes jitCompile must decline
  // with the stable too-large prefix instead of invoking the compiler.
  Fig2 F;
  PRef Prog = F.compile(2);
  JitOptions JO = Cache.opts(false);
  JO.MaxSourceBytes = 16; // Every real kernel exceeds this.
  std::string Err;
  EXPECT_EQ(jitCompile(Prog, JO, &Err), nullptr);
  EXPECT_EQ(Err.rfind(JitSourceTooLargePrefix, 0), 0u) << Err;
  // The compiler was never invoked and nothing landed in the cache dir.
  EXPECT_EQ(jitCacheStats().Compiles, 0u);
  std::error_code Ec;
  EXPECT_TRUE(!fs::exists(Cache.Dir, Ec) || fs::is_empty(Cache.Dir, Ec));

  // The default cap leaves ~100x headroom over real kernels: the same
  // program compiles untouched under default options.
  std::string Err2;
  EXPECT_NE(jitCompile(Prog, Cache.opts(false), &Err2), nullptr) << Err2;
}

} // namespace
