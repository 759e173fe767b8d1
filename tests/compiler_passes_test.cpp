//===- tests/compiler_passes_test.cpp - Pass pipeline over P -------------===//
//
// Part of the etch project.
//
//===----------------------------------------------------------------------===//
//
// Tests for the compiler's pass-pipeline layer: the rewriter
// infrastructure, the IR verifier (accepting the compiled corpus,
// rejecting ill-formed programs), the individual passes, and the
// end-to-end properties the pipeline promises — bit-identical VM results
// across opt levels with strictly fewer VM steps on the Fig. 2 kernel and
// a TPC-H revenue query, plus golden checks on the emitted C.
//
//===----------------------------------------------------------------------===//

#include "compiler/c_emit.h"
#include "compiler/frontend.h"
#include "compiler/passes.h"
#include "relational/tpch.h"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdio>
#include <fstream>

using namespace etch;

namespace {

Attr attrAt(size_t K) {
  static const std::array<Attr, 2> As = {Attr::named("pp_o"),
                                         Attr::named("pp_l")};
  return As[K];
}
Attr attrO() { return attrAt(0); }
Attr attrL() { return attrAt(1); }

ERef eVarB(std::string N) { return EExpr::var(std::move(N), ImpType::Bool); }
ERef eVarF(std::string N) { return EExpr::var(std::move(N), ImpType::F64); }
ERef eMulI(ERef A, ERef B) {
  return EExpr::call(Ops::mulI(), {std::move(A), std::move(B)});
}

SparseVector<double> vec(Idx Size, std::vector<std::pair<Idx, double>> Es) {
  SparseVector<double> V(Size);
  for (auto [I, X] : Es)
    V.push(I, X);
  return V;
}

//===----------------------------------------------------------------------===//
// Rewriter infrastructure
//===----------------------------------------------------------------------===//

TEST(Rewriter, NoopRewritePreservesSharing) {
  ERef E = eAddI(eVarI("a"), eMaxI(eVarI("b"), eConstI(3)));
  ERef Same = rewriteExpr(E, [](const ERef &) -> ERef { return nullptr; });
  EXPECT_EQ(Same, E); // Pointer-equal: nothing was reallocated.

  PRef P = PStmt::whileLoop(eLtI(eVarI("p"), eVarI("e")),
                            PStmt::storeVar("p", eAddI(eVarI("p"),
                                                       eConstI(1))));
  PRef SameP = rewriteProgram(P, nullptr, nullptr);
  EXPECT_EQ(SameP, P);
}

TEST(Rewriter, SubstituteVar) {
  ERef E = eAddI(eVarI("a"), eMaxI(eVarI("t"), eConstI(3)));
  ERef R = substituteVar(E, "t", eConstI(5));
  EXPECT_EQ(R->toString(), eAddI(eVarI("a"), eMaxI(eConstI(5),
                                                   eConstI(3)))->toString());
  // Untouched operand is shared, not copied.
  EXPECT_EQ(R->args()[0], E->args()[0]);
}

TEST(Rewriter, ExprEqualsIsStructural) {
  EXPECT_TRUE(exprEquals(eAddI(eVarI("x"), eConstI(1)),
                         eAddI(eVarI("x"), eConstI(1))));
  EXPECT_FALSE(exprEquals(eAddI(eVarI("x"), eConstI(1)),
                          eAddI(eVarI("x"), eConstI(2))));
  EXPECT_FALSE(exprEquals(eConstI(1), eConstF(1.0)));
}

TEST(Rewriter, ConjunctionFlattening) {
  ERef A = eLtI(eVarI("p"), eVarI("e"));
  ERef B = eEqI(eVarI("i"), eConstI(4));
  ERef C = eNot(eVarB("done"));
  std::vector<ERef> Conj;
  flattenConjuncts(eAnd(eAnd(A, B), C), Conj);
  ASSERT_EQ(Conj.size(), 3u);
  EXPECT_TRUE(exprEquals(Conj[0], A));
  EXPECT_TRUE(exprEquals(Conj[1], B));
  EXPECT_TRUE(exprEquals(buildConjunction({}), eBool(true)));
}

//===----------------------------------------------------------------------===//
// Individual passes
//===----------------------------------------------------------------------===//

TEST(Passes, ConstantFolding) {
  PRef P = PStmt::storeVar("x", eMulI(eAddI(eConstI(1), eConstI(2)),
                                      eVarI("y")));
  PRef F = foldConstantsPass(P);
  EXPECT_EQ(F->valueExpr()->toString(),
            eMulI(eConstI(3), eVarI("y"))->toString());

  // Division by zero must NOT fold; the trap stays at runtime.
  PRef D = PStmt::storeVar(
      "x", EExpr::call(Ops::divI(), {eConstI(4), eConstI(0)}));
  EXPECT_EQ(foldConstantsPass(D), D);

  // Lazy ops with a constant first argument short-circuit.
  PRef L = PStmt::storeVar("b", eAnd(eBool(true), eVarB("c")));
  EXPECT_EQ(foldConstantsPass(L)->valueExpr()->toString(),
            eVarB("c")->toString());
}

TEST(Passes, AlgebraicSimplification) {
  auto Simp1 = [](ERef E) {
    return simplifyAlgebraPass(PStmt::storeVar("r", std::move(E)))
        ->valueExpr();
  };
  EXPECT_EQ(Simp1(eAddI(eVarI("x"), eConstI(0)))->toString(),
            eVarI("x")->toString());
  EXPECT_EQ(Simp1(eMulI(eVarI("x"), eConstI(0)))->toString(),
            eConstI(0)->toString());
  // The dense-level skip shape: max(i, i + 1) == i + 1.
  EXPECT_EQ(Simp1(eMaxI(eVarI("i"), eAddI(eVarI("i"), eConstI(1))))
                ->toString(),
            eAddI(eVarI("i"), eConstI(1))->toString());
  EXPECT_EQ(Simp1(eMinI(eVarI("i"), eI64Max()))->toString(),
            eVarI("i")->toString());
  // 0.0 * x is NOT folded at f64 (NaN/Inf), but x * 1.0 is.
  ERef MF0 = EExpr::call(Ops::mulF(), {eConstF(0.0), eVarF("v")});
  EXPECT_EQ(Simp1(MF0)->toString(), MF0->toString());
  EXPECT_EQ(Simp1(EExpr::call(Ops::mulF(), {eVarF("v"), eConstF(1.0)}))
                ->toString(),
            eVarF("v")->toString());
  // A huge addend could wrap x + c below x; the max(x, x+c) rewrite is
  // capped to small constants and must leave this alone.
  ERef Big = eMaxI(eVarI("i"), eAddI(eVarI("i"), eConstI(5000)));
  EXPECT_EQ(Simp1(Big)->toString(), Big->toString());
}

TEST(Passes, ControlFlowCleanup) {
  PRef A = PStmt::storeVar("x", eConstI(1));
  PRef B = PStmt::storeVar("x", eConstI(2));
  EXPECT_EQ(cleanControlFlowPass(PStmt::branch(eBool(true), A, B)), A);
  EXPECT_EQ(cleanControlFlowPass(PStmt::whileLoop(eBool(false), A))->kind(),
            PKind::Noop);
  EXPECT_EQ(cleanControlFlowPass(PStmt::storeVar("x", eVarI("x")))->kind(),
            PKind::Noop);
}

TEST(Passes, DeadStoreEliminationRespectsLiveOut) {
  // skc is declared and never read: dead. out is declared and never read,
  // but listed live-out: kept. ext is never declared in-program: kept.
  PRef P = PStmt::seq({PStmt::declVar("skc", ImpType::I64, eConstI(0)),
                       PStmt::declVar("out", ImpType::F64, eConstF(0.0)),
                       PStmt::storeVar("out", eConstF(2.0)),
                       PStmt::storeVar("ext", eConstI(7))});
  PipelineOptions Opts;
  Opts.LiveOut = {"out"};
  PRef R = eliminateDeadStoresPass(P, Opts);
  std::string S = R->toString();
  EXPECT_EQ(S.find("skc"), std::string::npos);
  EXPECT_NE(S.find("out"), std::string::npos);
  EXPECT_NE(S.find("ext"), std::string::npos);
}

TEST(Passes, ForwardSubstitution) {
  // t = i; i = max(i, t + 1)  ==>  i = max(i, i + 1) — the latch shape the
  // skip snapshot produces at dense levels.
  PRef P = PStmt::seq(
      {PStmt::declVar("t", ImpType::I64, eVarI("i")),
       PStmt::storeVar("i", eMaxI(eVarI("i"), eAddI(eVarI("t"),
                                                    eConstI(1))))});
  PRef R = forwardSubstitutePass(P);
  ASSERT_EQ(R->kind(), PKind::StoreVar);
  EXPECT_EQ(R->valueExpr()->toString(),
            eMaxI(eVarI("i"), eAddI(eVarI("i"), eConstI(1)))->toString());
}

TEST(Passes, ForwardSubstitutionRespectsLiveOut) {
  PRef P = PStmt::seq(
      {PStmt::declVar("t", ImpType::I64, eAddI(eVarI("i"), eConstI(1))),
       PStmt::storeVar("out", eVarI("t"))});
  // By default t is a pure temporary and is inlined away.
  EXPECT_EQ(forwardSubstitutePass(P)->kind(), PKind::StoreVar);
  // A live-out temporary's declaration must survive for the caller's
  // post-run read.
  PipelineOptions Opts;
  Opts.LiveOut = {"t"};
  EXPECT_EQ(forwardSubstitutePass(P, Opts), P);
}

TEST(Passes, ImpliedConditionElimination) {
  // while (a && b) { if (a && b && c) .. else .. } — the branch keeps only
  // c; the loop's own conjuncts are facts inside the body (the body writes
  // nothing they read).
  ERef A = eLtI(eVarI("p"), eVarI("e"));
  ERef B = eLtI(eVarI("q"), eVarI("f"));
  ERef C = eEqI(eVarI("i"), eConstI(3));
  PRef Branch = PStmt::branch(eAnd(eAnd(A, B), C),
                              PStmt::storeVar("acc", eConstI(1)),
                              PStmt::noop());
  PRef Loop = PStmt::whileLoop(
      eAnd(A, B), PStmt::seq2(Branch, PStmt::storeVar("i", eConstI(9))));
  PRef R = eliminateImpliedConditionsPass(Loop);
  const PRef &NewBranch = R->children()[0]->children()[0];
  ASSERT_EQ(NewBranch->kind(), PKind::Branch);
  EXPECT_TRUE(exprEquals(NewBranch->cond(), C));

  // A fact invalidated by an intervening write must survive in the
  // condition: here the branch writes p before re-testing A.
  PRef Clobber = PStmt::whileLoop(
      A, PStmt::seq2(PStmt::storeVar("p", eAddI(eVarI("p"), eConstI(1))),
                     PStmt::branch(A, PStmt::storeVar("acc", eConstI(1)),
                                   PStmt::noop())));
  PRef R2 = eliminateImpliedConditionsPass(Clobber);
  const PRef &Kept = R2->children()[0]->children()[1];
  ASSERT_EQ(Kept->kind(), PKind::Branch);
  EXPECT_TRUE(exprEquals(Kept->cond(), A));
}

TEST(Passes, LoopInvariantHoisting) {
  // end = pos[1] is re-read from the array every iteration of the
  // condition; it is invariant, so it is hoisted into a fresh temporary.
  ERef End = EExpr::access("pos", ImpType::I64, eConstI(1));
  PRef Loop = PStmt::whileLoop(
      eLtI(eVarI("p"), End),
      PStmt::storeVar("p", eAddI(eVarI("p"), eConstI(1))));
  PRef R = hoistLoopInvariantsPass(Loop);
  ASSERT_EQ(R->kind(), PKind::Seq);
  ASSERT_EQ(R->children().size(), 2u);
  EXPECT_EQ(R->children()[0]->kind(), PKind::DeclVar);
  EXPECT_TRUE(exprEquals(R->children()[0]->valueExpr(), End));
  // The loop condition now reads the temporary, not the array.
  EXPECT_EQ(R->children()[1]->cond()->toString().find("pos"),
            std::string::npos);
}

TEST(Passes, HoistingSkipsLazilyGuardedConditionSubtrees) {
  // while (p < pos[1] && A[j] == v) { p = p + 1 }: pos[1] sits on the
  // unconditionally-evaluated spine of the condition and hoists, but
  // A[j] == v is guarded by the short-circuit — when p >= pos[1] initially
  // the original program never evaluates A[j] (which may be out of
  // bounds), so it must stay inside the guard.
  ERef Spine =
      eLtI(eVarI("p"), EExpr::access("pos", ImpType::I64, eConstI(1)));
  ERef Guarded =
      eEqI(EExpr::access("A", ImpType::I64, eVarI("j")), eVarI("v"));
  PRef Loop = PStmt::whileLoop(
      eAnd(Spine, Guarded),
      PStmt::storeVar("p", eAddI(eVarI("p"), eConstI(1))));
  PRef R = hoistLoopInvariantsPass(Loop);
  ASSERT_EQ(R->kind(), PKind::Seq);
  // Exactly one hoisted declaration: the pos[1] read.
  ASSERT_EQ(R->children().size(), 2u);
  ASSERT_EQ(R->children()[0]->kind(), PKind::DeclVar);
  EXPECT_NE(R->children()[0]->valueExpr()->toString().find("pos"),
            std::string::npos);
  // The guarded access is still evaluated (lazily) inside the condition.
  EXPECT_NE(R->children()[1]->cond()->toString().find("A"),
            std::string::npos);
}

TEST(Passes, HoistingAvoidsExternalNamesAndIsDeterministic) {
  // The body reads a caller-bound scalar that happens to carry the
  // hoister's preferred fresh name; the new declaration must not shadow
  // it, and two runs over the same program must emit identical names.
  ERef End = EExpr::access("pos", ImpType::I64, eConstI(1));
  PRef Loop = PStmt::whileLoop(
      eLtI(eVarI("p"), End),
      PStmt::storeVar("p", eAddI(eVarI("p"), eVarI("liv0"))));
  PRef R1 = hoistLoopInvariantsPass(Loop);
  ASSERT_EQ(R1->kind(), PKind::Seq);
  ASSERT_EQ(R1->children()[0]->kind(), PKind::DeclVar);
  EXPECT_NE(R1->children()[0]->name(), "liv0");
  EXPECT_EQ(hoistLoopInvariantsPass(Loop)->toString(), R1->toString());
}

//===----------------------------------------------------------------------===//
// Verifier
//===----------------------------------------------------------------------===//

TEST(Verifier, AcceptsCompiledCorpus) {
  auto X = vec(10, {{1, 2.0}, {4, 3.0}, {7, 5.0}});
  auto Y = vec(10, {{0, 1.0}, {4, 2.0}, {9, 9.0}});
  for (int Opt = 0; Opt <= 2; ++Opt) {
    LowerCtx Ctx;
    Ctx.OptLevel = Opt;
    Ctx.setDim(attrO(), 10);
    Ctx.bind(sparseVecBinding("x", attrO()));
    Ctx.bind(sparseVecBinding("y", attrO()));
    PRef P = compileFullContraction(Ctx, Expr::var("x") * Expr::var("y"),
                                    "out");
    auto Err = verifyProgram(P);
    EXPECT_FALSE(Err.has_value()) << "O" << Opt << ": " << *Err;
  }
}

TEST(Verifier, RejectsTypeInconsistentStore) {
  PRef P = PStmt::seq2(PStmt::declVar("v", ImpType::I64, eConstI(0)),
                       PStmt::storeVar("v", eConstF(1.0)));
  auto Err = verifyProgram(P);
  ASSERT_TRUE(Err.has_value());
  EXPECT_NE(Err->find("'v'"), std::string::npos);
}

TEST(Verifier, RejectsScalarArrayConflict) {
  PRef P = PStmt::seq2(PStmt::declArr("a", ImpType::F64, eConstI(4)),
                       PStmt::storeVar("a", eConstI(1)));
  auto Err = verifyProgram(P);
  ASSERT_TRUE(Err.has_value());
  EXPECT_NE(Err->find("scalar and as array"), std::string::npos);
}

TEST(Verifier, RejectsStoreBeforeDecl) {
  PRef P = PStmt::seq2(PStmt::storeVar("v", eConstI(1)),
                       PStmt::declVar("v", ImpType::I64, eConstI(0)));
  auto Err = verifyProgram(P);
  ASSERT_TRUE(Err.has_value());
  EXPECT_NE(Err->find("before"), std::string::npos);
}

TEST(Verifier, DeclMustDominateUse) {
  // Declared only in the then-arm: a read after the branch is undefined
  // on the else path.
  PRef OneArm = PStmt::seq2(
      PStmt::branch(eVarB("c"),
                    PStmt::declVar("v", ImpType::I64, eConstI(1)),
                    PStmt::noop()),
      PStmt::storeVar("out", eVarI("v")));
  auto Err = verifyProgram(OneArm);
  ASSERT_TRUE(Err.has_value());
  EXPECT_NE(Err->find("'v'"), std::string::npos);

  // Declared in both arms: the declaration dominates the continuation.
  PRef BothArms = PStmt::seq2(
      PStmt::branch(eVarB("c"),
                    PStmt::declVar("v", ImpType::I64, eConstI(1)),
                    PStmt::declVar("v", ImpType::I64, eConstI(2))),
      PStmt::storeVar("out", eVarI("v")));
  EXPECT_FALSE(verifyProgram(BothArms).has_value());

  // Declared inside a loop body: the loop may run zero times, so the
  // declaration does not dominate uses after it.
  PRef InLoop = PStmt::seq2(
      PStmt::whileLoop(eVarB("c"),
                       PStmt::declVar("v", ImpType::I64, eConstI(1))),
      PStmt::storeVar("out", eVarI("v")));
  EXPECT_TRUE(verifyProgram(InLoop).has_value());
}

//===----------------------------------------------------------------------===//
// Step-count reductions (Fig. 2 and a TPC-H revenue query)
//===----------------------------------------------------------------------===//

struct CompiledAtLevel {
  PRef Program;
  double Result = 0.0;
  int64_t Steps = 0;
};

TEST(StepCounts, Fig2TripleProductShrinksAtO1) {
  auto X = vec(10, {{1, 2.0}, {4, 3.0}, {7, 5.0}});
  auto Y = vec(10, {{0, 1.0}, {4, 2.0}, {7, 2.0}, {9, 9.0}});
  auto Z = vec(10, {{4, 10.0}, {7, 3.0}, {8, 1.0}});

  auto RunAt = [&](int Opt) {
    LowerCtx Ctx;
    Ctx.OptLevel = Opt;
    Ctx.setDim(attrO(), 10);
    Ctx.bind(sparseVecBinding("x", attrO()));
    Ctx.bind(sparseVecBinding("y", attrO()));
    Ctx.bind(sparseVecBinding("z", attrO()));
    VmMemory M;
    bindSparseVector(M, "x", X);
    bindSparseVector(M, "y", Y);
    bindSparseVector(M, "z", Z);
    CompiledAtLevel C;
    C.Program = compileFullContraction(
        Ctx, Expr::var("x") * Expr::var("y") * Expr::var("z"), "out");
    VmRunResult R = vmRun(C.Program, M);
    EXPECT_FALSE(R.Error.has_value()) << *R.Error;
    C.Result = std::get<double>(*M.getScalar("out"));
    C.Steps = R.Steps;
    return C;
  };

  CompiledAtLevel O0 = RunAt(0), O1 = RunAt(1), O2 = RunAt(2);
  // Bit-identical results at every level.
  EXPECT_EQ(O0.Result, 90.0);
  EXPECT_EQ(O1.Result, O0.Result);
  EXPECT_EQ(O2.Result, O0.Result);
  // The pipeline strictly reduces the VM step count.
  EXPECT_LT(O1.Steps, O0.Steps)
      << "O0=" << O0.Steps << " O1=" << O1.Steps;
  EXPECT_LT(O2.Steps, O0.Steps);
  RecordProperty("fig2_steps_O0", std::to_string(O0.Steps));
  RecordProperty("fig2_steps_O1", std::to_string(O1.Steps));
  RecordProperty("fig2_steps_O2", std::to_string(O2.Steps));
  std::printf("[fig2] VM steps: O0=%lld O1=%lld O2=%lld\n",
              static_cast<long long>(O0.Steps),
              static_cast<long long>(O1.Steps),
              static_cast<long long>(O2.Steps));
}

TEST(StepCounts, TpchRevenueQueryShrinksAtO1) {
  // A Q6/Q5-fragment revenue query pushed through the contraction
  // compiler: revenue = Σ_o Σ_l L(o, l) · f(o), where L is a CSR-shaped
  // lineitem tensor (order → line position, values extendedprice ·
  // (1 − discount)) and f is the sparse 0/1 filter of orders inside the
  // Q5 date window.
  TpchDb Db = generateTpch(0.005);
  const Idx NumOrders = static_cast<Idx>(Db.numOrders());

  std::vector<CooEntry<double>> Coo;
  {
    std::vector<Idx> NextLine(static_cast<size_t>(NumOrders), 0);
    for (size_t K = 0; K < Db.numLineitems(); ++K) {
      Idx O = Db.LiOrder[K];
      Coo.push_back({O, NextLine[static_cast<size_t>(O)]++,
                     Db.LiExtendedPrice[K] * (1.0 - Db.LiDiscount[K])});
    }
  }
  auto L = CsrMatrix<double>::fromCoo(NumOrders, 8, std::move(Coo));

  SparseVector<double> F(NumOrders);
  for (Idx O = 0; O < NumOrders; ++O)
    if (Db.OrdDate[static_cast<size_t>(O)] >= TpchDb::q5DateLo() &&
        Db.OrdDate[static_cast<size_t>(O)] < TpchDb::q5DateHi())
      F.push(O, 1.0);

  double Want = 0.0;
  for (size_t K = 0; K < Db.numLineitems(); ++K) {
    Idx D = Db.OrdDate[static_cast<size_t>(Db.LiOrder[K])];
    if (D >= TpchDb::q5DateLo() && D < TpchDb::q5DateHi())
      Want += Db.LiExtendedPrice[K] * (1.0 - Db.LiDiscount[K]);
  }

  auto RunAt = [&](int Opt) {
    LowerCtx Ctx;
    Ctx.OptLevel = Opt;
    Ctx.setDim(attrO(), NumOrders);
    Ctx.setDim(attrL(), 8);
    Ctx.bind(csrBinding("L", attrO(), attrL()));
    Ctx.bind(sparseVecBinding("f", attrO()));
    VmMemory M;
    bindCsr(M, "L", L);
    bindSparseVector(M, "f", F);
    std::string Err;
    ExprPtr Prod = mulExpand(Expr::var("L"), Expr::var("f"), Ctx.types(),
                             &Err);
    EXPECT_NE(Prod, nullptr) << Err;
    CompiledAtLevel C;
    C.Program = compileFullContraction(Ctx, Prod, "revenue");
    VmRunResult R = vmRun(C.Program, M);
    EXPECT_FALSE(R.Error.has_value()) << *R.Error;
    C.Result = std::get<double>(*M.getScalar("revenue"));
    C.Steps = R.Steps;
    return C;
  };

  CompiledAtLevel O0 = RunAt(0), O1 = RunAt(1);
  EXPECT_NEAR(O0.Result, Want, 1e-6 * std::abs(Want));
  EXPECT_EQ(O1.Result, O0.Result); // Bit-identical across levels.
  EXPECT_LT(O1.Steps, O0.Steps)
      << "O0=" << O0.Steps << " O1=" << O1.Steps;
  RecordProperty("tpch_steps_O0", std::to_string(O0.Steps));
  RecordProperty("tpch_steps_O1", std::to_string(O1.Steps));
  std::printf("[tpch-revenue] VM steps: O0=%lld O1=%lld\n",
              static_cast<long long>(O0.Steps),
              static_cast<long long>(O1.Steps));
}

//===----------------------------------------------------------------------===//
// Golden C emission at -O0 / -O1
//===----------------------------------------------------------------------===//

std::string compileAndRunC(const std::string &Source, const char *Tag) {
  std::string Dir = ::testing::TempDir();
  std::string CPath = Dir + "/golden_" + Tag + ".c";
  std::string BinPath = Dir + "/golden_" + Tag;
  {
    std::ofstream Out(CPath);
    Out << Source;
  }
  std::string Cmd = "cc -O1 -o " + BinPath + " " + CPath + " 2>&1";
  FILE *Pipe = popen(Cmd.c_str(), "r");
  EXPECT_NE(Pipe, nullptr);
  char Buf[4096];
  std::string CompileOut;
  while (fgets(Buf, sizeof(Buf), Pipe))
    CompileOut += Buf;
  EXPECT_EQ(pclose(Pipe), 0) << "C compile failed:\n" << CompileOut;
  Pipe = popen(BinPath.c_str(), "r");
  EXPECT_NE(Pipe, nullptr);
  std::string RunOut;
  while (fgets(Buf, sizeof(Buf), Pipe))
    RunOut += Buf;
  EXPECT_EQ(pclose(Pipe), 0);
  return RunOut;
}

TEST(GoldenC, Fig2AtBothOptLevels) {
  auto X = vec(10, {{1, 2.0}, {4, 3.0}, {7, 5.0}});
  auto Y = vec(10, {{0, 1.0}, {4, 2.0}, {7, 2.0}, {9, 9.0}});
  auto Z = vec(10, {{4, 10.0}, {7, 3.0}, {8, 1.0}});

  auto EmitAt = [&](int Opt, PRef *ProgOut, VmMemory *MemOut) {
    LowerCtx Ctx;
    Ctx.OptLevel = Opt;
    Ctx.setDim(attrO(), 10);
    Ctx.bind(sparseVecBinding("x", attrO()));
    Ctx.bind(sparseVecBinding("y", attrO()));
    Ctx.bind(sparseVecBinding("z", attrO()));
    VmMemory M;
    bindSparseVector(M, "x", X);
    bindSparseVector(M, "y", Y);
    bindSparseVector(M, "z", Z);
    PRef P = compileFullContraction(
        Ctx, Expr::var("x") * Expr::var("y") * Expr::var("z"), "out");
    *ProgOut = P;
    std::string Src = emitCProgram(P, M, {{"out"}, {}});
    *MemOut = std::move(M);
    return Src;
  };

  PRef P0, P1;
  VmMemory M0, M1;
  std::string Src0 = EmitAt(0, &P0, &M0);
  std::string Src1 = EmitAt(1, &P1, &M1);

  // Golden structure: the unoptimized kernel carries the dead skip
  // latches (`skc = <index>` before every skip call at a contracted
  // level); the optimized one must not.
  EXPECT_NE(Src0.find("skc"), std::string::npos);
  EXPECT_EQ(Src1.find("skc"), std::string::npos);
  // And it must be smaller outright.
  EXPECT_LT(countStmtNodes(P1), countStmtNodes(P0));
  EXPECT_LT(Src1.size(), Src0.size());

  // Cross-check: both compile with the system C compiler and agree with
  // the VM.
  EXPECT_EQ(compileAndRunC(Src0, "fig2_o0"), "out=90\n");
  EXPECT_EQ(compileAndRunC(Src1, "fig2_o1"), "out=90\n");
  auto E0 = vmExecute(P0, M0);
  auto E1 = vmExecute(P1, M1);
  ASSERT_FALSE(E0.has_value()) << *E0;
  ASSERT_FALSE(E1.has_value()) << *E1;
  EXPECT_EQ(std::get<double>(*M0.getScalar("out")), 90.0);
  EXPECT_EQ(std::get<double>(*M1.getScalar("out")), 90.0);
}

TEST(GoldenC, FreshLoweringsEmitIdenticalText) {
  // One kernel per program: every temporary (skip latches, snapshots,
  // hash-slot variables) is named by the compilation's own generator, so
  // two fresh lowerings of one expression emit byte-identical C no matter
  // what the process compiled in between.
  VmMemory M;
  bindSparseVector(M, "x", vec(10, {{1, 2.0}, {4, 3.0}}));
  bindSparseVector(M, "y", vec(10, {{4, 2.0}, {9, 9.0}}));
  auto Contraction = [&] {
    LowerCtx Ctx;
    Ctx.OptLevel = 0;
    Ctx.setDim(attrO(), 10);
    Ctx.bind(sparseVecBinding("x", attrO()));
    Ctx.bind(sparseVecBinding("y", attrO()));
    return emitCProgram(
        compileFullContraction(Ctx, Expr::var("x") * Expr::var("y"), "out"),
        M, {{"out"}, {}});
  };
  std::string C1 = Contraction();
  EXPECT_NE(C1.find("skc"), std::string::npos);
  EXPECT_NE(C1.find("skt"), std::string::npos);
  EXPECT_EQ(Contraction(), C1);

  // A group-by into a hash-table destination: Σ_o L(o, l) keyed by l.
  const int64_t TabSize = 16;
  VmMemory G;
  G.setArrayI64("L_pos1", {0, 2, 3});
  G.setArrayI64("L_crd1", {1, 3, 3});
  G.setArrayF64("L_vals", {1.0, 2.0, 4.0});
  G.setArrayI64("gkey", std::vector<int64_t>(TabSize, -1));
  G.setArrayF64("gval", std::vector<double>(TabSize, 0.0));
  auto GroupBy = [&] {
    LowerCtx Ctx;
    Ctx.setDim(attrO(), 2);
    Ctx.setDim(attrL(), 4);
    Ctx.bind(csrBinding("L", attrO(), attrL()));
    PRef P = PStmt::seq2(
        PStmt::declVar("gcnt", ImpType::I64, eConstI(0)),
        compileExpr(Ctx, Expr::sum(attrO(), Expr::var("L")),
                    hashDest(f64Algebra(), "gkey", "gval", "gcnt", TabSize)));
    return emitCProgram(P, G, {{"gcnt"}, {}});
  };
  std::string H1 = GroupBy();
  EXPECT_NE(H1.find("hsl"), std::string::npos);
  EXPECT_EQ(GroupBy(), H1);
}

//===----------------------------------------------------------------------===//
// Pipeline statistics plumbing
//===----------------------------------------------------------------------===//

TEST(PassManager, CollectsPerPassStatistics) {
  LowerCtx Ctx;
  Ctx.CollectStats = true;
  Ctx.setDim(attrO(), 10);
  Ctx.bind(sparseVecBinding("x", attrO()));
  Ctx.bind(sparseVecBinding("y", attrO()));
  (void)compileFullContraction(Ctx, Expr::var("x") * Expr::var("y"), "out");
  ASSERT_FALSE(Ctx.LastPipeline.Stats.empty());
  // The O1 pipeline must shrink the program overall.
  EXPECT_LT(Ctx.LastPipeline.Stats.back().StmtsAfter,
            Ctx.LastPipeline.Stats.front().StmtsBefore);
  bool AnyChanged = false;
  for (const PassStats &S : Ctx.LastPipeline.Stats)
    AnyChanged |= S.changed();
  EXPECT_TRUE(AnyChanged);
  EXPECT_NE(Ctx.LastPipeline.toString().find("dse"), std::string::npos);
}

} // namespace
