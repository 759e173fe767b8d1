//===- tools/etch_plan_main.cpp - EXPLAIN for contraction plans -----------===//
//
// Part of the etch project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `etch-plan` command line tool: builds a demo contraction over
/// randomly generated inputs, runs the cost-based planner, and prints the
/// ranked orders plus the full EXPLAIN report of the winner.
///
///   etch-plan --demo matmul [--n N] [--nnz NNZ] [--seed S]
///   etch-plan --demo triangle [--n N] [--edges E] [--seed S] [--worst-case]
///   etch-plan --demo matmul --all        # EXPLAIN every enumerated plan
///   etch-plan --demo matmul --execute --backend native
///                                        # run the winning plan
///
/// `--execute` realizes the winning plan, binds the demo data (transposed
/// where the plan says so), compiles it, and runs it on the chosen
/// executor: the tree VM, the bytecode VM, or the JIT-to-native backend.
/// The native backend compiles the kernel with jitCompile and runs it
/// twice to show the content-addressed cache at work, reporting the jit
/// cache counters. When the JIT declines (no C compiler, a compile error,
/// the source-size cap) the tool prints `executor: bytecode (<reason>)`,
/// the wording of prepareContraction's EXPLAIN, and runs the bytecode VM.
///
/// Exit status is nonzero on planner failure — the CI smoke invocation
/// relies on this.
///
//===----------------------------------------------------------------------===//

#include "compiler/bytecode.h"
#include "compiler/jit.h"
#include "formats/random.h"
#include "planner/plan.h"
#include "planner/realize.h"
#include "relational/joinplan.h"
#include "support/timer.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace etch;

namespace {

struct Options {
  std::string Demo = "matmul";
  int64_t N = 1000;
  int64_t Nnz = 20'000;
  int64_t Edges = 4000;
  uint64_t Seed = 11;
  bool WorstCase = false;
  bool All = false;
  bool Execute = false;
  std::string Backend = "tree";
};

[[noreturn]] void usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s --demo matmul|triangle [--n N] [--nnz NNZ]\n"
               "          [--edges E] [--seed S] [--worst-case] [--all]\n"
               "          [--execute [--backend tree|bytecode|native]]\n",
               Argv0);
  std::exit(2);
}

Options parseArgs(int Argc, char **Argv) {
  Options O;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Next = [&]() -> const char * {
      if (I + 1 >= Argc)
        usage(Argv[0]);
      return Argv[++I];
    };
    if (A == "--demo")
      O.Demo = Next();
    else if (A == "--n")
      O.N = std::strtoll(Next(), nullptr, 10);
    else if (A == "--nnz")
      O.Nnz = std::strtoll(Next(), nullptr, 10);
    else if (A == "--edges")
      O.Edges = std::strtoll(Next(), nullptr, 10);
    else if (A == "--seed")
      O.Seed = std::strtoull(Next(), nullptr, 10);
    else if (A == "--worst-case")
      O.WorstCase = true;
    else if (A == "--all")
      O.All = true;
    else if (A == "--execute")
      O.Execute = true;
    else if (A == "--backend")
      O.Backend = Next();
    else
      usage(Argv[0]);
  }
  if (O.N < 1 || O.Nnz < 0 || O.Edges < 0)
    usage(Argv[0]);
  if (O.Backend != "tree" && O.Backend != "bytecode" && O.Backend != "native")
    usage(Argv[0]);
  return O;
}

void printRanking(const std::vector<Plan> &Plans, const PlanQuery &Q,
                  bool All) {
  std::printf("%zu realizable order(s), best first:\n", Plans.size());
  for (size_t I = 0; I < Plans.size(); ++I) {
    const Plan &P = Plans[I];
    std::string Order;
    for (Attr A : P.Order) {
      if (!Order.empty())
        Order += " < ";
      Order += A.name();
    }
    int Transposed = 0;
    for (const PlanAccess &Acc : P.Accesses)
      Transposed += Acc.Transposed;
    std::printf("  %zu. %-30s cost %.3g  (%d transpose%s)\n", I + 1,
                Order.c_str(), P.cost(), Transposed,
                Transposed == 1 ? "" : "s");
  }
  std::puts("");
  for (size_t I = 0; I < (All ? Plans.size() : size_t(1)); ++I) {
    if (All)
      std::printf("--- plan %zu ---\n", I + 1);
    std::fputs(Plans[I].explain(Q).c_str(), stdout);
    std::puts("");
  }
}

/// Realizes and runs the winning matmul plan on the requested backend.
/// The planner's EXPLAIN already chose the attribute order and the
/// storage orientation of each access; here the choice becomes a wall
/// clock number.
int executeMatmulPlan(const Plan &P, const PlanQuery &Q,
                      const CsrMatrix<double> &A, const CsrMatrix<double> &B,
                      const Options &O) {
  RealizedPlan RP = realizePlan(Q, P, "ep_exec");
  LowerCtx Ctx;
  installPlan(Ctx, RP);
  auto Bind = [&](VmMemory &M) {
    for (const PlanAccess &Acc : RP.Accesses) {
      const CsrMatrix<double> &Src = Acc.Tensor == "A" ? A : B;
      if (Acc.Transposed)
        bindCsr(M, Acc.bindName(), transpose(Src));
      else
        bindCsr(M, Acc.bindName(), Src);
    }
  };
  PRef Prog = compileFullContraction(Ctx, RP.E, "out");

  // The native backend needs its kernel up front; a declined JIT is named,
  // never hidden, and the plan runs on the bytecode VM instead.
  std::string Backend = O.Backend;
  JitOptions JO;
  JO.CountSteps = true; // Steps stay comparable across backends.
  NativeKernelRef K;
  if (Backend == "native") {
    std::string Why;
    K = jitCompile(Prog, JO, &Why);
    if (!K) {
      std::printf("executor: bytecode (%s)\n", Why.c_str());
      Backend = "bytecode";
    }
  }

  auto RunOnce = [&](VmMemory &M, VmRunResult &R) {
    Timer T;
    if (Backend == "tree")
      R = vmRun(Prog, M);
    else if (Backend == "bytecode")
      R = bytecodeCompileAndRun(Prog, M);
    else
      R = K->run(M);
    return T.seconds();
  };

  VmMemory M;
  Bind(M);
  VmRunResult R;
  double Sec = RunOnce(M, R);
  if (R.Error) {
    std::fprintf(stderr, "etch-plan: execution failed: %s\n",
                 R.Error->c_str());
    return 1;
  }
  std::printf("executed winner on the %s backend: out = %.17g   "
              "(%lld steps, %.3f ms)\n",
              Backend.c_str(), std::get<double>(*M.getScalar("out")),
              static_cast<long long>(R.Steps), Sec * 1e3);
  if (K) {
    // A second execution of the same plan: the content-addressed cache
    // serves the kernel without touching the C compiler again.
    std::string Why;
    K = jitCompile(Prog, JO, &Why);
    if (!K) {
      std::fprintf(stderr, "etch-plan: cached kernel lookup failed: %s\n",
                   Why.c_str());
      return 1;
    }
    VmMemory M2;
    Bind(M2);
    VmRunResult R2;
    double Sec2 = RunOnce(M2, R2);
    if (R2.Error) {
      std::fprintf(stderr, "etch-plan: re-execution failed: %s\n",
                   R2.Error->c_str());
      return 1;
    }
    std::printf("re-executed (cached kernel): %.3f ms\n", Sec2 * 1e3);
    JitCacheStats St = jitCacheStats();
    std::printf("jit cache: %llu compile(s), %llu in-process hit(s), "
                "%llu disk hit(s), %llu recompile(s)\n",
                static_cast<unsigned long long>(St.Compiles),
                static_cast<unsigned long long>(St.MemHits),
                static_cast<unsigned long long>(St.DiskHits),
                static_cast<unsigned long long>(St.Recompiles));
  }
  return 0;
}

int demoMatmul(const Options &O) {
  std::printf("=== matmul demo: sum_j A(i,j) * B(j,k), n = %lld, "
              "nnz = %lld ===\n\n",
              static_cast<long long>(O.N), static_cast<long long>(O.Nnz));
  Rng R(O.Seed);
  Idx N = static_cast<Idx>(O.N);
  size_t Nnz = static_cast<size_t>(O.Nnz);
  auto A = randomCsr(R, N, N, Nnz);
  auto B = randomCsr(R, N, N, Nnz);

  Attr I = Attr::named("i"), J = Attr::named("j"), K = Attr::named("k");
  TypeContext Ctx;
  Ctx["A"] = Shape{I, J};
  Ctx["B"] = Shape{J, K};
  ExprPtr E = Expr::sum(J, mulExpand(Expr::var("A"), Expr::var("B"), Ctx));
  std::map<std::string, TensorStats> Stats;
  Stats["A"] = statsOfCsr("A", A, I, J);
  Stats["B"] = statsOfCsr("B", B, J, K);
  std::string Err;
  auto Q = extractQuery(E, Ctx, Stats, {}, &Err);
  if (!Q) {
    std::fprintf(stderr, "etch-plan: extraction failed: %s\n", Err.c_str());
    return 1;
  }
  std::vector<Plan> Plans = enumeratePlans(*Q);
  if (Plans.empty()) {
    std::fprintf(stderr, "etch-plan: no realizable order\n");
    return 1;
  }
  printRanking(Plans, *Q, O.All);
  if (O.Execute)
    return executeMatmulPlan(Plans[0], *Q, A, B, O);
  return 0;
}

int demoTriangle(const Options &O) {
  std::printf("=== triangle demo: sum_{a,b,c} R(a,b) * S(b,c) * T(c,a), "
              "n = %lld%s ===\n\n",
              static_cast<long long>(O.N),
              O.WorstCase ? ", worst-case family"
                          : (", " + std::to_string(O.Edges) +
                             " random edges each")
                                .c_str());
  EdgeList Ra, Sb, Tc;
  if (O.WorstCase) {
    Ra = Sb = Tc = triangleWorstCase(static_cast<Idx>(O.N));
  } else {
    Rng R(O.Seed);
    Ra = randomEdges(R, static_cast<Idx>(O.N), static_cast<size_t>(O.Edges));
    Sb = randomEdges(R, static_cast<Idx>(O.N), static_cast<size_t>(O.Edges));
    Tc = randomEdges(R, static_cast<Idx>(O.N), static_cast<size_t>(O.Edges));
  }
  TriangleJoinPlan JP;
  int64_t Count = triangleFusedPlanned(Ra, Sb, Tc, &JP);
  const char Names[] = {'a', 'b', 'c'};
  std::printf("planner order: %c < %c < %c   (estimated cost %.3g)\n\n",
              Names[JP.VarOrder[0]], Names[JP.VarOrder[1]],
              Names[JP.VarOrder[2]], JP.Cost);
  std::fputs(JP.Explain.c_str(), stdout);
  std::printf("\ntriangle count under the planned order: %lld\n",
              static_cast<long long>(Count));
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O = parseArgs(Argc, Argv);
  if (O.Execute && O.Demo != "matmul") {
    std::fprintf(stderr, "etch-plan: --execute supports the matmul demo "
                         "only\n");
    return 2;
  }
  if (O.Demo == "matmul")
    return demoMatmul(O);
  if (O.Demo == "triangle")
    return demoTriangle(O);
  usage(Argv[0]);
}
