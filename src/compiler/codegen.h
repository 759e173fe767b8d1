//===- compiler/codegen.h - Destination passing and compile ----*- C++ -*-===//
//
// Part of the etch project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The code generator of Figures 15–16. `compileStream(dest, stream)`
/// produces code satisfying the Hoare triple
/// `{out = v} compile out q {out = v + [[q]]}`: one while loop per stream
/// level, with a recursive call for nested values and the same loop minus
/// the index for contracted levels.
///
/// Destinations follow destination-passing style (Section 7.3): a
/// destination either accumulates a scalar (base case) or maps an index
/// expression to a sub-destination (per level). Provided destinations:
/// scalar accumulator variables, dense (strided) arrays, and sparse
/// (crd/val appending) builders.
///
//===----------------------------------------------------------------------===//

#ifndef ETCH_COMPILER_CODEGEN_H
#define ETCH_COMPILER_CODEGEN_H

#include "compiler/syn_stream.h"

namespace etch {

/// Where one level of output goes. Exactly one member is set:
/// \c Accum at the scalar base case, \c Locate at stream levels.
/// Locate returns (code to run before descending, the sub-destination,
/// code to run after the inner level completes); any temporary it needs is
/// named from the compilation's generator \p G.
struct Dest {
  std::function<PRef(ERef Value)> Accum;
  std::function<std::tuple<PRef, Dest, PRef>(ERef Index, NameGen &G)> Locate;

  /// Names the caller reads back after execution (the destination's output
  /// scalar/arrays, including any position counter). The optimization
  /// pipeline's dead-store elimination must not remove stores to these;
  /// frontend.cpp forwards them as PipelineOptions::LiveOut.
  std::vector<std::string> Live;
};

/// Accumulates into a scalar variable: `out = out + v` under \p Alg.
Dest scalarDest(const ScalarAlgebra &Alg, std::string VarName);

/// Accumulates into a dense row-major array: level k adds
/// `index * Strides[k]` to the flat offset; the leaf does
/// `arr[offset] = arr[offset] + v`.
Dest denseDest(const ScalarAlgebra &Alg, std::string ArrName,
               std::vector<ERef> Strides);

/// Appends to a one-level sparse output: on locate, pushes the index onto
/// \p CrdArr and zero-initialises \p ValArr at the write position tracked
/// by counter variable \p CntVar; the leaf accumulates into that position.
/// Arrays must be pre-sized to capacity; the caller owns CntVar's decl.
Dest sparseVecDest(const ScalarAlgebra &Alg, std::string CrdArr,
                   std::string ValArr, std::string CntVar);

/// Accumulates into a hash-table output (the paper's relational group-by
/// format): locate probes \p KeyArr (open addressing, `index mod TabSize`
/// linear probing, -1 = empty), inserting the key with a zero-initialised
/// \p ValArr slot on first touch and counting distinct keys in \p CntVar;
/// the leaf accumulates into the probed slot. Unlike dense destinations the
/// footprint is O(TabSize), not O(key space). Both arrays must be pre-sized
/// to \p TabSize with KeyArr filled with -1, TabSize must exceed 3/2 the
/// distinct-key count (so probing terminates), and the caller owns CntVar's
/// decl. The probe/insert sequence is plain P code, so the tree VM, the
/// bytecode VM, and c_emit all run it unchanged.
Dest hashDest(const ScalarAlgebra &Alg, std::string KeyArr,
              std::string ValArr, std::string CntVar, int64_t TabSize);

/// Compiles a full stream into \p D (Figure 15): declarations, init, then
/// the level loop; contracted levels reuse the same destination. Skip
/// latches and destination temporaries are named from \p G — the same
/// generator that named the stream's state — so a program's text depends
/// only on the program, never on what else the process compiled.
PRef compileStream(const Dest &D, const SynRef &S, NameGen &G);

/// Compiles a value (stream or scalar) into \p D — the paper's `compile`.
PRef compileValue(const Dest &D, const SynValue &V, NameGen &G);

} // namespace etch

#endif // ETCH_COMPILER_CODEGEN_H
