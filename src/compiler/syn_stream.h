//===- compiler/syn_stream.h - Syntactic indexed streams -------*- C++ -*-===//
//
// Part of the etch project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Syntactic indexed streams (Section 7.2, Figure 13): the compiler-side
/// encoding of an indexed stream where every component is a program
/// fragment over named state variables instead of a function over states.
///
///   - `Vars`  : the state space — the variables this level owns;
///   - `Init`  : code establishing the initial state (paper's `init`);
///   - `Valid` : termination check; `Ready`, `Index` as in the model;
///   - `Skip0` / `Skip1`: code advancing the state to the first index
///     >= i / > i (the split of `skip`'s boolean argument, as in Fig. 13),
///     built at code-generation time with the compilation's NameGen for
///     any temporaries (so one program always lowers to one text);
///   - the value is either a scalar expression (leaf) or a nested
///     syntactic stream whose Init reads this level's state.
///
/// Stream operators (multiplication as in Figure 14, addition,
/// contraction, expansion) build composite SynStreams out of simpler ones;
/// almost all the compiler's work happens here, with codegen reduced to the
/// single loop template of Figure 15.
///
//===----------------------------------------------------------------------===//

#ifndef ETCH_COMPILER_SYN_STREAM_H
#define ETCH_COMPILER_SYN_STREAM_H

#include "compiler/ops.h"
#include "streams/primitives.h" // SearchPolicy

#include <memory>

namespace etch {

/// A state variable owned by one stream level.
struct VarDecl {
  std::string Name;
  ImpType Ty;
};

class SynStream;
using SynRef = std::shared_ptr<const SynStream>;

/// A stream's value: exactly one of a scalar expression or a nested stream.
struct SynValue {
  ERef Scalar;
  SynRef Inner;

  bool isLeaf() const { return Scalar != nullptr; }
};

/// One level of a syntactic indexed stream. Instances are immutable after
/// construction; combinators build new ones.
class SynStream {
public:
  std::vector<VarDecl> Vars;
  PRef Init;
  ERef Valid;
  ERef Ready;
  ERef Index;
  bool Contracted = false;
  SynValue Value;
  /// Advance to the first index >= i (Skip0) or > i (Skip1); temporaries
  /// the skip needs are named from the compilation's generator.
  std::function<PRef(ERef, NameGen &)> Skip0;
  std::function<PRef(ERef, NameGen &)> Skip1;

  SynStream() = default;
};

//===----------------------------------------------------------------------===//
// Primitive levels
//===----------------------------------------------------------------------===//

/// A compressed level iterating positions [Begin, End) of the sorted
/// coordinate array \p CrdArr. \p MakeValue builds the level's value from
/// the position expression (a value array access for leaves; a nested level
/// whose bounds read a positions array for interior levels).
SynRef synSparse(NameGen &G, const std::string &CrdArr, ERef Begin, ERef End,
                 SearchPolicy Policy,
                 const std::function<SynValue(ERef Pos)> &MakeValue);

/// A hashed level (formats/levels.h): iterates positions [Begin, End) of
/// the *sorted snapshot* \p CrdArr exactly like synSparse, but skips probe
/// the open-addressing arrays first — \p KeyArr (key per slot, -1 empty)
/// and \p RankArr (the key's snapshot position) over \p TabSize slots,
/// filled with `h = key mod TabSize` linear probing (the convention
/// bindHashedVector and hashDest write). An exact coordinate hit lands in
/// O(1); misses fall back to a \p Policy search over the snapshot.
SynRef synHashed(NameGen &G, const std::string &CrdArr, ERef Begin, ERef End,
                 const std::string &KeyArr, const std::string &RankArr,
                 int64_t TabSize, SearchPolicy Policy,
                 const std::function<SynValue(ERef Pos)> &MakeValue);

/// A dense level over indices 0..Size-1. \p MakeValue receives the index
/// expression; with a closure over external arrays this also models
/// implicitly represented streams (user-defined functions / predicates).
SynRef synDense(NameGen &G, ERef Size,
                const std::function<SynValue(ERef Index)> &MakeValue);

/// The expansion operator ↑ as a level: always ready over 0..Size-1 with a
/// constant value.
SynRef synRepeat(NameGen &G, ERef Size, SynValue Value);

//===----------------------------------------------------------------------===//
// Combinators
//===----------------------------------------------------------------------===//

/// Stream multiplication (Figure 14 / Definition 5.4), recursing through
/// nested values; scalar leaves combine with \p Alg's multiplication.
SynRef synMul(NameGen &G, const ScalarAlgebra &Alg, const SynRef &A,
              const SynRef &B);

/// Stream addition (union merge); leaves combine with \p Alg's addition.
/// At a tied index a one-sided value is emitted only when the other side
/// has strictly passed it (see streams/combinators.h for why).
SynRef synAdd(NameGen &G, const ScalarAlgebra &Alg, const SynRef &A,
              const SynRef &B);

/// Σ at shape position \p Depth: marks the \p Depth-th *indexed* level
/// contracted (`map^k Σ`, Definition 5.8).
SynRef synContractAt(const SynRef &S, int Depth);

/// ↑ at shape position \p Depth: inserts a repeat level of extent \p Size
/// before the \p Depth-th indexed level (`map^k ↑`).
SynRef synExpandAt(const SynRef &S, int Depth, ERef Size, NameGen &G);

/// Value-level form of synExpandAt; also handles expanding a bare scalar
/// (Depth 0 over a leaf) into a one-level repeat stream.
SynValue synExpandValueAt(const SynValue &V, int Depth, ERef Size,
                          NameGen &G);

/// Restricts a stream by an outer condition: Valid becomes
/// `Cond && Valid`, Init and the skips run only under \p Cond. Used by
/// addition to mask the non-emitting side's nested value.
SynRef synMask(const SynRef &S, ERef Cond);

/// Number of indexed (non-contracted) levels.
int synShapeLen(const SynRef &S);

} // namespace etch

#endif // ETCH_COMPILER_SYN_STREAM_H
