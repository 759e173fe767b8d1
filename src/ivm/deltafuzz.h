//===- ivm/deltafuzz.h - Fuzzing the incremental-maintenance path -*-C++-*-===//
//
// Part of the etch project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `etch-fuzz --delta` leg: differential fuzzing of incremental view
/// maintenance against full recomputation, in two layers.
///
///   - `runFuzzDelta` checks the delta-rewrite identity (ivm/delta.h) on
///     an arbitrary generated case, at the K-relation layer: for every
///     tensor `t` of the case it derives a random batch Δ_t (appends in
///     every semiring; exact deletions where the semiring is a ring) and
///     requires `T[e](Ctx[t := A+Δ]) == T[e](Ctx) + δ_t[e](Ctx, Δ)`
///     *exactly*, plus `GroupedView::applyDelta` against its own
///     `recompute`. Exactness is sound because the generator draws dyadic
///     values of bounded magnitude — the sides agree as reals, hence
///     bit-for-bit.
///
///   - `runFuzzDeltaDriver` runs a seeded random scenario through the
///     real serving stack — `TensorCatalog` merge-appends, retained
///     `PlanCache` delta plans, `MaintenanceDriver` scalar and grouped
///     views — applying random append/delete batches (integer-valued f64
///     data) and holding every stored view bit-identical to (a) the
///     driver's own planner-free recomputation and (b) an independent
///     `evalT` oracle over the live catalog payloads. It also checks that
///     no payload carries a zero weight (deletion compaction) and that a
///     repeat round of batches runs without any planner enumeration
///     (plan retention), and that every reading reports the leg's
///     executor. `VmBackend::Both` runs the scenario under the tree and
///     bytecode executors and cross-checks the two bit-for-bit.
///
//===----------------------------------------------------------------------===//

#ifndef ETCH_IVM_DELTAFUZZ_H
#define ETCH_IVM_DELTAFUZZ_H

#include "fuzz/exec.h"
#include "fuzz/fuzzcase.h"

#include <cstdint>
#include <string>

namespace etch {

/// The K-relation-layer delta-identity matrix on \p C. \p BatchSeed
/// derives the per-tensor batches; equal seeds yield equal batches, so a
/// corpus case replays deterministically.
FuzzReport runFuzzDelta(const FuzzCase &C, uint64_t BatchSeed);

/// A deterministic batch seed for \p C, stable across processes (a hash
/// of the serialized case) — what replay uses when no seed is recorded.
uint64_t fuzzDeltaBatchSeed(const FuzzCase &C);

/// The serve-stack scenario for \p Seed under \p Backend. \p JitCacheDir
/// overrides the JIT kernel cache for the native executor (callers verify
/// toolchain availability first; a plan that falls back to bytecode is
/// reported as a divergence, never silently degraded).
FuzzReport runFuzzDeltaDriver(uint64_t Seed, VmBackend Backend,
                              const std::string &JitCacheDir = "");

} // namespace etch

#endif // ETCH_IVM_DELTAFUZZ_H
