//===- compiler/jit.h - JIT-to-native backend ------------------*- C++ -*-===//
//
// Part of the etch project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The native execution backend: a `P` program is rendered as a callable
/// kernel (c_emit.h), compiled with the system C compiler
/// (`cc -O2 -fPIC -shared`, discovered and probed once per process), and
/// `dlopen`ed for dispatch. In front of the compiler sits a
/// content-addressed kernel cache: the key is a SHA-256 over the full
/// generated C source (which pins the optimized P IR and the format
/// layout), the compiler identity and flags, and the kernel ABI version.
/// Lowering names every temporary from its own compilation's generator, so
/// a program always renders to the same source; repeated queries —
/// including re-plans of one shape — pay compilation exactly once, with
/// in-process handle reuse and on-disk reuse across runs.
///
/// Failure paths decline, never abort: no compiler found, a compile
/// error, or a dlopen failure makes `jitCompile` return null with a
/// diagnostic. The caller picks another executor and names the reason
/// (prepareContraction's EXPLAIN, etch-plan's `executor:` line); nothing
/// here switches executors behind its back. A cache entry that no longer
/// loads (corrupted .so) is treated as a miss and recompiled.
///
/// `NativeCall` is the one path from `VmMemory` into a kernel:
/// `NativeKernel::run` is a NativeCall bind, invoke, and write-back.
///
/// Cache hygiene: every generated `.c`/`.so` lives under one cache
/// directory (`--jit-cache-dir` flags, `ETCH_JIT_CACHE` env, or
/// `$XDG_CACHE_HOME/etch-jit-cache`), written atomically
/// (temp + rename), with size-bounded oldest-first eviction.
///
//===----------------------------------------------------------------------===//

#ifndef ETCH_COMPILER_JIT_H
#define ETCH_COMPILER_JIT_H

#include "compiler/c_emit.h"
#include "compiler/vm.h"

#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace etch {

/// The probed system C compiler. `Available` is decided once per process
/// by compiling and dlopening a trivial kernel.
struct JitToolchain {
  bool Available = false;
  std::string Cmd;         ///< e.g. "cc" (ETCH_CC > CC > cc).
  std::string VersionLine; ///< First line of `Cmd --version` (keyed).
  std::string Flags;       ///< e.g. "-O2 -fPIC -shared" (keyed).
  std::string Diag;        ///< Why unavailable, when !Available.
};

/// Returns the per-process toolchain (probing on first call). Honors the
/// ETCH_CC / CC environment variables at first use.
const JitToolchain &jitToolchain();

/// Drops the cached probe result (and the in-process kernel-handle cache)
/// so the next jitToolchain() re-reads ETCH_CC/CC — lets tests exercise
/// the bogus-compiler fallback path inside one process.
void jitResetToolchainForTest();

/// Process-wide cache counters (for EXPLAIN-style reporting and tests).
struct JitCacheStats {
  uint64_t MemHits = 0;   ///< Served from the in-process handle cache.
  uint64_t DiskHits = 0;  ///< Loaded an existing .so from the cache dir.
  uint64_t Compiles = 0;  ///< Invoked the C compiler.
  uint64_t Recompiles = 0; ///< A cached .so failed to load (corruption).
  uint64_t HandleEvictions = 0; ///< LRU-dropped from the in-process map.
  uint64_t HandlesResident = 0; ///< Entries currently in the in-process map.
};
JitCacheStats jitCacheStats();
void jitResetCacheStatsForTest();

/// The in-process dlopen-handle map is LRU-bounded so a long-lived server
/// compiling many distinct kernels does not accumulate one handle per key
/// forever. Eviction drops only the map's reference: a kernel stays loaded
/// (and its `NativeCall`s stay valid) while any NativeKernelRef pins it;
/// dlclose happens when the last reference dies.
inline constexpr size_t JitHandleCacheDefaultCap = 256;

/// Sets the handle-map cap (clamped to >= 1). Entries past the new cap are
/// evicted immediately, oldest first.
void jitSetHandleCacheCap(size_t Cap);
size_t jitHandleCacheCap();

/// Resolves the cache directory: \p Override if nonempty, else
/// $ETCH_JIT_CACHE, else $XDG_CACHE_HOME/etch-jit-cache, else
/// $HOME/.cache/etch-jit-cache, else /tmp/etch-jit-cache-<uid>. The
/// directory is created if missing.
std::string jitCacheDir(const std::string &Override = "");

/// Deletes oldest-mtime .c/.so pairs until the directory's total size is
/// at most \p MaxBytes. Returns the number of entries evicted.
int jitEvictCache(const std::string &Dir, uint64_t MaxBytes);

/// The default size bound applied after each compile (64 MiB — kernels
/// are a few KiB each, so this is thousands of entries).
inline constexpr uint64_t JitCacheDefaultMaxBytes = 64ull << 20;

class NativeKernel;
using NativeKernelRef = std::shared_ptr<const NativeKernel>;

struct JitOptions {
  /// Count steps exactly like the tree VM (for parity gating); production
  /// kernels leave this off so the C optimizer is unconstrained.
  bool CountSteps = false;
  /// Emit loop-invariant-bound while loops blocked into counted inner
  /// loops of this many iterations (see CKernelOptions::TileDenseTails;
  /// ignored when CountSteps is on). The tile is part of the generated
  /// source, hence of the content-address — distinct tiles cache as
  /// distinct kernels.
  int64_t TileDenseTails = 0;
  /// Cache directory override (see jitCacheDir). Size-bounded eviction
  /// (JitCacheDefaultMaxBytes) runs over it after every compile.
  std::string CacheDir;
  /// Refuse to JIT when the generated C source exceeds this many bytes
  /// (0 = unlimited). Deeply nested stream programs can lower to
  /// megabytes of C that the system compiler chews on for minutes at
  /// -O2; past this bound jitCompile declines (Err starts with
  /// \ref JitSourceTooLargePrefix) and callers fall back to the
  /// bytecode VM, whose cost is linear in program size. Typical kernels
  /// are tens of KiB, so the default leaves ~100x headroom.
  uint64_t MaxSourceBytes = 4ull << 20;
};

/// Stable prefix of the jitCompile diagnostic produced when
/// JitOptions::MaxSourceBytes rejects a kernel — lets callers (the
/// fuzzer's native leg) tell a deliberate size-cap skip from a real
/// emitter or toolchain failure.
inline constexpr const char *JitSourceTooLargePrefix =
    "kernel source too large";

/// A loaded kernel: dlopen'd shared object + manifest. Thread-compatible;
/// run() is const and re-entrant (each call owns its NativeCall).
class NativeKernel : public std::enable_shared_from_this<NativeKernel> {
public:
  ~NativeKernel();
  NativeKernel(const NativeKernel &) = delete;
  NativeKernel &operator=(const NativeKernel &) = delete;

  const CKernelManifest &manifest() const { return Manifest; }
  bool countsSteps() const { return CountSteps; }
  /// The content-address (hex SHA-256) this kernel is cached under.
  const std::string &key() const { return Key; }

  /// Full VmMemory contract, mirroring bytecodeRun: marshal inputs (with
  /// the same binding-type-mismatch errors), dispatch, and on success
  /// write every defined scalar/array back; memory is untouched on error.
  /// Steps is meaningful only when countsSteps(). One-shot NativeCall
  /// bind → invoke → writeBack.
  VmRunResult run(VmMemory &Memory, int64_t MaxSteps = int64_t(1) << 28) const;

private:
  friend NativeKernelRef jitCompile(const PRef &, const JitOptions &,
                                    std::string *);
  friend class NativeCall;
  NativeKernel() = default;

  CKernelManifest Manifest;
  bool CountSteps = false;
  std::string Key;
  void *Handle = nullptr; ///< dlopen handle (closed by the destructor).
  EtchJitEntryFn Entry = nullptr;
};

/// Compiles \p Body (or fetches it from the cache). Returns null with a
/// diagnostic in \p Err when the program is outside the statically-typed
/// kernel fragment, no toolchain is available, or compilation/loading
/// fails — callers then run the bytecode VM and report \p Err.
NativeKernelRef jitCompile(const PRef &Body, const JitOptions &Opts = {},
                           std::string *Err = nullptr);

/// The one dispatch path into a kernel: inputs are marshaled once into
/// resident typed buffers (bind), then invoke() reuses them — the
/// cache-hit steady state the served path and the bench rows measure.
/// Input arrays the program stores into are re-seeded from a pristine copy
/// before each invoke, so repeated invocations see the same initial
/// memory. Every buffer and output slot is sized at construction, so
/// invoke() performs no heap allocation of its own.
class NativeCall {
public:
  explicit NativeCall(NativeKernelRef K);
  ~NativeCall();
  NativeCall(const NativeCall &) = delete;
  NativeCall &operator=(const NativeCall &) = delete;

  /// Binds inputs from \p Memory (same typing rules as NativeKernel::run).
  /// Returns false with a diagnostic on a type mismatch, leaving the
  /// previous binding in place. Drops the last invoke's outputs.
  bool bind(const VmMemory &Memory, std::string *Err = nullptr);

  /// Dispatches against the resident buffers, first releasing the previous
  /// invoke's outputs (freeing kernel-owned arrays). Outputs are captured
  /// internally (read them back with scalar() or array()); \p Memory from
  /// bind() is never written.
  VmRunResult invoke(int64_t MaxSteps = int64_t(1) << 28);

  /// The value of a scalar after the last successful invoke().
  std::optional<ImpValue> scalar(const std::string &Name) const;

  /// The elements of an array the last successful invoke() defined — a
  /// bound input (as the kernel left it) or a kernel-allocated output.
  std::optional<std::vector<ImpValue>> array(const std::string &Name) const;

private:
  friend class NativeKernel;
  /// Writes every scalar and array the last successful invoke() defined
  /// into \p Memory (bytecodeRun's write-back).
  void writeBack(VmMemory &Memory) const;
  ImpValue outScalar(size_t I) const;
  std::vector<ImpValue> outArray(size_t I) const;
  void releaseOutputs();

  NativeKernelRef K;
  // Resident manifest-indexed inputs.
  std::vector<std::vector<int64_t>> ArrI;
  std::vector<std::vector<double>> ArrF;
  std::vector<std::vector<uint8_t>> ArrB;
  std::vector<void *> ArrData;
  std::vector<int64_t> ArrLen;
  std::vector<uint8_t> ArrDef;
  std::vector<int64_t> ScI;
  std::vector<double> ScF;
  std::vector<uint8_t> ScB;
  std::vector<uint8_t> ScDef;
  // Pristine copies of bound arrays the kernel writes in place.
  std::vector<std::pair<size_t, std::vector<int64_t>>> RestoreI;
  std::vector<std::pair<size_t, std::vector<double>>> RestoreF;
  std::vector<std::pair<size_t, std::vector<uint8_t>>> RestoreB;
  // The last invoke's outputs. OutArrData aliases ArrI/ArrF/ArrB for
  // bound arrays; OutArrOwned marks kernel-allocated buffers.
  std::vector<void *> OutArrData;
  std::vector<int64_t> OutArrLen;
  std::vector<uint8_t> OutArrDef;
  std::vector<uint8_t> OutArrOwned;
  std::vector<int64_t> OutScI;
  std::vector<double> OutScF;
  std::vector<uint8_t> OutScB;
  std::vector<uint8_t> OutScDef;
};

/// Hex SHA-256 of \p Data (exposed for cache tests).
std::string jitSha256Hex(const std::string &Data);

} // namespace etch

#endif // ETCH_COMPILER_JIT_H
