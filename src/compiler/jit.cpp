//===- compiler/jit.cpp - JIT-to-native backend ---------------------------===//

#include "compiler/jit.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <list>
#include <mutex>
#include <unordered_map>

#include <dlfcn.h>
#include <unistd.h>

using namespace etch;
namespace fs = std::filesystem;

//===----------------------------------------------------------------------===//
// SHA-256 (content addressing)
//===----------------------------------------------------------------------===//

namespace {

class Sha256 {
public:
  void update(const void *Data, size_t N) {
    const uint8_t *P = static_cast<const uint8_t *>(Data);
    Total += N;
    while (N) {
      size_t Take = std::min(N, sizeof(Buf) - BufLen);
      std::memcpy(Buf + BufLen, P, Take);
      BufLen += Take;
      P += Take;
      N -= Take;
      if (BufLen == sizeof(Buf)) {
        block(Buf);
        BufLen = 0;
      }
    }
  }

  std::string hex() {
    uint64_t BitLen = Total * 8;
    uint8_t Pad = 0x80;
    update(&Pad, 1);
    uint8_t Zero = 0;
    while (BufLen != 56)
      update(&Zero, 1);
    // BitLen was latched before the padding, so the extra update()s below
    // cannot distort the encoded message length.
    uint8_t LenBE[8];
    for (int I = 0; I < 8; ++I)
      LenBE[I] = static_cast<uint8_t>(BitLen >> (56 - 8 * I));
    update(LenBE, 8);
    static const char *Digits = "0123456789abcdef";
    std::string Out;
    Out.reserve(64);
    for (uint32_t W : H)
      for (int I = 28; I >= 0; I -= 4)
        Out += Digits[(W >> I) & 0xF];
    return Out;
  }

private:
  static uint32_t rotr(uint32_t X, int N) { return (X >> N) | (X << (32 - N)); }

  void block(const uint8_t *P) {
    static const uint32_t K[64] = {
        0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b,
        0x59f111f1, 0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01,
        0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7,
        0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc,
        0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152,
        0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
        0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
        0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
        0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819,
        0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116, 0x1e376c08,
        0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f,
        0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
        0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};
    uint32_t W[64];
    for (int I = 0; I < 16; ++I)
      W[I] = static_cast<uint32_t>(P[4 * I]) << 24 |
             static_cast<uint32_t>(P[4 * I + 1]) << 16 |
             static_cast<uint32_t>(P[4 * I + 2]) << 8 |
             static_cast<uint32_t>(P[4 * I + 3]);
    for (int I = 16; I < 64; ++I) {
      uint32_t S0 = rotr(W[I - 15], 7) ^ rotr(W[I - 15], 18) ^ (W[I - 15] >> 3);
      uint32_t S1 = rotr(W[I - 2], 17) ^ rotr(W[I - 2], 19) ^ (W[I - 2] >> 10);
      W[I] = W[I - 16] + S0 + W[I - 7] + S1;
    }
    uint32_t A = H[0], B = H[1], C = H[2], D = H[3], E = H[4], F = H[5],
             G = H[6], Hh = H[7];
    for (int I = 0; I < 64; ++I) {
      uint32_t S1 = rotr(E, 6) ^ rotr(E, 11) ^ rotr(E, 25);
      uint32_t Ch = (E & F) ^ (~E & G);
      uint32_t T1 = Hh + S1 + Ch + K[I] + W[I];
      uint32_t S0 = rotr(A, 2) ^ rotr(A, 13) ^ rotr(A, 22);
      uint32_t Maj = (A & B) ^ (A & C) ^ (B & C);
      uint32_t T2 = S0 + Maj;
      Hh = G;
      G = F;
      F = E;
      E = D + T1;
      D = C;
      C = B;
      B = A;
      A = T1 + T2;
    }
    H[0] += A;
    H[1] += B;
    H[2] += C;
    H[3] += D;
    H[4] += E;
    H[5] += F;
    H[6] += G;
    H[7] += Hh;
  }

  uint32_t H[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                   0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  uint64_t Total = 0;
  uint8_t Buf[64];
  size_t BufLen = 0;
};

//===----------------------------------------------------------------------===//
// Shelling out
//===----------------------------------------------------------------------===//

std::string shellQuote(const std::string &S) {
  std::string Out = "'";
  for (char C : S) {
    if (C == '\'')
      Out += "'\\''";
    else
      Out += C;
  }
  Out += "'";
  return Out;
}

/// Runs \p Cmd (stderr folded into stdout), capturing output. Returns the
/// exit status, or -1 when the shell could not be spawned.
int runCommand(const std::string &Cmd, std::string *Output) {
  FILE *P = popen((Cmd + " 2>&1").c_str(), "r");
  if (!P)
    return -1;
  char Buf[4096];
  std::string Out;
  size_t N;
  while ((N = fread(Buf, 1, sizeof(Buf), P)) > 0)
    Out.append(Buf, N);
  int St = pclose(P);
  if (Output)
    *Output = std::move(Out);
  return St;
}

std::string firstLine(const std::string &S) {
  size_t Nl = S.find('\n');
  return Nl == std::string::npos ? S : S.substr(0, Nl);
}

constexpr const char *JitFlags = "-O2 -fPIC -shared";

std::atomic<uint64_t> TmpCounter{0};

/// Writes \p Data to \p Path atomically (temp in the same dir + rename).
bool atomicWrite(const fs::path &Path, const std::string &Data,
                 std::string *Err) {
  fs::path Tmp = Path;
  Tmp += ".tmp" + std::to_string(getpid()) + "." +
         std::to_string(TmpCounter.fetch_add(1));
  {
    std::ofstream Os(Tmp, std::ios::binary | std::ios::trunc);
    if (!Os || !(Os << Data)) {
      if (Err)
        *Err = "cannot write " + Tmp.string();
      return false;
    }
  }
  std::error_code Ec;
  fs::rename(Tmp, Path, Ec);
  if (Ec) {
    if (Err)
      *Err = "cannot rename " + Tmp.string() + ": " + Ec.message();
    fs::remove(Tmp, Ec);
    return false;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Toolchain probe and caches
//===----------------------------------------------------------------------===//

struct JitState {
  std::mutex Mu;
  bool Probed = false;
  JitToolchain Tc;
  JitCacheStats Stats;
  /// In-process handle cache, LRU-bounded by HandleCap: `Lru` is ordered
  /// most-recent-first and each map entry points at its list node. The
  /// map holds shared_ptrs, so eviction never dlcloses a kernel some
  /// NativeKernelRef / NativeCall still pins.
  struct HandleEntry {
    NativeKernelRef K;
    std::list<std::string>::iterator LruIt;
  };
  std::unordered_map<std::string, HandleEntry> Handles;
  std::list<std::string> Lru;
  size_t HandleCap = JitHandleCacheDefaultCap;

  void touchLocked(HandleEntry &E) {
    Lru.splice(Lru.begin(), Lru, E.LruIt);
  }

  void evictToCapLocked() {
    while (Handles.size() > HandleCap && !Lru.empty()) {
      Handles.erase(Lru.back());
      Lru.pop_back();
      ++Stats.HandleEvictions;
    }
  }

  void insertHandleLocked(const std::string &Key, NativeKernelRef K) {
    Lru.push_front(Key);
    Handles.emplace(Key, HandleEntry{std::move(K), Lru.begin()});
    evictToCapLocked();
  }

  void clearHandlesLocked() {
    Handles.clear();
    Lru.clear();
  }
};

JitState &state() {
  static JitState S;
  return S;
}

/// Compiles \p Src to \p SoPath with the probed toolchain. The object is
/// built next to its final name and renamed in, so concurrent compiles of
/// the same key are benign.
bool compileTo(const JitToolchain &Tc, const fs::path &SrcPath,
               const fs::path &SoPath, std::string *Err) {
  fs::path Tmp = SoPath;
  Tmp += ".tmp" + std::to_string(getpid()) + "." +
         std::to_string(TmpCounter.fetch_add(1));
  std::string Out;
  int St = runCommand(Tc.Cmd + " " + Tc.Flags + " -o " +
                          shellQuote(Tmp.string()) + " " +
                          shellQuote(SrcPath.string()),
                      &Out);
  if (St != 0) {
    if (Err) {
      while (!Out.empty() && (Out.back() == '\n' || Out.back() == '\r'))
        Out.pop_back();
      if (Out.size() > 800)
        Out = Out.substr(0, 800) + "...";
      *Err = "compile failed (status " + std::to_string(St) + "): " + Out;
    }
    std::error_code Ec;
    fs::remove(Tmp, Ec);
    return false;
  }
  std::error_code Ec;
  fs::rename(Tmp, SoPath, Ec);
  if (Ec) {
    if (Err)
      *Err = "cannot rename " + Tmp.string() + ": " + Ec.message();
    fs::remove(Tmp, Ec);
    return false;
  }
  return true;
}

/// dlopens \p SoPath and resolves the entry point, checking the baked ABI
/// version. Any failure reads as cache corruption / staleness.
bool loadKernel(const fs::path &SoPath, void **Handle, EtchJitEntryFn *Entry,
                std::string *Err) {
  void *H = dlopen(SoPath.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (!H) {
    if (Err)
      *Err = std::string("dlopen failed: ") + dlerror();
    return false;
  }
  auto Fail = [&](const std::string &Msg) {
    if (Err)
      *Err = Msg;
    dlclose(H);
    return false;
  };
  void *AbiSym = dlsym(H, "etch_jit_abi");
  if (!AbiSym)
    return Fail("kernel lacks the etch_jit_abi symbol");
  if (*static_cast<int32_t *>(AbiSym) != EtchJitAbi)
    return Fail("kernel ABI version mismatch");
  void *EntrySym = dlsym(H, EtchJitEntrySymbol);
  if (!EntrySym)
    return Fail(std::string("kernel lacks the ") + EtchJitEntrySymbol +
                " symbol");
  *Handle = H;
  *Entry = reinterpret_cast<EtchJitEntryFn>(EntrySym);
  return true;
}

/// A minimal end-to-end probe: compile and load a trivial translation
/// unit, proving both the compiler and dlopen work before any real kernel
/// trusts them.
void probeLocked(JitState &S) {
  if (S.Probed)
    return;
  S.Probed = true;
  JitToolchain &Tc = S.Tc;
  const char *Env = std::getenv("ETCH_CC");
  if (!Env || !*Env)
    Env = std::getenv("CC");
  Tc.Cmd = Env && *Env ? Env : "cc";
  Tc.Flags = JitFlags;

  std::string VerOut;
  if (runCommand(Tc.Cmd + " --version", &VerOut) == 0)
    Tc.VersionLine = firstLine(VerOut);
  else
    Tc.VersionLine = "unknown";

  std::string Dir = jitCacheDir();
  fs::path Src = fs::path(Dir) / ("probe" + std::to_string(getpid()) + ".c");
  fs::path So = fs::path(Dir) / ("probe" + std::to_string(getpid()) + ".so");
  std::string Err;
  Tc.Available = false;
  if (!atomicWrite(Src, "int etch_jit_probe(void) { return 7; }\n", &Err)) {
    Tc.Diag = "cache dir not writable: " + Err;
  } else if (!compileTo(Tc, Src, So, &Err)) {
    Tc.Diag = "probe " + Err;
  } else {
    void *H = dlopen(So.c_str(), RTLD_NOW | RTLD_LOCAL);
    if (!H) {
      Tc.Diag = std::string("probe dlopen failed: ") + dlerror();
    } else {
      using ProbeFn = int (*)(void);
      auto Fn = reinterpret_cast<ProbeFn>(dlsym(H, "etch_jit_probe"));
      if (Fn && Fn() == 7)
        Tc.Available = true;
      else
        Tc.Diag = "probe kernel misbehaved";
      dlclose(H);
    }
  }
  std::error_code Ec;
  fs::remove(Src, Ec);
  fs::remove(So, Ec);
}

} // namespace

const JitToolchain &etch::jitToolchain() {
  JitState &S = state();
  std::lock_guard<std::mutex> L(S.Mu);
  probeLocked(S);
  return S.Tc;
}

void etch::jitResetToolchainForTest() {
  JitState &S = state();
  std::lock_guard<std::mutex> L(S.Mu);
  S.Probed = false;
  S.Tc = JitToolchain();
  S.clearHandlesLocked();
}

JitCacheStats etch::jitCacheStats() {
  JitState &S = state();
  std::lock_guard<std::mutex> L(S.Mu);
  JitCacheStats St = S.Stats;
  St.HandlesResident = S.Handles.size();
  return St;
}

void etch::jitResetCacheStatsForTest() {
  JitState &S = state();
  std::lock_guard<std::mutex> L(S.Mu);
  S.Stats = JitCacheStats();
  S.clearHandlesLocked();
  S.HandleCap = JitHandleCacheDefaultCap;
}

void etch::jitSetHandleCacheCap(size_t Cap) {
  JitState &S = state();
  std::lock_guard<std::mutex> L(S.Mu);
  S.HandleCap = std::max<size_t>(1, Cap);
  S.evictToCapLocked();
}

size_t etch::jitHandleCacheCap() {
  JitState &S = state();
  std::lock_guard<std::mutex> L(S.Mu);
  return S.HandleCap;
}

std::string etch::jitCacheDir(const std::string &Override) {
  std::string Dir = Override;
  if (Dir.empty())
    if (const char *E = std::getenv("ETCH_JIT_CACHE"); E && *E)
      Dir = E;
  if (Dir.empty()) {
    if (const char *X = std::getenv("XDG_CACHE_HOME"); X && *X)
      Dir = std::string(X) + "/etch-jit-cache";
    else if (const char *Home = std::getenv("HOME"); Home && *Home)
      Dir = std::string(Home) + "/.cache/etch-jit-cache";
    else
      Dir = "/tmp/etch-jit-cache-" + std::to_string(getuid());
  }
  std::error_code Ec;
  fs::create_directories(Dir, Ec);
  return Dir;
}

int etch::jitEvictCache(const std::string &Dir, uint64_t MaxBytes) {
  struct Entry {
    std::string Stem;
    fs::file_time_type Newest{};
    uint64_t Bytes = 0;
    std::vector<fs::path> Files;
  };
  std::unordered_map<std::string, Entry> ByStem;
  uint64_t Total = 0;
  std::error_code Ec;
  for (fs::directory_iterator It(Dir, Ec), End; !Ec && It != End;
       It.increment(Ec)) {
    std::error_code StatEc;
    if (!It->is_regular_file(StatEc) || StatEc)
      continue;
    const fs::path &P = It->path();
    // A concurrent process (another server sharing the cache, or its own
    // eviction pass) may remove the file between readdir and stat. A
    // failed stat must NOT be counted: file_size's error value is
    // uintmax_t(-1), which would inflate Total past any budget and evict
    // the entire cache. Skip the entry — it is not on disk to count.
    uint64_t Sz = It->file_size(StatEc);
    if (StatEc)
      continue;
    auto Mt = fs::last_write_time(P, StatEc);
    if (StatEc)
      continue;
    Entry &E = ByStem[P.stem().string()];
    E.Stem = P.stem().string();
    E.Bytes += Sz;
    E.Newest = std::max(E.Newest, Mt);
    E.Files.push_back(P);
    Total += Sz;
  }
  if (Total <= MaxBytes)
    return 0;
  std::vector<const Entry *> Order;
  Order.reserve(ByStem.size());
  for (const auto &[_, E] : ByStem)
    Order.push_back(&E);
  std::sort(Order.begin(), Order.end(), [](const Entry *A, const Entry *B) {
    return A->Newest < B->Newest;
  });
  int Evicted = 0;
  for (const Entry *E : Order) {
    if (Total <= MaxBytes)
      break;
    for (const fs::path &P : E->Files)
      fs::remove(P, Ec);
    Total -= std::min(Total, E->Bytes);
    ++Evicted;
  }
  return Evicted;
}

//===----------------------------------------------------------------------===//
// jitCompile
//===----------------------------------------------------------------------===//

std::string etch::jitSha256Hex(const std::string &Data) {
  Sha256 S;
  S.update(Data.data(), Data.size());
  return S.hex();
}

NativeKernelRef etch::jitCompile(const PRef &Body, const JitOptions &Opts,
                                 std::string *Err) {
  std::string ManifestErr;
  auto Manifest = deriveKernelManifest(Body, &ManifestErr);
  if (!Manifest) {
    if (Err)
      *Err = "program outside the kernel fragment: " + ManifestErr;
    return nullptr;
  }

  const JitToolchain &Tc = jitToolchain();
  if (!Tc.Available) {
    if (Err)
      *Err = "no native toolchain: " + Tc.Diag;
    return nullptr;
  }

  CKernelOptions KO;
  KO.CountSteps = Opts.CountSteps;
  KO.TileDenseTails = Opts.TileDenseTails;
  std::string Source = emitCKernel(Body, *Manifest, KO);

  if (Opts.MaxSourceBytes && Source.size() > Opts.MaxSourceBytes) {
    if (Err)
      *Err = std::string(JitSourceTooLargePrefix) + ": " +
             std::to_string(Source.size()) + " bytes of C (cap " +
             std::to_string(Opts.MaxSourceBytes) +
             "); using the bytecode VM";
    return nullptr;
  }

  // The content-address pins everything that affects the object: the full
  // generated source (hence the optimized P IR and format layout), the
  // compiler identity and flags, and the ABI.
  std::string Key = jitSha256Hex(
      "cc=" + Tc.Cmd + "\nver=" + Tc.VersionLine + "\nflags=" + Tc.Flags +
      "\nabi=" + std::to_string(EtchJitAbi) + "\n---\n" + Source);

  JitState &S = state();
  {
    std::lock_guard<std::mutex> L(S.Mu);
    auto It = S.Handles.find(Key);
    if (It != S.Handles.end()) {
      ++S.Stats.MemHits;
      S.touchLocked(It->second);
      return It->second.K;
    }
  }

  std::string Dir = jitCacheDir(Opts.CacheDir);
  fs::path SrcPath = fs::path(Dir) / (Key + ".c");
  fs::path SoPath = fs::path(Dir) / (Key + ".so");

  void *Handle = nullptr;
  EtchJitEntryFn Entry = nullptr;
  bool DiskHit = false;
  std::error_code Ec;
  if (fs::exists(SoPath, Ec)) {
    std::string LoadErr;
    if (loadKernel(SoPath, &Handle, &Entry, &LoadErr)) {
      DiskHit = true;
    } else {
      // Corrupted / stale entry: treat as a miss and rebuild it.
      fs::remove(SoPath, Ec);
      std::lock_guard<std::mutex> L(S.Mu);
      ++S.Stats.Recompiles;
    }
  }

  if (!Handle) {
    std::string IoErr;
    if (!atomicWrite(SrcPath, Source, &IoErr)) {
      if (Err)
        *Err = IoErr;
      return nullptr;
    }
    std::string CcErr;
    if (!compileTo(Tc, SrcPath, SoPath, &CcErr)) {
      if (Err)
        *Err = CcErr;
      return nullptr;
    }
    {
      std::lock_guard<std::mutex> L(S.Mu);
      ++S.Stats.Compiles;
    }
    std::string LoadErr;
    if (!loadKernel(SoPath, &Handle, &Entry, &LoadErr)) {
      if (Err)
        *Err = LoadErr;
      return nullptr;
    }
    jitEvictCache(Dir, JitCacheDefaultMaxBytes);
  }

  auto K = std::shared_ptr<NativeKernel>(new NativeKernel());
  K->Manifest = std::move(*Manifest);
  K->CountSteps = Opts.CountSteps;
  K->Key = Key;
  K->Handle = Handle;
  K->Entry = Entry;

  std::lock_guard<std::mutex> L(S.Mu);
  if (DiskHit)
    ++S.Stats.DiskHits;
  auto It = S.Handles.find(Key);
  if (It != S.Handles.end()) {
    S.touchLocked(It->second);
    return It->second.K; // Another thread won the race; ours unloads.
  }
  S.insertHandleLocked(Key, K);
  return K;
}

//===----------------------------------------------------------------------===//
// Dispatch
//===----------------------------------------------------------------------===//

NativeKernel::~NativeKernel() {
  if (Handle)
    dlclose(Handle);
}

VmRunResult NativeKernel::run(VmMemory &Memory, int64_t MaxSteps) const {
  NativeCall Call(shared_from_this());
  VmRunResult R;
  std::string Err;
  if (!Call.bind(Memory, &Err)) {
    R.Error = Err;
    return R;
  }
  R = Call.invoke(MaxSteps);
  // Memory is untouched on error (the bytecode VM's contract).
  if (!R.Error)
    Call.writeBack(Memory);
  return R;
}

//===----------------------------------------------------------------------===//
// NativeCall (the one marshal-and-dispatch path)
//===----------------------------------------------------------------------===//

NativeCall::NativeCall(NativeKernelRef Kernel) : K(std::move(Kernel)) {
  ETCH_ASSERT(K, "null kernel");
  const CKernelManifest &M = K->manifest();
  size_t NA = M.Arrays.size(), NS = M.Scalars.size();
  ArrI.resize(NA);
  ArrF.resize(NA);
  ArrB.resize(NA);
  ArrData.assign(NA, nullptr);
  ArrLen.assign(NA, 0);
  ArrDef.assign(NA, 0);
  ScI.assign(NS, 0);
  ScF.assign(NS, 0.0);
  ScB.assign(NS, 0);
  ScDef.assign(NS, 0);
  OutArrData.assign(NA, nullptr);
  OutArrLen.assign(NA, 0);
  OutArrDef.assign(NA, 0);
  OutArrOwned.assign(NA, 0);
  OutScI.assign(NS, 0);
  OutScF.assign(NS, 0.0);
  OutScB.assign(NS, 0);
  OutScDef.assign(NS, 0);
}

NativeCall::~NativeCall() { releaseOutputs(); }

void NativeCall::releaseOutputs() {
  for (size_t I = 0; I < OutArrOwned.size(); ++I)
    if (OutArrOwned[I])
      std::free(OutArrData[I]);
  std::fill(OutArrData.begin(), OutArrData.end(), nullptr);
  std::fill(OutArrLen.begin(), OutArrLen.end(), 0);
  std::fill(OutArrDef.begin(), OutArrDef.end(), 0);
  std::fill(OutArrOwned.begin(), OutArrOwned.end(), 0);
  std::fill(OutScDef.begin(), OutScDef.end(), 0);
}

bool NativeCall::bind(const VmMemory &Memory, std::string *Err) {
  const CKernelManifest &M = K->manifest();
  // Type-check everything first so a mismatch leaves the binding intact.
  for (const CKernelScalar &Sc : M.Scalars) {
    auto V = Memory.getScalar(Sc.Name);
    if (V && impTypeOf(*V) != Sc.Ty) {
      if (Err)
        *Err = "scalar '" + Sc.Name + "' is bound as " +
               impTypeName(impTypeOf(*V)) + " but used as " +
               impTypeName(Sc.Ty);
      return false;
    }
  }
  for (const CKernelArray &A : M.Arrays) {
    const std::vector<ImpValue> *Src = Memory.getArray(A.Name);
    if (!Src)
      continue;
    for (const ImpValue &V : *Src)
      if (impTypeOf(V) != A.Elem) {
        if (Err)
          *Err = "array '" + A.Name + "' holds a " +
                 impTypeName(impTypeOf(V)) + " element but is used as " +
                 impTypeName(A.Elem);
        return false;
      }
  }

  // Outputs may alias the buffers refilled below.
  releaseOutputs();
  for (size_t I = 0; I < M.Scalars.size(); ++I) {
    auto V = Memory.getScalar(M.Scalars[I].Name);
    ScDef[I] = V.has_value();
    if (!V)
      continue;
    switch (M.Scalars[I].Ty) {
    case ImpType::I64:
      ScI[I] = std::get<int64_t>(*V);
      break;
    case ImpType::F64:
      ScF[I] = std::get<double>(*V);
      break;
    case ImpType::Bool:
      ScB[I] = std::get<bool>(*V) ? 1 : 0;
      break;
    }
  }
  RestoreI.clear();
  RestoreF.clear();
  RestoreB.clear();
  for (size_t I = 0; I < M.Arrays.size(); ++I) {
    const CKernelArray &A = M.Arrays[I];
    const std::vector<ImpValue> *Src = Memory.getArray(A.Name);
    ArrData[I] = nullptr;
    ArrLen[I] = Src ? static_cast<int64_t>(Src->size()) : 0;
    ArrDef[I] = Src != nullptr;
    if (!Src)
      continue;
    // The kernel writes bound written-back arrays in place; keep a
    // pristine copy so every invoke starts from the same memory.
    switch (A.Elem) {
    case ImpType::I64: {
      auto &D = ArrI[I];
      D.clear();
      for (const ImpValue &V : *Src)
        D.push_back(std::get<int64_t>(V));
      ArrData[I] = D.data();
      if (A.WrittenBack)
        RestoreI.emplace_back(I, D);
      break;
    }
    case ImpType::F64: {
      auto &D = ArrF[I];
      D.clear();
      for (const ImpValue &V : *Src)
        D.push_back(std::get<double>(V));
      ArrData[I] = D.data();
      if (A.WrittenBack)
        RestoreF.emplace_back(I, D);
      break;
    }
    case ImpType::Bool: {
      auto &D = ArrB[I];
      D.clear();
      for (const ImpValue &V : *Src)
        D.push_back(std::get<bool>(V) ? 1 : 0);
      ArrData[I] = D.data();
      if (A.WrittenBack)
        RestoreB.emplace_back(I, D);
      break;
    }
    }
  }
  return true;
}

VmRunResult NativeCall::invoke(int64_t MaxSteps) {
  releaseOutputs();
  for (auto &[I, Data] : RestoreI)
    std::copy(Data.begin(), Data.end(), ArrI[I].begin());
  for (auto &[I, Data] : RestoreF)
    std::copy(Data.begin(), Data.end(), ArrF[I].begin());
  for (auto &[I, Data] : RestoreB)
    std::copy(Data.begin(), Data.end(), ArrB[I].begin());

  EtchJitCtx Ctx{};
  Ctx.arr_data = ArrData.data();
  Ctx.arr_len = ArrLen.data();
  Ctx.arr_def = ArrDef.data();
  Ctx.sc_i = ScI.data();
  Ctx.sc_f = ScF.data();
  Ctx.sc_b = ScB.data();
  Ctx.sc_def = ScDef.data();
  Ctx.steps_budget = MaxSteps;
  Ctx.out_arr_data = OutArrData.data();
  Ctx.out_arr_len = OutArrLen.data();
  Ctx.out_arr_def = OutArrDef.data();
  Ctx.out_arr_owned = OutArrOwned.data();
  Ctx.out_sc_i = OutScI.data();
  Ctx.out_sc_f = OutScF.data();
  Ctx.out_sc_b = OutScB.data();
  Ctx.out_sc_def = OutScDef.data();

  VmRunResult R;
  // On failure the kernel frees what it allocated and leaves the output
  // slots as releaseOutputs() cleared them.
  if (K->Entry(&Ctx) != 0)
    R.Error = std::string(Ctx.err);
  R.Steps = Ctx.steps_used;
  return R;
}

ImpValue NativeCall::outScalar(size_t I) const {
  switch (K->manifest().Scalars[I].Ty) {
  case ImpType::I64:
    return OutScI[I];
  case ImpType::F64:
    return OutScF[I];
  case ImpType::Bool:
    return OutScB[I] != 0;
  }
  ETCH_UNREACHABLE("unknown ImpType");
}

std::vector<ImpValue> NativeCall::outArray(size_t I) const {
  size_t N = static_cast<size_t>(OutArrLen[I]);
  std::vector<ImpValue> Data;
  Data.reserve(N);
  switch (K->manifest().Arrays[I].Elem) {
  case ImpType::I64: {
    const int64_t *P = static_cast<const int64_t *>(OutArrData[I]);
    for (size_t J = 0; J < N; ++J)
      Data.emplace_back(P[J]);
    break;
  }
  case ImpType::F64: {
    const double *P = static_cast<const double *>(OutArrData[I]);
    for (size_t J = 0; J < N; ++J)
      Data.emplace_back(P[J]);
    break;
  }
  case ImpType::Bool: {
    const uint8_t *P = static_cast<const uint8_t *>(OutArrData[I]);
    for (size_t J = 0; J < N; ++J)
      Data.emplace_back(P[J] != 0);
    break;
  }
  }
  return Data;
}

std::optional<ImpValue> NativeCall::scalar(const std::string &Name) const {
  int I = K->manifest().scalarIndex(Name);
  if (I < 0 || !OutScDef[static_cast<size_t>(I)])
    return std::nullopt;
  return outScalar(static_cast<size_t>(I));
}

std::optional<std::vector<ImpValue>>
NativeCall::array(const std::string &Name) const {
  int I = K->manifest().arrayIndex(Name);
  if (I < 0 || !OutArrDef[static_cast<size_t>(I)])
    return std::nullopt;
  return outArray(static_cast<size_t>(I));
}

void NativeCall::writeBack(VmMemory &Memory) const {
  const CKernelManifest &M = K->manifest();
  for (size_t I = 0; I < M.Scalars.size(); ++I)
    if (OutScDef[I])
      Memory.setScalar(M.Scalars[I].Name, outScalar(I));
  for (size_t I = 0; I < M.Arrays.size(); ++I)
    if (OutArrDef[I])
      Memory.setArray(M.Arrays[I].Name, outArray(I));
}
