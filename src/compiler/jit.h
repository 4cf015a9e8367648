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
/// layout), the compiler identity and flags, the kernel ABI version, and
/// an optional caller-supplied tag. Repeated queries — including
/// planner-enumerated plans and hashed-format realizations — pay
/// compilation exactly once, with in-process handle reuse and on-disk
/// reuse across runs.
///
/// Failure paths degrade, never abort: no compiler found, a compile
/// error, or a dlopen failure makes `jitCompile` return null with a
/// diagnostic, and `nativeRunWithFallback` silently switches to the
/// bytecode VM after a one-time warning. A cache entry that no longer
/// loads (corrupted .so) is treated as a miss and recompiled.
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
  /// Cache directory override (see jitCacheDir).
  std::string CacheDir;
  /// Extra content folded into the cache key (e.g. a format-layout tag).
  std::string ExtraKey;
  /// Apply size-bounded eviction after a compile (default on).
  bool Evict = true;
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
/// run() is const and re-entrant (each call owns its marshaling buffers).
class NativeKernel {
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
  /// Steps is meaningful only when countsSteps().
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
/// fails — callers fall back to the bytecode VM.
NativeKernelRef jitCompile(const PRef &Body, const JitOptions &Opts = {},
                           std::string *Err = nullptr);

/// A prepared dispatch: inputs are marshaled once into resident typed
/// buffers, then invoke() reuses them — the cache-hit steady state the
/// bench rows measure (run(VmMemory&) pays the variant conversion every
/// call). Input arrays the program stores into are re-seeded from a
/// pristine copy before each invoke, so repeated invocations see the
/// same initial memory.
class NativeCall {
public:
  explicit NativeCall(NativeKernelRef K);

  /// Binds inputs from \p Memory (same typing rules as NativeKernel::run).
  /// Returns false with a diagnostic on a type mismatch.
  bool bind(const VmMemory &Memory, std::string *Err = nullptr);

  /// Dispatches against the resident buffers. Outputs are captured
  /// internally (read them back with scalar()); \p Memory from bind() is
  /// never written.
  VmRunResult invoke(int64_t MaxSteps = int64_t(1) << 28);

  /// The value of a scalar after the last successful invoke().
  std::optional<ImpValue> scalar(const std::string &Name) const;

private:
  NativeKernelRef K;
  // Resident manifest-indexed buffers.
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
  // Last invoke's scalar outputs.
  std::vector<int64_t> OutScI;
  std::vector<double> OutScF;
  std::vector<uint8_t> OutScB;
  std::vector<uint8_t> OutScDef;
};

/// Production entry point: native when possible, else the bytecode VM
/// (one warning per process on the first fallback). \p Opts.CountSteps is
/// forced on so VmRunResult::Steps stays meaningful either way.
VmRunResult nativeRunWithFallback(const PRef &Body, VmMemory &Memory,
                                  int64_t MaxSteps = int64_t(1) << 28,
                                  const JitOptions &Opts = {});

/// Hex SHA-256 of \p Data (exposed for cache tests).
std::string jitSha256Hex(const std::string &Data);

} // namespace etch

#endif // ETCH_COMPILER_JIT_H
