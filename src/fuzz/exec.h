//===- fuzz/exec.h - The differential executor matrix ----------*- C++ -*-===//
//
// Part of the etch project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one fuzz case through every semantics the repo implements and
/// reports divergences against the denotational oracle (`evalT`):
///
///   - oracle: `evalT` over KRelations, dense attributes materialized over
///     their full extent (the reference for both the relation-valued and
///     the fully contracted scalar result);
///   - runtime streams, per SearchPolicy (Linear/Binary/Gallop): the
///     mask-aware evaluation loop, the real `evalStream` when no level is
///     contracted, the real `sumAll`, and the parallel drivers
///     (`parallelSumAll` / chunked evaluation / `parallelEvalStream`) at
///     several chunk counts whenever the outermost level is indexed;
///   - the compiler: `compileFullContraction` at O0/O1/O2 (policy rotated
///     per level), executed on the VM, compared against the oracle total.
///
/// A case that fails `fuzzValidate` is reported as invalid, never a
/// divergence — the executor refuses to run it rather than trip lowering
/// asserts, so hand-edited corpus files degrade gracefully.
///
//===----------------------------------------------------------------------===//

#ifndef ETCH_FUZZ_EXEC_H
#define ETCH_FUZZ_EXEC_H

#include "fuzz/fuzzcase.h"
#include "support/threadpool.h"

#include <string>
#include <vector>

namespace etch {

/// One semantics leg disagreeing with the oracle.
struct FuzzDivergence {
  std::string Leg;    ///< e.g. "stream/gallop/psum3", "vm/O2"
  std::string Detail; ///< expected vs got, capped human-readable dump
};

/// The outcome of running one case through the executor matrix.
struct FuzzReport {
  bool Invalid = false;        ///< case failed fuzzValidate (not a bug)
  std::string ValidationError; ///< why, when Invalid
  std::vector<FuzzDivergence> Divs;

  /// True when the case ran and every leg agreed.
  bool ok() const { return !Invalid && Divs.empty(); }
  /// True when at least one leg diverged (invalid cases are not failures).
  bool failing() const { return !Divs.empty(); }

  std::string toString() const;
};

/// Which compiled-program executor(s) the VM legs run: the tree-walking
/// reference interpreter, the register-allocated bytecode VM, or both.
/// `Both` additionally cross-checks the two directly (bit-identical
/// outputs, identical step counts, identical error text) — stricter than
/// each leg's oracle comparison, which tolerates f64 re-association.
/// `Native` runs the tree VM plus the JIT-to-native backend
/// (compiler/jit.h) with the same strict cross-check; kernels are
/// compiled step-counting so even budget exhaustion must agree. A jit
/// compile failure inside the matrix is reported as a divergence — it
/// marks an emitter gap, and the driver (etch-fuzz) verifies toolchain
/// availability up front, skipping with a distinct exit code when the
/// machine simply has no compiler.
enum class VmBackend { Tree, Bytecode, Both, Native };

/// Runs the full executor matrix on \p C, using \p Pool for the parallel
/// legs.
FuzzReport runFuzzCase(const FuzzCase &C, ThreadPool &Pool,
                       VmBackend Backend = VmBackend::Both);

/// Convenience overload using a lazily constructed shared pool.
FuzzReport runFuzzCase(const FuzzCase &C,
                       VmBackend Backend = VmBackend::Both);

/// The level-format cross-check matrix (`etch-fuzz --formats`): every
/// sparse-vector tensor is re-materialized as a hashed coordinate level
/// (formats/levels.h) and the case re-runs with
///
///   - hashed runtime streams per SearchPolicy ("hstream/<policy>/..."):
///     sorted-snapshot iteration, probe-first skip, checked against the
///     same oracle legs as the stored formats;
///   - compiled legs with every sparse vector re-bound hashed /
///     compressed / dense ("hvm"/"cvm"/"dvm" and bytecode
///     "hbvm"/"cbvm"/"dbvm"): each against the oracle total, and hashed
///     vs compressed additionally bit-for-bit (they iterate the same
///     sorted snapshot, so even f64 must agree exactly). The dense
///     override materializes the full extent and is skipped for huge
///     index spaces.
///
/// Cases without a sparse-vector tensor report ok trivially.
FuzzReport runFuzzFormats(const FuzzCase &C, ThreadPool &Pool,
                          VmBackend Backend = VmBackend::Both);

/// Convenience overload using the shared pool.
FuzzReport runFuzzFormats(const FuzzCase &C,
                          VmBackend Backend = VmBackend::Both);

/// The oracle's fully contracted total for \p C, both as exact text and as
/// a double (for the f64 tolerance). Used by the order sweep
/// (fuzz/reorder.h) to check cross-order agreement. Nullopt if the case is
/// invalid.
struct FuzzTotal {
  std::string Text;
  double Num = 0.0;
};
std::optional<FuzzTotal> fuzzOracleTotal(const FuzzCase &C);

} // namespace etch

#endif // ETCH_FUZZ_EXEC_H
