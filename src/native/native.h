// The native execution tier: a module the session compiled, emitted as
// one C unit (native/emit.h), built once into a shared object and run on
// the team runtime exactly as vm::Interp runs its bytecode. Its
// outputs are byte-identical to the VM's.
//
// Build (Module::build). The emitted unit is compiled by the C++ compiler
// the library was configured with, spawned with posix_spawn and no shell,
// with the fixed argv
//   -x c -std=c11 -O3 -fPIC -shared -ffp-contract=off -fexceptions
// into a fresh mkdtemp directory under temp_directory_path(), then
// loaded with dlopen; the directory is removed once the object is loaded
// or the build has failed, and the compiler child is reaped on every
// path. -ffp-contract=off keeps a*b+c two roundings, as in the VM, and
// -fexceptions lets a throw from a host callback unwind through the unit
// to tryRun's boundary, as the VM's traps do. Every failure is an error on
// the caller's DiagnosticEngine, never a crash. A build is traced as a
// `native.build:<name>` span (emit, compiler, dlopen; argument `bytes`,
// the unit's size) and counted in `native.builds` or
// `native.build_failures`, with its seconds in `native.build_seconds`.
// The `native.compile` failpoint fires where the compiler would start:
// `throw` and `error` both fail the build.
//
// Trust. Only the module of a successful compile (CompileResult::ok) can
// be built; bytecode from outside reaches only the verified VM. The
// emitted code runs without bounds checks, like Executor with
// boundsCheck=false, on inputs the caller vouches for.
//
// Execution (Executor). Parallelism goes through runtime::ThreadPool, not
// libgomp: an omp.parallel body runs on a team borrowed from the process's
// one team runtime (runtime/thread_pool.h), so team size, the nested
// policy and barriers are the runtime's, and native code shares its
// workers with every other caller in the process (MocCUDA's GEMM
// parallelFor, say) instead of starting threads of its own. Each call and
// each team member gets a fresh vm::Arena, as on the VM.
#pragma once

#include "driver/compiler.h"

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>

namespace paralift::native {

namespace abi {
#include "native/abi.h"
} // namespace abi

/// A built and loaded module: its host functions by name. Immutable and
/// shareable across executors and threads; unloaded with the last owner.
class Module {
public:
  /// Emits, compiles and loads `cc`'s module. Null, with an error on
  /// `diag`, when `cc` did not compile, the emitter rejects the module (a
  /// SIMT module), or the compiler, the loader or the failpoint fails.
  static std::shared_ptr<const Module> build(const driver::CompileResult &cc,
                                             const std::string &name,
                                             DiagnosticEngine &diag);

  ~Module();
  Module(const Module &) = delete;
  Module &operator=(const Module &) = delete;

  /// The host function `name`, or null.
  const abi::pl_entry *lookup(const std::string &name) const;

private:
  explicit Module(void *handle) : handle_(handle) {}

  void *handle_;
  std::unordered_map<std::string, const abi::pl_entry *> entries_;
};

/// Runs a built module's host functions: driver::Executor's interface on
/// native code. Like driver::Executor, one call at a time.
class Executor {
public:
  Executor(std::shared_ptr<const Module> module, unsigned maxThreads);

  /// Team size for subsequent runs (1..maxThreads).
  void setNumThreads(unsigned n) { pool_.setNumThreads(n); }
  /// Nested-parallel policy (Spawn = PolygeistInnerPar cost model).
  void setNestedPolicy(runtime::NestedPolicy p) { pool_.setNestedPolicy(p); }

  /// Invokes a host function; aborts on an error, as
  /// driver::Executor::run does.
  std::vector<vm::Slot> run(const std::string &fn,
                            const std::vector<driver::Executor::Arg> &args);

  /// Like run(), but an unknown function, an arity mismatch or a trap
  /// (a throw from a host callback, such as a failed allocation) is a
  /// CallResult error with the VM's wording. Traps are counted in the
  /// "native.exec.errors" metric, as the VM counts its own in
  /// "vm.exec.errors".
  vm::CallResult tryRun(const std::string &fn,
                        const std::vector<driver::Executor::Arg> &args);

  /// The callbacks a unit calls, with the handle they borrow teams
  /// through; `table` comes first, so a unit's `ctx->host` points at the
  /// whole Host.
  struct Host {
    abi::pl_host table;
    runtime::ThreadPool *pool;
  };

private:
  std::shared_ptr<const Module> module_;
  runtime::ThreadPool pool_;
  Host host_;
  vm::Arena descs_; ///< descriptors of the current call's buffers
};

} // namespace paralift::native
