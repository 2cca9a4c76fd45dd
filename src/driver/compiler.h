// The ParaLift embedding API: CUDA-subset source -> optimized CPU module
// -> executable bytecode, run by Executor on the verified VM.
//
// A successfully compiled module can also be built into native code
// (native::Module::build, native/native.h) and run by native::Executor,
// which takes the same Executor::Arg arguments (through the one
// Executor::marshal) and computes byte-identical outputs. The native
// build needs a working C compiler at run time; MocCUDA's PyTorch kernels
// use it and fall back to this VM when the build fails.
//
// The primary interface is driver::CompilerSession (driver/session.h): a
// long-lived object owning the pass-result cache and run configuration,
// compiling any number of modules — batched, so the queued modules
// compile in parallel on one team, one task per module, and
// asynchronously, with CompileJob futures. Suites,
// benchmarks, and embedders compiling more than one module should hold
// a session:
//
//   driver::SessionOptions so;
//   so.threads = 4;                 // team size for the whole suite
//   driver::CompilerSession session(so);
//   auto &job = session.addSource("vecnorm.cu", source);
//   session.compileAll();           // or compileAllAsync() + job.wait()
//   driver::Executor exec(job.result().module.get(), /*maxThreads=*/8);
//   exec.run("launch", {Executor::buffer(out), Executor::buffer(in),
//                       int64_t(n)});
//
// The free functions below are the legacy one-shot facade, kept as thin
// wrappers over a temporary single-job session. They remain the
// convenient spelling for compiling exactly one module:
//
//   DiagnosticEngine diag;
//   auto cc = driver::compile(source, PipelineOptions{}, diag);
//
// Migration from the pre-session facade: compile(src, opts, diag) and
// compileForSimt(src, diag) behave exactly as before (including the
// $PARALIFT_CACHE_DIR process-wide cache); every former call site that
// compiled several modules in a loop can instead queue them on one
// session and share its cache. Verify-each, timing and an
// explicit cache are SessionOptions fields.
#pragma once

#include "driver/session.h"
#include "runtime/thread_pool.h"
#include "vm/compile.h"
#include "vm/interp.h"

#include <memory>
#include <variant>

namespace paralift::driver {

/// One-shot wrapper: full pipeline (frontend -> optimization/cpuify/
/// omp-lowering) through a temporary session, on the calling thread.
///
/// When PARALIFT_CACHE_DIR is set in the environment, a process-wide
/// persistent cache rooted there is used (bounded by PARALIFT_CACHE_LIMIT
/// MB when set); with PARALIFT_CACHE_STATS=1 its stats line is printed to
/// stderr at process exit.
CompileResult compile(const std::string &source,
                      const transforms::PipelineOptions &opts,
                      DiagnosticEngine &diag);

/// One-shot wrapper for SessionMode::Simt: the frontend, then the
/// one-pass pipeline inline{kernels-only=true} (device-function inlining
/// only). Barriers are preserved; kernels execute on the lockstep SIMT
/// emulator giving ground-truth CUDA semantics.
CompileResult compileForSimt(const std::string &source,
                             DiagnosticEngine &diag);

/// Executes a compiled module on the VM, running its parallel regions on
/// teams borrowed from the process's team runtime (runtime/thread_pool.h);
/// an executor owns no threads.
class Executor {
public:
  struct Buffer {
    ir::TypeKind elem;
    void *data;
    std::vector<int64_t> dims;
  };
  using Arg = std::variant<int64_t, double, Buffer>;

  static Buffer bufferF32(float *data, std::vector<int64_t> dims) {
    return {ir::TypeKind::F32, data, std::move(dims)};
  }
  static Buffer bufferF64(double *data, std::vector<int64_t> dims) {
    return {ir::TypeKind::F64, data, std::move(dims)};
  }
  static Buffer bufferI32(int32_t *data, std::vector<int64_t> dims) {
    return {ir::TypeKind::I32, data, std::move(dims)};
  }

  Executor(ir::ModuleOp module, unsigned maxThreads,
           bool boundsCheck = true);

  /// Team size for subsequent runs (1..maxThreads).
  void setNumThreads(unsigned n) { pool_.setNumThreads(n); }
  /// Nested-parallel policy (Spawn = PolygeistInnerPar cost model).
  void setNestedPolicy(runtime::NestedPolicy p) {
    pool_.setNestedPolicy(p);
  }

  /// Invokes a host function. Scalar results are returned as raw slots.
  /// Aborts on an unknown name or arity mismatch; use tryRun where the
  /// caller must survive bad requests.
  std::vector<vm::Slot> run(const std::string &fn,
                            const std::vector<Arg> &args);

  /// Like run(), but surfaces unknown-function/arity errors structurally.
  vm::CallResult tryRun(const std::string &fn, const std::vector<Arg> &args);

  /// Arguments as the VM and the native tier (native/native.h) take
  /// them: scalars by value, each buffer as a vm::MemRef descriptor from
  /// `descs`, valid until the caller releases them.
  static std::vector<vm::Slot> marshal(const std::vector<Arg> &args,
                                       vm::Arena &descs);

private:
  vm::BCModule bc_;
  runtime::ThreadPool pool_;
  std::unique_ptr<vm::Interp> interp_;
  vm::Arena descs_; ///< descriptors of the current call's buffers
};

} // namespace paralift::driver
