// The ParaLift embedding API: CUDA-subset source -> optimized CPU module
// -> executable bytecode.
//
// The primary interface is driver::CompilerSession (driver/session.h): a
// long-lived object owning the shared thread pool, pass-result cache,
// and run configuration, compiling any number of modules — batched, so
// every queued module's function passes schedule across one pool, and
// asynchronously, with CompileJob futures. Suites, benchmarks, and
// embedders compiling more than one module should hold a session:
//
//   driver::SessionOptions so;
//   so.threads = 4;                 // one pool for the whole suite
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
// Migration from the pre-session facade: compile(src, opts, diag[, cfg])
// and compileForSimt(src, diag) behave exactly as before (including the
// $PARALIFT_CACHE_DIR process-wide cache); every former call site that
// compiled several modules in a loop can instead queue them on one
// session and share its pool and cache.
#pragma once

#include "driver/session.h"
#include "runtime/thread_pool.h"
#include "vm/compile.h"
#include "vm/interp.h"

#include <memory>
#include <variant>

namespace paralift::driver {

/// One-shot wrapper: full pipeline (frontend -> optimization/cpuify/
/// omp-lowering) through a temporary session.
CompileResult compile(const std::string &source,
                      const transforms::PipelineOptions &opts,
                      DiagnosticEngine &diag);

/// As above with pass-manager instrumentation/scheduling knobs: per-pass
/// time + IR-arena growth (config.timing), verify-after-each-pass,
/// preserved-analyses cross-checking (config.verifyAnalyses), parallel
/// per-kernel scheduling of function passes (config.threads), and a
/// pass-result cache (config.cache).
///
/// When config.cache is null and PARALIFT_CACHE_DIR is set in the
/// environment, a process-wide persistent cache rooted there is used
/// (bounded by PARALIFT_CACHE_LIMIT MB when set); with
/// PARALIFT_CACHE_STATS=1 its stats line is printed to stderr at
/// process exit.
CompileResult compile(const std::string &source,
                      const transforms::PipelineOptions &opts,
                      DiagnosticEngine &diag,
                      const transforms::PassRunConfig &config);

/// One-shot wrapper for SessionMode::Simt: frontend + device-function
/// inlining only. Barriers are preserved; kernels execute on the
/// lockstep SIMT emulator giving ground-truth CUDA semantics.
CompileResult compileForSimt(const std::string &source,
                             DiagnosticEngine &diag);

/// Executes a compiled module on the thread-pool runtime.
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

private:
  vm::BCModule bc_;
  runtime::ThreadPool pool_;
  std::unique_ptr<vm::Interp> interp_;
};

} // namespace paralift::driver
