#include "driver/compiler.h"

namespace paralift::driver {

// The legacy free functions are one-shot wrappers over a temporary
// single-job CompilerSession (driver/session.{h,cpp}); behavior —
// diagnostics, verification gates, $PARALIFT_CACHE_DIR handling — is the
// session's single-module path, which matches the pre-session facade
// exactly.

CompileResult compile(const std::string &source,
                      const transforms::PipelineOptions &opts,
                      DiagnosticEngine &diag) {
  CompilerSession session;
  CompileJob &job = session.addSource("", source, opts);
  session.compileAll();
  diag.mergeFrom(job.diagnostics());
  return job.take();
}

CompileResult compileForSimt(const std::string &source,
                             DiagnosticEngine &diag) {
  SessionOptions so;
  so.mode = SessionMode::Simt;
  CompilerSession session(std::move(so));
  CompileJob &job = session.addSource("", source);
  session.compileAll();
  diag.mergeFrom(job.diagnostics());
  return job.take();
}

Executor::Executor(ir::ModuleOp module, unsigned maxThreads,
                   bool boundsCheck)
    : bc_(vm::compileModule(module)), pool_(maxThreads) {
  // Our own compiler's output must always verify; a failure here is a
  // compiler bug, not a user error, so the tripwire is fatal.
  vm::VerifyResult vr;
  std::optional<vm::VerifiedModule> token = vm::VerifiedModule::create(bc_, &vr);
  if (!token)
    fatalError("compiled module failed bytecode verification:\n" + vr.str());
  vm::ExecOptions opts;
  opts.boundsCheck = boundsCheck;
  interp_ = std::make_unique<vm::Interp>(*token, pool_, opts);
}

std::vector<vm::Slot> Executor::run(const std::string &fn,
                                    const std::vector<Arg> &args) {
  vm::CallResult r = tryRun(fn, args);
  if (!r.ok())
    fatalError(r.error);
  return std::move(r.results);
}

std::vector<vm::Slot> Executor::marshal(const std::vector<Arg> &args,
                                        vm::Arena &descs) {
  std::vector<vm::Slot> slots;
  slots.reserve(args.size());
  for (const Arg &a : args) {
    vm::Slot s;
    if (auto *i = std::get_if<int64_t>(&a))
      s.i = *i;
    else if (auto *f = std::get_if<double>(&a))
      s.f = *f;
    else {
      const Buffer &b = std::get<Buffer>(a);
      s = vm::wrapBuffer(descs, b.elem, b.data, b.dims);
    }
    slots.push_back(s);
  }
  return slots;
}

vm::CallResult Executor::tryRun(const std::string &fn,
                                const std::vector<Arg> &args) {
  vm::CallResult r = interp_->tryCall(fn, marshal(args, descs_));
  descs_.release({0, 0});
  return r;
}

} // namespace paralift::driver
