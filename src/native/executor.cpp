// The native entry point: runs a built module's host functions with the
// VM's execution model (vm::Interp::tryCall and execParallelOmp).
#include "native/native.h"

#include "support/metrics.h"

namespace paralift::native {

using namespace abi;

// A unit reads the host's slots, descriptors and arena marks through
// native/abi.h's C mirrors of them.
static_assert(sizeof(pl_slot) == sizeof(vm::Slot));
static_assert(vm::kMaxRank == 6 && sizeof(pl_memref) == sizeof(vm::MemRef) &&
              offsetof(pl_memref, elem) == offsetof(vm::MemRef, elem) &&
              offsetof(pl_memref, rank) == offsetof(vm::MemRef, rank) &&
              offsetof(pl_memref, data) == offsetof(vm::MemRef, data) &&
              offsetof(pl_memref, sizes) == offsetof(vm::MemRef, sizes));
static_assert(offsetof(Executor::Host, table) == 0);

namespace {

/// Traps tryRun caught, as vm.exec.errors counts the VM's.
metrics::Counter &nativeExecErrors() {
  static metrics::Counter *c =
      &metrics::MetricsRegistry::instance().counter("native.exec.errors");
  return *c;
}

vm::Arena &arenaOf(pl_ctx *ctx) {
  return *static_cast<vm::Arena *>(ctx->arena);
}

/// omp.parallel, as Interp::execParallelOmp runs it: each member of a pool
/// team runs the body with its own context and fresh arena, and a throw
/// reaches tryRun's boundary after the team joins.
void hostParallel(pl_ctx *ctx, void (*body)(pl_ctx *, void *), void *env) {
  const auto *host = reinterpret_cast<const Executor::Host *>(ctx->host);
  host->pool->parallelContained([&](unsigned tid, runtime::Team &team) {
    vm::Arena arena;
    pl_ctx member{tid, team.size(), &team, &arena, ctx->host};
    body(&member, env);
  });
}

void hostBarrier(pl_ctx *ctx) {
  if (ctx->team)
    static_cast<runtime::Team *>(ctx->team)->barrier();
}

char *hostAlloc(pl_ctx *ctx, int64_t bytes) {
  return arenaOf(ctx).allocate(static_cast<size_t>(bytes));
}

pl_mark hostMark(pl_ctx *ctx) {
  vm::Arena::Mark m = arenaOf(ctx).mark();
  return {m.descs, m.bufs};
}

void hostRelease(pl_ctx *ctx, pl_mark m) {
  arenaOf(ctx).release({m.descs, m.bufs});
}

} // namespace

Executor::Executor(std::shared_ptr<const Module> module, unsigned maxThreads)
    : module_(std::move(module)), pool_(maxThreads),
      host_{{hostParallel, hostBarrier, hostAlloc, hostMark, hostRelease},
            &pool_} {}

std::vector<vm::Slot> Executor::run(
    const std::string &fn, const std::vector<driver::Executor::Arg> &args) {
  vm::CallResult r = tryRun(fn, args);
  if (!r.ok())
    fatalError(r.error);
  return std::move(r.results);
}

vm::CallResult Executor::tryRun(
    const std::string &fn, const std::vector<driver::Executor::Arg> &args) {
  vm::CallResult out;
  const pl_entry *entry = module_->lookup(fn);
  if (!entry) {
    out.error = "no such function: " + fn;
    return out;
  }
  if (args.size() != entry->num_args) {
    out.error = "call arity mismatch for '" + fn + "': got " +
                std::to_string(args.size()) + " args, function takes " +
                std::to_string(entry->num_args);
    return out;
  }
  std::vector<vm::Slot> slots = driver::Executor::marshal(args, descs_);
  out.results.resize(entry->num_results);
  vm::Arena arena;
  pl_ctx ctx{0, 1, nullptr, &arena, &host_.table};
  try {
    entry->fn(&ctx, reinterpret_cast<const pl_slot *>(slots.data()),
              reinterpret_cast<pl_slot *>(out.results.data()));
  } catch (const std::exception &e) {
    out.error = "trap in '" + fn + "': " + e.what();
    out.results.clear();
    nativeExecErrors().add();
  } catch (...) {
    out.error = "trap in '" + fn + "': non-standard exception";
    out.results.clear();
    nativeExecErrors().add();
  }
  descs_.release({0, 0});
  return out;
}

} // namespace paralift::native
