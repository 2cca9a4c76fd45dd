/* The interface between an emitted C unit and the process that loads it.

   Written in the common subset of C11 and C++20. Configuring the build
   embeds this file's text in the prelude of every unit the emitter writes
   (native/emit.cpp), and the host side (native/native.h) includes the
   same file, so both sides agree on every layout by construction. It has
   no includes of its own: each side provides <stddef.h>/<stdint.h> first.

   Values: every integer type is an int64_t, every float type a double, and
   a memref a pl_memref passed by value. A host function `f` of the module
   is reached through the exported table `pl_entries`, whose wrappers take
   and return vm::Slot-shaped arguments. */

/* = vm::Slot: one argument or result. */
typedef union pl_slot {
  int64_t i;
  double f;
  void *p;
} pl_slot;

/* = vm::MemRef: element kind, rank, base pointer and row-major sizes. */
typedef struct pl_memref {
  uint8_t elem;
  uint8_t rank;
  char *data;
  int64_t sizes[6];
} pl_memref;

/* = vm::Arena::Mark: an arena scope, taken before and released after a
   loop iteration that allocates, as the VM's ScopePush/ScopePop do. */
typedef struct pl_mark {
  size_t descs;
  size_t bufs;
} pl_mark;

typedef struct pl_ctx pl_ctx;

/* Host callbacks; each may throw a C++ exception, which unwinds through
   the unit (built with -fexceptions) to the host's call boundary. */
typedef struct pl_host {
  /* Runs body(member_ctx, env) on a team of the host's thread pool, as
     omp.parallel does on the VM, and returns when every member has. */
  void (*parallel)(pl_ctx *ctx, void (*body)(pl_ctx *, void *), void *env);
  /* omp.barrier: waits for the team; a no-op outside one. */
  void (*barrier)(pl_ctx *ctx);
  /* `bytes` (>= 1) of zeroed storage from the context's arena. */
  char *(*alloc)(pl_ctx *ctx, int64_t bytes);
  pl_mark (*mark)(pl_ctx *ctx);
  void (*release)(pl_ctx *ctx, pl_mark m);
} pl_host;

/* One thread's execution context: team id and size (0 and 1 outside a
   team), and the host's team and arena. */
struct pl_ctx {
  int64_t tid;
  int64_t nthreads;
  void *team;
  void *arena;
  const pl_host *host;
};

/* Runs a host function on vm::Slot arguments and results. */
typedef void (*pl_entry_fn)(pl_ctx *ctx, const pl_slot *args,
                            pl_slot *results);

typedef struct pl_entry {
  const char *name;
  pl_entry_fn fn;
  uint32_t num_args;
  uint32_t num_results;
} pl_entry;
