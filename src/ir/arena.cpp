#include "ir/arena.h"

#include "support/metrics.h"

#include <algorithm>
#include <new>
#include <shared_mutex>
#include <sys/mman.h>
#include <string>
#include <unordered_set>

namespace paralift::ir {

//===----------------------------------------------------------------------===//
// IRArena
//===----------------------------------------------------------------------===//

namespace {
/// Process-wide live slab memory across every arena. Updated only on the
/// rare slab-chain/teardown paths, so the bump-allocation hot path never
/// touches a shared cache line; the gauge's peak is the "arena peak
/// bytes" figure benches and snapshots report.
metrics::Gauge &reservedBytesGauge() {
  static metrics::Gauge &g =
      metrics::MetricsRegistry::instance().gauge("arena.reserved_bytes");
  return g;
}

/// Slabs of this many payload bytes and up are mapped from the OS and
/// unmapped with their arena, not taken from malloc. A module's slabs are
/// freed on whichever thread drops it, and the team runtime's workers
/// persist, so malloc would keep a freed slab in the heap of the thread
/// that allocated it: with malloc slabs, a compile batch's workers each
/// held 4.2-4.7 MB of heap with about 95 KB of it live.
constexpr size_t kMappedSlabBytes = 64 * 1024;

void *slabAlloc(size_t bytes, size_t payload) {
  if (payload < kMappedSlabBytes)
    return ::operator new(bytes, std::align_val_t(16));
  void *mem = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (mem == MAP_FAILED)
    throw std::bad_alloc();
  return mem;
}

void slabFree(void *mem, size_t bytes, size_t payload) {
  if (payload < kMappedSlabBytes)
    ::operator delete(mem, std::align_val_t(16));
  else
    munmap(mem, bytes);
}
} // namespace

IRArena::IRArena() { current_.store(newSlab(kFirstSlabBytes)); }

IRArena::~IRArena() {
  // Non-trivial payloads first (LIFO): the objects live in the slabs.
  for (DtorRecord *r = dtors_.load(std::memory_order_relaxed); r;
       r = r->next)
    r->fn(r->obj);
  Slab *s = current_.load(std::memory_order_relaxed);
  size_t reserved = 0;
  while (s) {
    Slab *prev = s->prev;
    size_t payload = s->capacity;
    reserved += payload;
    slabFree(s, Slab::headerBytes() + payload, payload);
    s = prev;
  }
  reservedBytesGauge().add(-static_cast<int64_t>(reserved));
}

IRArena::Slab *IRArena::newSlab(size_t minPayload) {
  Slab *cur = current_.load(std::memory_order_relaxed);
  size_t payload = cur ? std::min(cur->capacity * 2, kMaxSlabBytes)
                       : minPayload;
  if (payload < minPayload)
    payload = minPayload;
  void *mem = slabAlloc(Slab::headerBytes() + payload, payload);
  Slab *slab = new (mem) Slab{cur, payload, {0}};
  reservedBytesGauge().add(static_cast<int64_t>(payload));
  return slab;
}

void *IRArena::allocate(size_t size) {
  size = (size + 15) & ~size_t{15};
  if (size == 0)
    size = 16;
  Slab *slab = current_.load(std::memory_order_acquire);
  size_t off = slab->used.fetch_add(size, std::memory_order_relaxed);
  if (off + size <= slab->capacity) {
    bytesAllocated_.fetch_add(size, std::memory_order_relaxed);
    return slab->data() + off;
  }
  return allocateSlow(size);
}

void *IRArena::allocateSlow(size_t size) {
  std::lock_guard<std::mutex> lock(slabMutex_);
  for (;;) {
    // Another thread may have chained a slab while we waited.
    Slab *slab = current_.load(std::memory_order_acquire);
    size_t off = slab->used.fetch_add(size, std::memory_order_relaxed);
    if (off + size <= slab->capacity) {
      bytesAllocated_.fetch_add(size, std::memory_order_relaxed);
      return slab->data() + off;
    }
    current_.store(newSlab(size), std::memory_order_release);
  }
}

void IRArena::registerDestructor(void *obj, void (*fn)(void *)) {
  auto *rec = static_cast<DtorRecord *>(allocate(sizeof(DtorRecord)));
  rec->fn = fn;
  rec->obj = obj;
  rec->next = dtors_.load(std::memory_order_relaxed);
  while (!dtors_.compare_exchange_weak(rec->next, rec,
                                       std::memory_order_release,
                                       std::memory_order_relaxed)) {
  }
}

IRArena::Stats IRArena::stats() const {
  Stats st;
  st.bytesAllocated = bytesAllocated_.load(std::memory_order_relaxed);
  for (Slab *s = current_.load(std::memory_order_acquire); s; s = s->prev) {
    ++st.slabs;
    st.bytesReserved += s->capacity;
  }
  for (DtorRecord *r = dtors_.load(std::memory_order_relaxed); r;
       r = r->next)
    ++st.destructorRecords;
  return st;
}

//===----------------------------------------------------------------------===//
// Attribute-name interning
//===----------------------------------------------------------------------===//

namespace {

struct InternTable {
  std::shared_mutex mutex;
  // Node-based set: element addresses (and thus c_str()) are stable.
  std::unordered_set<std::string> names;

  InternTable() {
    // The fixed attribute vocabulary of the IR; pre-seeding keeps the hot
    // parse/build path on the shared (read) lock.
    for (const char *n :
         {"value", "pred", "sym_name", "callee", "res_types", "dims",
          "index", "gpu.grid", "gpu.block", "kernel", "omp.source"})
      names.emplace(n);
  }
};

InternTable &internTable() {
  static InternTable table;
  return table;
}

} // namespace

const char *internAttrName(const char *name, size_t len) {
  InternTable &t = internTable();
  // The transparent-lookup dance isn't worth it for a handful of names;
  // build the key once.
  std::string key(name, len);
  {
    std::shared_lock<std::shared_mutex> lock(t.mutex);
    auto it = t.names.find(key);
    if (it != t.names.end())
      return it->c_str();
  }
  std::unique_lock<std::shared_mutex> lock(t.mutex);
  return t.names.emplace(std::move(key)).first->c_str();
}

} // namespace paralift::ir
