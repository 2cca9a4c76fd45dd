// Per-module bump-pointer arena backing all IR node memory.
//
// Every Op, ValueImpl, Block, and Region of a module lives in the module's
// IRArena: allocation is a (thread-safe, lock-free) bump of the current
// slab, and destroying the module releases every slab at once instead of
// walking the op tree with recursive deletes. Three design rules make the
// O(1)-teardown story hold:
//
//  1. IR nodes are trivially destructible. Dynamic payloads (operand
//     lists, use lists, block args, region lists, attribute entries) use
//     ArenaVector, whose buffers come from the same arena and are simply
//     abandoned on growth. static_asserts in op.h enforce this.
//  2. The few non-trivial payloads — std::string / std::vector<int64_t>
//     attribute *values* — register a destructor record on first use
//     (AttrMap does this lazily); ~IRArena runs the records, then frees
//     slabs. Ops without string attrs never touch the list.
//  3. Erasing IR mid-lifetime (Op::erase, Region::clear) is
//     unlink-without-free: use-def edges are detached, the
//     node's memory stays in the arena until the module dies. Memory is
//     monotonic per module and bounded by what the pipeline materializes.
//
// Allocation is thread-safe: the hot path is one atomic fetch_add on the
// current slab; slab exhaustion takes a mutex to chain a new slab
// (doubling size, capped). Destructor registration is a lock-free CAS
// push (rare path). Two threads may allocate concurrently, but — as
// before this arena existed — must not mutate the same IR node. The
// compiler itself never allocates into one arena from two threads at
// once: the batch executor runs each module's whole pipeline, cache
// replays included, on the module's own task.
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <new>
#include <string>
#include <type_traits>
#include <utility>

namespace paralift::ir {

class Op;

class IRArena {
public:
  IRArena();
  ~IRArena();
  IRArena(const IRArena &) = delete;
  IRArena &operator=(const IRArena &) = delete;

  /// Returns `size` bytes aligned to 16 (sizes round up to a multiple of
  /// 16, slabs are 16-aligned). Thread-safe; never returns null (throws
  /// std::bad_alloc on OS exhaustion like operator new).
  void *allocate(size_t size);

  /// Placement-constructs a T in the arena. T must be trivially
  /// destructible — non-trivial payloads go through registerDestructor.
  template <typename T, typename... Args> T *create(Args &&...args) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena objects must not need destructors; register one "
                  "explicitly for non-trivial payloads");
    return new (allocate(sizeof(T))) T(std::forward<Args>(args)...);
  }

  /// Registers `fn(obj)` to run when the arena is destroyed (LIFO order).
  /// For the rare non-trivially-destructible payloads (string attrs).
  /// Thread-safe.
  void registerDestructor(void *obj, void (*fn)(void *));

  /// The op whose Op::destroy releases this arena (the owning module).
  /// Destroying any other op allocated here only detaches use-def edges.
  Op *root() const { return root_; }
  void setRoot(Op *op) {
    assert(!root_ && "arena already has a root");
    root_ = op;
  }

  struct Stats {
    size_t slabs = 0;          ///< chained slab count
    size_t bytesReserved = 0;  ///< sum of slab capacities
    size_t bytesAllocated = 0; ///< bytes handed out (16-rounded)
    size_t destructorRecords = 0;
  };
  Stats stats() const;

  /// Bytes handed out so far (16-rounded). One relaxed load — cheap
  /// enough for the pass manager to read before/after every pass to
  /// attribute IR growth per (module, pass).
  size_t bytesAllocated() const {
    return bytesAllocated_.load(std::memory_order_relaxed);
  }

private:
  struct Slab {
    Slab *prev;                ///< chain for teardown
    size_t capacity;           ///< usable bytes after the header
    std::atomic<size_t> used;  ///< bump offset into data
    static constexpr size_t headerBytes() {
      return (sizeof(Slab) + 15) & ~size_t{15};
    }
    // Slab payload follows the (16-rounded) header; the slab block itself
    // is 16-aligned, so every payload offset that is a multiple of 16 is
    // 16-aligned.
    char *data() { return reinterpret_cast<char *>(this) + headerBytes(); }
  };

  struct DtorRecord {
    void (*fn)(void *);
    void *obj;
    DtorRecord *next;
  };

  Slab *newSlab(size_t minPayload);
  void *allocateSlow(size_t size);

  std::atomic<Slab *> current_{nullptr};
  std::mutex slabMutex_; ///< guards slab chaining only
  std::atomic<DtorRecord *> dtors_{nullptr};
  std::atomic<size_t> bytesAllocated_{0};
  Op *root_ = nullptr;

  /// First slab: one page-ish; doubles per chained slab up to the cap so
  /// tiny modules stay tiny and big ones amortize the mutex.
  static constexpr size_t kFirstSlabBytes = 4 * 1024;
  static constexpr size_t kMaxSlabBytes = 1024 * 1024;
};

/// Interns an attribute name (they come from a fixed small set: "value",
/// "pred", "sym_name", ...) into a process-wide table, returning a stable
/// NUL-terminated pointer. Equal contents always return the same pointer,
/// so interned names compare by pointer. Thread-safe; common names are
/// pre-seeded so the hot parse path takes only a shared lock.
const char *internAttrName(const char *name, size_t len);
inline const char *internAttrName(const std::string &name) {
  return internAttrName(name.data(), name.size());
}

//===----------------------------------------------------------------------===//
// ArenaVector
//===----------------------------------------------------------------------===//

/// A minimal vector whose buffer lives in an IRArena. Growth allocates a
/// fresh buffer and abandons the old one (arena memory is only reclaimed
/// at module teardown). The vector itself is trivially destructible: it
/// NEVER destroys elements in a destructor — clear()/erase()/assignment
/// destroy (for non-trivial T), and owners of non-trivial payloads must
/// arrange end-of-life destruction via IRArena::registerDestructor (see
/// AttrMap). Mutation is single-threaded per vector, like std::vector.
template <typename T> class ArenaVector {
public:
  ArenaVector() = default;
  explicit ArenaVector(IRArena *arena) : arena_(arena) {}
  // Trivially destructible on purpose; see class comment.
  ~ArenaVector() = default;
  ArenaVector(const ArenaVector &) = delete;
  ArenaVector &operator=(const ArenaVector &) = delete;

  using iterator = T *;
  using const_iterator = const T *;
  iterator begin() { return data_; }
  iterator end() { return data_ + size_; }
  const_iterator begin() const { return data_; }
  const_iterator end() const { return data_ + size_; }

  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }
  T &operator[](size_t i) { return data_[i]; }
  const T &operator[](size_t i) const { return data_[i]; }
  T &front() { return data_[0]; }
  const T &front() const { return data_[0]; }
  T &back() { return data_[size_ - 1]; }
  const T &back() const { return data_[size_ - 1]; }

  IRArena *arena() const { return arena_; }

  void reserve(size_t n) {
    if (n > cap_)
      grow(n);
  }

  void push_back(const T &v) { emplace_back(v); }
  void push_back(T &&v) { emplace_back(std::move(v)); }

  template <typename... Args> T &emplace_back(Args &&...args) {
    if (size_ == cap_)
      grow(size_ + 1);
    return *new (data_ + size_++) T(std::forward<Args>(args)...);
  }

  void pop_back() {
    assert(size_ > 0);
    --size_;
    if constexpr (!std::is_trivially_destructible_v<T>)
      data_[size_].~T();
  }

  void clear() {
    if constexpr (!std::is_trivially_destructible_v<T>)
      for (size_t i = 0; i < size_; ++i)
        data_[i].~T();
    size_ = 0;
  }

  /// Erases the element at index i, shifting the tail down (stable order).
  void eraseAt(size_t i) {
    assert(i < size_);
    for (size_t j = i + 1; j < size_; ++j)
      data_[j - 1] = std::move(data_[j]);
    pop_back();
  }

  /// Inserts before index i, shifting the tail up (stable order).
  void insertAt(size_t i, T v) {
    assert(i <= size_);
    if (size_ == cap_)
      grow(size_ + 1);
    if (i == size_) {
      new (data_ + size_++) T(std::move(v));
      return;
    }
    new (data_ + size_) T(std::move(data_[size_ - 1]));
    for (size_t j = size_ - 1; j > i; --j)
      data_[j] = std::move(data_[j - 1]);
    data_[i] = std::move(v);
    ++size_;
  }

  /// Removes index i by swapping the last element in (O(1), unordered).
  void swapRemove(size_t i) {
    assert(i < size_);
    data_[i] = std::move(data_[size_ - 1]);
    pop_back();
  }

  /// Points the vector at externally carved arena storage (Op::create
  /// carves one arena block for an op and all its arrays). Only valid
  /// while empty; growth past `cap` falls back to a fresh arena buffer.
  void adoptStorage(T *data, size_t cap) {
    assert(size_ == 0 && "adoptStorage on a non-empty vector");
    data_ = data;
    cap_ = static_cast<uint32_t>(cap);
  }

  bool operator==(const ArenaVector &o) const {
    if (size_ != o.size_)
      return false;
    for (size_t i = 0; i < size_; ++i)
      if (!(data_[i] == o.data_[i]))
        return false;
    return true;
  }

private:
  void grow(size_t need) {
    assert(arena_ && "ArenaVector used without an arena");
    size_t cap = cap_ ? cap_ * 2 : 4;
    while (cap < need)
      cap *= 2;
    T *fresh = static_cast<T *>(arena_->allocate(cap * sizeof(T)));
    for (size_t i = 0; i < size_; ++i) {
      new (fresh + i) T(std::move(data_[i]));
      if constexpr (!std::is_trivially_destructible_v<T>)
        data_[i].~T();
    }
    data_ = fresh; // old buffer stays in the arena
    cap_ = static_cast<uint32_t>(cap);
  }

  T *data_ = nullptr;
  uint32_t size_ = 0;
  uint32_t cap_ = 0;
  IRArena *arena_ = nullptr;
};

} // namespace paralift::ir
