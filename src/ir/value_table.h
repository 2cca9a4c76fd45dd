// An open-addressing map keyed by IR values, and the pre-order value
// numbering that the printer (%N names) and the structural hasher share.
//
// Cost model: finding a value's entry is one multiply, a shift and a
// short linear probe over a flat array kept at most half full. Nothing
// is allocated per entry, and clear() keeps the arrays, so one table
// reused across functions or modules allocates only while it grows.
#pragma once

#include "ir/op.h"

#include <algorithm>
#include <cstdint>
#include <vector>

namespace paralift::ir {

/// Open-addressing hash map from a value to a T (default-constructed on
/// first use): Fibonacci hashing of the pointer, then linear probing.
template <typename T> class ValueTable {
public:
  void clear() {
    std::fill(keys_.begin(), keys_.end(), nullptr);
    size_ = 0;
  }

  /// The value's entry, default-constructed on first use.
  T &operator[](ValueImpl *v) {
    if (2 * (size_ + 1) > keys_.size())
      grow();
    size_t i = slot(v);
    if (!keys_[i]) {
      keys_[i] = v;
      vals_[i] = T{};
      ++size_;
    }
    return vals_[i];
  }

  /// The value's entry, or null when it has none.
  const T *find(ValueImpl *v) const {
    if (keys_.empty())
      return nullptr;
    size_t i = slot(v);
    return keys_[i] ? &vals_[i] : nullptr;
  }

private:
  /// v's slot, or the empty slot where it goes.
  size_t slot(ValueImpl *v) const {
    size_t mask = keys_.size() - 1;
    uint64_t h = (reinterpret_cast<uintptr_t>(v) >> 4) * 0x9e3779b97f4a7c15ull;
    size_t i = h >> (64 - shift_);
    while (keys_[i] && keys_[i] != v)
      i = (i + 1) & mask;
    return i;
  }

  /// The first table has 1,024 slots, room for 512 values (57 of the
  /// Rodinia batch's 64 modules hold fewer), so a fresh table, as each
  /// print and hashOp takes, seldom rehashes.
  void grow() {
    std::vector<ValueImpl *> keys = std::move(keys_);
    std::vector<T> vals = std::move(vals_);
    shift_ = keys.empty() ? 10 : shift_ + 1;
    keys_.assign(size_t(1) << shift_, nullptr);
    vals_.resize(keys_.size());
    for (size_t i = 0; i < keys.size(); ++i)
      if (keys[i]) {
        size_t j = slot(keys[i]);
        keys_[j] = keys[i];
        vals_[j] = vals[i];
      }
  }

  std::vector<ValueImpl *> keys_;
  std::vector<T> vals_;
  size_t size_ = 0;
  unsigned shift_ = 0;
};

/// Numbers every value defined in `op`'s tree from `next` on, in the
/// order the printer names them (%N): an op's results, then per region
/// per block the block's arguments, then its ops, recursively. Returns
/// the next free number.
inline uint32_t numberValues(Op *op, ValueTable<uint32_t> &ids,
                             uint32_t next = 0) {
  for (unsigned i = 0; i < op->numResults(); ++i)
    ids[op->result(i).impl()] = next++;
  for (unsigned r = 0; r < op->numRegions(); ++r)
    for (Block *block : op->region(r).blocks()) {
      for (unsigned a = 0; a < block->numArgs(); ++a)
        ids[block->arg(a).impl()] = next++;
      for (Op *inner = block->front(); inner; inner = inner->next())
        next = numberValues(inner, ids, next);
    }
  return next;
}

} // namespace paralift::ir
