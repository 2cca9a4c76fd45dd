#include "ir/hasher.h"

#include "ir/op.h"
#include "ir/value_table.h"

#include <cstdio>
#include <cstring>

namespace paralift::ir {

//===----------------------------------------------------------------------===//
// Hash128 primitives
//===----------------------------------------------------------------------===//

namespace {

constexpr uint64_t kFnvPrime = 0x100000001b3ull;

} // namespace

Hash128 hashBytes(const char *data, size_t len) {
  // hashStep over 8-byte little-endian words, the last one zero-padded.
  // The length, mixed in at the end, separates inputs that differ only by
  // trailing zero bytes.
  uint64_t lo = 0xcbf29ce484222325ull, hi = 0x6c62272e07bb0142ull;
  size_t i = 0;
  for (; i + 8 <= len; i += 8) {
    uint64_t w;
    std::memcpy(&w, data + i, 8);
    hashStep(lo, hi, w);
  }
  if (i < len) {
    uint64_t w = 0;
    std::memcpy(&w, data + i, len - i);
    hashStep(lo, hi, w);
  }
  return {avalanche(lo ^ len), avalanche(hi ^ (len * 0xff51afd7ed558ccdull))};
}

Hash128 combineHash(const Hash128 &acc, const Hash128 &next) {
  Hash128 out;
  out.lo = (acc.lo ^ next.lo) * kFnvPrime + next.hi;
  out.hi = (acc.hi ^ next.hi) * kFnvPrime + next.lo;
  return out;
}

std::string Hash128::hex() const {
  char buf[33];
  std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                static_cast<unsigned long long>(hi),
                static_cast<unsigned long long>(lo));
  return buf;
}

std::optional<Hash128> Hash128::fromHex(const std::string &s) {
  if (s.size() != 32)
    return std::nullopt;
  uint64_t parts[2] = {0, 0};
  for (int p = 0; p < 2; ++p) {
    for (int i = 0; i < 16; ++i) {
      char c = s[p * 16 + i];
      uint64_t d;
      if (c >= '0' && c <= '9')
        d = c - '0';
      else if (c >= 'a' && c <= 'f')
        d = 10 + (c - 'a');
      else
        return std::nullopt;
      parts[p] = (parts[p] << 4) | d;
    }
  }
  return Hash128{parts[1], parts[0]};
}

//===----------------------------------------------------------------------===//
// Structural op hashing
//===----------------------------------------------------------------------===//

namespace {

/// Double attrs hash by bit pattern except NaN, whose payload the printer
/// collapses ("nan"/"-nan" regardless of payload bits): canonicalize to a
/// sign-preserving quiet NaN so hashOp keeps the printer's equivalence
/// classes. Finite values and infinities print injectively (appendDouble
/// round-trips exactly), so raw bits match print equality for them.
uint64_t doubleWord(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  if (d != d)
    return (bits & 0x8000000000000000ull) | 0x7ff8000000000000ull;
  return bits;
}

/// Hashes the same structure the printer renders, with values numbered in
/// the printer's pre-order so operand references hash exactly like the
/// %N names they would print as.
class StructuralHasher {
public:
  Hash128 hash(Op *root) {
    numberValues(root, ids_);
    hashRec(root);
    return hs_.finish();
  }

private:
  // Stream tags keeping differently-shaped sections from aliasing. The
  // per-section counts make most of the stream self-delimiting; the end
  // marker closes variable-length block bodies.
  enum : uint64_t {
    kInvalidValue = ~0ull, ///< operand not defined in this tree
    kEndBlock = 0x5eb10cc5ull,
  };

  uint64_t idOf(Value v) {
    const uint32_t *id = ids_.find(v.impl());
    return id ? *id : uint64_t(kInvalidValue);
  }

  void addType(const Type &t) {
    hs_.addWord(static_cast<uint64_t>(t.kind()));
    if (!t.isMemRef())
      return;
    hs_.addWord(static_cast<uint64_t>(t.elemKind()));
    hs_.addWord(t.shape().size());
    for (int64_t dim : t.shape())
      hs_.addWord(static_cast<uint64_t>(dim));
  }

  void addAttrValue(const AttrValue &v) {
    // The variant index separates value spaces the printer also keeps
    // lexically distinct (true vs 1 vs 1.0 vs "1" vs [1]).
    hs_.addWord(v.index());
    if (auto *b = std::get_if<bool>(&v)) {
      hs_.addBool(*b);
    } else if (auto *i = std::get_if<int64_t>(&v)) {
      hs_.addWord(static_cast<uint64_t>(*i));
    } else if (auto *f = std::get_if<double>(&v)) {
      hs_.addWord(doubleWord(*f));
    } else if (auto *s = std::get_if<std::string>(&v)) {
      hs_.addBytes(*s);
    } else if (auto *vec = std::get_if<std::vector<int64_t>>(&v)) {
      hs_.addWord(vec->size());
      for (int64_t x : *vec)
        hs_.addWord(static_cast<uint64_t>(x));
    }
  }

  void hashRec(Op *op) {
    hs_.addWord(static_cast<uint64_t>(op->kind()));
    hs_.addWord(op->numOperands());
    for (unsigned i = 0; i < op->numOperands(); ++i)
      hs_.addWord(idOf(op->operand(i)));
    const auto &attrs = op->attrs().entries();
    hs_.addWord(attrs.size());
    for (const auto &[name, value] : attrs) {
      hs_.addBytes(name);
      addAttrValue(value);
    }
    hs_.addWord(op->numResults());
    for (unsigned i = 0; i < op->numResults(); ++i)
      addType(op->result(i).type());
    hs_.addWord(op->numRegions());
    for (unsigned r = 0; r < op->numRegions(); ++r) {
      const Region &region = op->region(r);
      hs_.addWord(region.numBlocks());
      for (auto &block : region.blocks()) {
        hs_.addWord(block->numArgs());
        for (unsigned a = 0; a < block->numArgs(); ++a)
          addType(block->arg(a).type());
        for (Op *inner : *block)
          hashRec(inner);
        hs_.addWord(kEndBlock);
      }
    }
  }

  HashStream hs_;
  ValueTable<uint32_t> ids_;
};

} // namespace

Hash128 hashOp(Op *op) {
  StructuralHasher h;
  return h.hash(op);
}

} // namespace paralift::ir
