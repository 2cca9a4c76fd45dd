// Content hashing for the IR layer.
//
//  - Hash128 / hashBytes / combineHash: the 128-bit non-cryptographic
//    content-hash primitives shared by the pass-result cache (on-disk
//    payload integrity, key filenames) and the structural hasher.
//  - HashStream: an incremental word-granularity mixer for hashing
//    structured data without materializing it as text.
//  - hashOp: a *structural* hash of an op tree — one walk over op kinds,
//    operand/result value numbering, attributes, types, and region/block
//    structure, with no string materialization. It distinguishes exactly
//    what ir::printOp distinguishes: two ops hash equal iff their printed
//    forms are equal (w.h.p.), because the hashed stream is a function of
//    precisely the structure the printer renders (print-order value
//    numbering included, shared through ir/value_table.h). The
//    pass-result cache keys module jobs on hashOp, so keying a module
//    costs one walk instead of a print + byte hash.
//
// Cost model: hashBytes takes 8 bytes per step (hashStep: an xor, a
// multiply and a rotate in each of two independent streams), then mixes
// in the length. hashOp first numbers the tree's values in pre-order
// into a flat open-addressing table (ir/value_table.h's numberValues,
// which the printer shares), then takes one step per hashed word and
// one table probe per operand.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>

namespace paralift::ir {

class Op;

//===----------------------------------------------------------------------===//
// Hash128
//===----------------------------------------------------------------------===//

/// 128-bit content hash (two independent 64-bit streams). Not
/// cryptographic; sized so accidental collisions are out of reach for any
/// realistic cache population, and cheap enough to run per pass.
struct Hash128 {
  uint64_t lo = 0;
  uint64_t hi = 0;

  bool operator==(const Hash128 &o) const { return lo == o.lo && hi == o.hi; }
  bool operator!=(const Hash128 &o) const { return !(*this == o); }

  /// 32 lowercase hex chars (hi then lo); doubles as the on-disk filename.
  std::string hex() const;
  static std::optional<Hash128> fromHex(const std::string &s);
};

/// Hashes a byte string (printed IR payloads, pass specs).
Hash128 hashBytes(const char *data, size_t len);
inline Hash128 hashBytes(const std::string &bytes) {
  return hashBytes(bytes.data(), bytes.size());
}

/// Folds `next` into an accumulating hash, order-sensitively; the pass
/// cache folds a pass spec's hash into the input IR's hash this way.
Hash128 combineHash(const Hash128 &acc, const Hash128 &next);

//===----------------------------------------------------------------------===//
// HashStream
//===----------------------------------------------------------------------===//

/// One step of the two 64-bit streams hashBytes and HashStream run: xor
/// the word in, multiply by an odd constant, rotate. A step is a
/// bijection of the stream for a fixed word and of the word for a fixed
/// stream, so inputs that differ in one word hash apart in both streams.
inline void hashStep(uint64_t &lo, uint64_t &hi, uint64_t w) {
  lo = std::rotl((lo ^ w) * 0x9e3779b97f4a7c15ull, 31);
  hi = std::rotl((hi ^ w) * 0xc2b2ae3d27d4eb4full, 27);
}

/// splitmix64's finalizer: every output bit depends on every input bit.
inline uint64_t avalanche(uint64_t x) {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Incremental order-sensitive mixer over 64-bit words: hashStep per
/// word, avalanche at the end. Content only, never pointers: hashing the
/// same logical stream always reproduces the result exactly, across
/// threads and processes.
class HashStream {
public:
  void addWord(uint64_t w) { hashStep(lo_, hi_, w); }
  /// Bools mix as distinct non-zero words so a flag stream cannot alias
  /// an absent-field stream.
  void addBool(bool b) { addWord(b ? 1 : 2); }
  void addBytes(const std::string &s) { addBytes(s.data(), s.size()); }
  /// Allocation-free overload for interned attribute names (op.h).
  void addBytes(const char *s) { addBytes(s, std::strlen(s)); }
  void addBytes(const char *data, size_t len) {
    Hash128 h = hashBytes(data, len);
    addWord(h.lo);
    addWord(h.hi);
  }

  Hash128 finish() const { return {avalanche(lo_), avalanche(hi_)}; }

private:
  uint64_t lo_ = 0xcbf29ce484222325ull;
  uint64_t hi_ = 0x6c62272e07bb0142ull;
};

//===----------------------------------------------------------------------===//
// Structural op hashing
//===----------------------------------------------------------------------===//

/// Structural hash of `op` and everything nested under it. Equal to the
/// hash of any other op with an identical printed form (clones, a fresh
/// parse of the same text such as a cache replay) and different (w.h.p.)
/// from every op that prints differently. Pointer-free and
/// iteration-order-free, so hashes are stable across processes sharing an
/// on-disk pass cache.
Hash128 hashOp(Op *op);

} // namespace paralift::ir
