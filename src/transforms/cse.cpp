// Common subexpression elimination for pure ops. Scoped by block: an op
// can be replaced by an identical op earlier in the same block, or in any
// ancestor block (which always dominates).
#include "ir/ophelpers.h"
#include "transforms/passes.h"

#include <cstring>
#include <string_view>
#include <unordered_set>
#include <vector>

using namespace paralift::ir;

namespace paralift::transforms {

namespace {

uint64_t bitsOf(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

/// Folds one word into a running 64-bit hash.
void mix(uint64_t &h, uint64_t w) {
  h = (h ^ w) * 0x9e3779b97f4a7c15ull;
  h ^= h >> 29;
}

/// Hash of everything that makes two pure ops interchangeable: kind,
/// operand identities, result types, and each attribute's interned name,
/// variant index and value, doubles by their bit pattern.
uint64_t opHash(Op *op) {
  uint64_t h = static_cast<uint64_t>(op->kind());
  for (unsigned i = 0; i < op->numOperands(); ++i)
    mix(h, reinterpret_cast<uintptr_t>(op->operand(i).impl()));
  for (unsigned i = 0; i < op->numResults(); ++i) {
    Type t = op->result(i).type();
    mix(h, static_cast<uint64_t>(t.kind()));
    if (t.isMemRef()) { // shapes are interned: equal shapes, one pointer
      mix(h, static_cast<uint64_t>(t.elemKind()));
      mix(h, reinterpret_cast<uintptr_t>(&t.shape()));
    }
  }
  for (const auto &[name, value] : op->attrs().entries()) {
    mix(h, reinterpret_cast<uintptr_t>(name));
    mix(h, value.index());
    if (auto *b = std::get_if<bool>(&value))
      mix(h, *b);
    else if (auto *iv = std::get_if<int64_t>(&value))
      mix(h, static_cast<uint64_t>(*iv));
    else if (auto *d = std::get_if<double>(&value))
      mix(h, bitsOf(*d));
    else if (auto *s = std::get_if<std::string>(&value))
      mix(h, std::hash<std::string_view>()(*s));
    else if (auto *vec = std::get_if<std::vector<int64_t>>(&value))
      for (int64_t x : *vec)
        mix(h, static_cast<uint64_t>(x));
  }
  return h;
}

/// Exact equality on the fields opHash covers. Doubles compare by bit
/// pattern: `==` would merge 0.0 with -0.0 (and never NaN with itself).
bool sameAttr(const AttrValue &a, const AttrValue &b) {
  if (auto *da = std::get_if<double>(&a)) {
    auto *db = std::get_if<double>(&b);
    return db && bitsOf(*da) == bitsOf(*db);
  }
  return a == b;
}

bool sameOp(Op *a, Op *b) {
  if (a->kind() != b->kind() || a->numOperands() != b->numOperands() ||
      a->numResults() != b->numResults())
    return false;
  for (unsigned i = 0; i < a->numOperands(); ++i)
    if (a->operand(i) != b->operand(i))
      return false;
  for (unsigned i = 0; i < a->numResults(); ++i)
    if (a->result(i).type() != b->result(i).type())
      return false;
  const auto &ea = a->attrs().entries();
  const auto &eb = b->attrs().entries();
  if (ea.size() != eb.size())
    return false;
  for (size_t i = 0; i < ea.size(); ++i)
    if (ea[i].first != eb[i].first || !sameAttr(ea[i].second, eb[i].second))
      return false;
  return true;
}

/// An op with its hash, computed once and reused for every scope probed.
struct Keyed {
  uint64_t hash;
  Op *op;
};
struct KeyedHash {
  size_t operator()(const Keyed &k) const { return k.hash; }
};
struct KeyedEq {
  bool operator()(const Keyed &a, const Keyed &b) const {
    return a.hash == b.hash && sameOp(a.op, b.op);
  }
};
using ScopeMap = std::unordered_set<Keyed, KeyedHash, KeyedEq>;

/// Returns the number of ops eliminated.
size_t cseBlock(Block &block, std::vector<ScopeMap> &scopes) {
  size_t erased = 0;
  scopes.emplace_back();
  for (Op *op = block.front(), *next = nullptr; op; op = next) {
    next = op->next();
    if (isPure(op->kind()) && op->numRegions() == 0 &&
        op->numResults() == 1) {
      Keyed key{opHash(op), op};
      Op *existing = nullptr;
      for (auto it = scopes.rbegin(); it != scopes.rend() && !existing; ++it) {
        auto found = it->find(key);
        if (found != it->end())
          existing = found->op;
      }
      if (existing) {
        op->result().replaceAllUsesWith(existing->result());
        op->erase();
        ++erased;
        continue;
      }
      scopes.back().insert(key);
    }
    for (unsigned r = 0; r < op->numRegions(); ++r)
      for (auto &inner : op->region(r).blocks())
        erased += cseBlock(*inner, scopes);
  }
  scopes.pop_back();
  return erased;
}

class CSEPass : public FunctionPass {
public:
  CSEPass()
      : FunctionPass("cse", "common subexpression elimination"),
        removed_(&statistic("ops-removed")) {}

  bool runOnFunction(Op *func, DiagnosticEngine &) override {
    size_t before = statisticsEnabled() ? countNestedOps(func) : 0;
    std::vector<ScopeMap> scopes;
    if (cseBlock(FuncOp(func).body(), scopes))
      noteIRChanged();
    if (statisticsEnabled()) {
      size_t after = countNestedOps(func);
      if (after < before)
        *removed_ += before - after;
    }
    return true;
  }

  bool tracksIRChange() const override { return true; }

private:
  Statistic *removed_;
};

} // namespace

void runCSE(ModuleOp module) {
  for (Op *fn : module.body()) {
    if (fn->kind() != OpKind::Func)
      continue;
    std::vector<ScopeMap> scopes;
    cseBlock(FuncOp(fn).body(), scopes);
  }
}

std::unique_ptr<Pass> createCSEPass() { return std::make_unique<CSEPass>(); }

} // namespace paralift::transforms
