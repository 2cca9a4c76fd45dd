// Common subexpression elimination for pure ops. Scoped by block: an op
// can be replaced by an identical op earlier in the same block, or in any
// ancestor block (which always dominates).
#include "ir/ophelpers.h"
#include "transforms/passes.h"

#include <map>
#include <sstream>
#include <string>
#include <vector>

using namespace paralift::ir;

namespace paralift::transforms {

namespace {

/// Structural key: kind + operand identities + attributes + result types.
std::string opKey(Op *op) {
  std::ostringstream os;
  os << static_cast<int>(op->kind());
  for (unsigned i = 0; i < op->numOperands(); ++i)
    os << ',' << op->operand(i).impl();
  os << ';';
  for (auto &[name, value] : op->attrs().entries()) {
    os << name << '=';
    if (auto *b = std::get_if<bool>(&value))
      os << *b;
    else if (auto *iv = std::get_if<int64_t>(&value))
      os << *iv;
    else if (auto *d = std::get_if<double>(&value))
      os << *d;
    else if (auto *s = std::get_if<std::string>(&value))
      os << *s;
    else if (auto *vec = std::get_if<std::vector<int64_t>>(&value))
      for (int64_t x : *vec)
        os << x << ':';
    os << ',';
  }
  os << ';';
  for (unsigned i = 0; i < op->numResults(); ++i)
    os << op->result(i).type().str() << ',';
  return os.str();
}

using ScopeMap = std::map<std::string, Op *>;

/// Returns the number of ops eliminated.
size_t cseBlock(Block &block, std::vector<ScopeMap> &scopes) {
  size_t erased = 0;
  scopes.emplace_back();
  for (Op *op = block.front(), *next = nullptr; op; op = next) {
    next = op->next();
    if (isPure(op->kind()) && op->numRegions() == 0 &&
        op->numResults() == 1) {
      std::string key = opKey(op);
      Op *existing = nullptr;
      for (auto it = scopes.rbegin(); it != scopes.rend() && !existing; ++it) {
        auto found = it->find(key);
        if (found != it->end())
          existing = found->second;
      }
      if (existing) {
        op->result().replaceAllUsesWith(existing->result());
        op->erase();
        ++erased;
        continue;
      }
      scopes.back()[key] = op;
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
