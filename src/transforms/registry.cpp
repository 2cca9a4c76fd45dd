#include "transforms/registry.h"

#include <cctype>

namespace paralift::transforms {

namespace {

std::vector<PassInfo> buildRegistry() {
  std::vector<PassInfo> passes;
  passes.push_back({"canonicalize",
                    "fold constants, simplify control flow, DCE",
                    [] { return createCanonicalizePass(); }});
  passes.push_back({"cse", "common subexpression elimination",
                    [] { return createCSEPass(); }});
  passes.push_back({"inline", "inline module-local calls",
                    [] { return createInlinerPass(); }});
  passes.push_back({"inline-kernels",
                    "inline device functions into parallel nests",
                    [] { return createInlinerPass(/*onlyInKernels=*/true); }});
  passes.push_back({"mem2reg",
                    "promote scalar allocas to SSA (barrier-aware)",
                    [] { return createMem2RegPass(); }});
  passes.push_back({"store-forward",
                    "store-to-load forwarding across barriers (§IV-B)",
                    [] { return createStoreForwardPass(); }});
  passes.push_back({"licm",
                    "loop-invariant code motion (parallel rule §IV-C)",
                    [] { return createLICMPass(); }});
  passes.push_back({"barrier-elim", "erase redundant barriers (§IV-A)",
                    [] { return createBarrierElimPass(); }});
  passes.push_back({"barrier-motion",
                    "hoist barriers to shrink fission caches (§IV-A)",
                    [] { return createBarrierMotionPass(); }});
  passes.push_back({"unroll",
                    "raise counted scf.while loops and fully unroll "
                    "constant-trip loops (options: max-trip)",
                    [] { return createUnrollPass(); }});
  passes.push_back({"cpuify",
                    "lower barriers by fission + interchange "
                    "(options: mincut)",
                    [] { return createCpuifyPass(); }});
  passes.push_back({"cpuify-nomincut",
                    "lower barriers caching all live values (MCUDA-style)",
                    [] { return createCpuifyPass(/*useMinCut=*/false); }});
  passes.push_back({"omp-lower",
                    "lower scf.parallel to omp with fusion/hoist/collapse "
                    "(options: collapse, fuse, hoist, inner-serialize, "
                    "outer-only)",
                    [] { return createOmpLowerPass(); }});
  passes.push_back({"omp-lower-innerpar",
                    "omp lowering keeping nested (block-level) parallelism",
                    [] {
                      OmpLowerOptions o;
                      o.innerSerialize = false;
                      return createOmpLowerPass(o);
                    }});
  passes.push_back({"omp-lower-outer-only",
                    "omp lowering parallelizing only the outermost loop",
                    [] {
                      OmpLowerOptions o;
                      o.collapse = o.fuseRegions = o.hoistRegions = false;
                      o.outerOnly = true;
                      return createOmpLowerPass(o);
                    }});
  passes.push_back({"repeat",
                    "repeat{n=K}(p1,p2,...): run the nested function "
                    "passes K times; repeat{until=fixpoint}(...) iterates "
                    "until a round changes nothing (options: n, until)",
                    [] { return std::unique_ptr<Pass>(new RepeatPass()); }});
  return passes;
}

bool isSpecIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '-' || c == '_';
}

size_t skipSpaces(const std::string &s, size_t pos) {
  while (pos < s.size() && std::isspace(static_cast<unsigned char>(s[pos])))
    ++pos;
  return pos;
}

} // namespace

const std::vector<PassInfo> &passRegistry() {
  static const std::vector<PassInfo> registry = buildRegistry();
  return registry;
}

const PassInfo *lookupPass(const std::string &name) {
  for (const PassInfo &p : passRegistry())
    if (p.name == name)
      return &p;
  return nullptr;
}

namespace {

/// Parses pass elements into `out` until end of string (`term` == 0) or
/// the closing `term` character (left unconsumed). Recurses for the
/// parenthesized child list of composite passes.
bool parsePassList(const std::string &spec, size_t &pos, char term,
                   std::vector<PassSpec> &out, DiagnosticEngine &diag) {
  while (true) {
    pos = skipSpaces(spec, pos);
    if (pos >= spec.size() || (term && spec[pos] == term))
      return true;
    if (spec[pos] == ',') { // empty element ("a,,b" or leading comma)
      ++pos;
      continue;
    }
    size_t nameStart = pos;
    while (pos < spec.size() && isSpecIdentChar(spec[pos]))
      ++pos;
    if (pos == nameStart) {
      diag.error({}, "pipeline spec: unexpected character '" +
                         std::string(1, spec[pos]) + "' at position " +
                         std::to_string(pos));
      return false;
    }
    PassSpec ps;
    ps.name = spec.substr(nameStart, pos - nameStart);
    pos = skipSpaces(spec, pos);
    if (pos < spec.size() && spec[pos] == '{') {
      ++pos;
      while (true) {
        pos = skipSpaces(spec, pos);
        if (pos < spec.size() && spec[pos] == '}')
          break;
        size_t keyStart = pos;
        while (pos < spec.size() && isSpecIdentChar(spec[pos]))
          ++pos;
        if (pos == keyStart) {
          diag.error({}, "pipeline spec: expected option key in '" +
                             ps.name + "{...}'");
          return false;
        }
        std::string key = spec.substr(keyStart, pos - keyStart);
        pos = skipSpaces(spec, pos);
        if (pos >= spec.size() || spec[pos] != '=') {
          diag.error({}, "pipeline spec: expected '=' after option '" + key +
                             "' of pass '" + ps.name + "'");
          return false;
        }
        pos = skipSpaces(spec, pos + 1);
        size_t valStart = pos;
        while (pos < spec.size() && spec[pos] != ',' && spec[pos] != '}')
          ++pos;
        std::string value = spec.substr(valStart, pos - valStart);
        while (!value.empty() &&
               std::isspace(static_cast<unsigned char>(value.back())))
          value.pop_back();
        ps.options.emplace_back(key, value);
        pos = skipSpaces(spec, pos);
        if (pos < spec.size() && spec[pos] == ',') {
          ++pos;
          continue;
        }
        break;
      }
      if (pos >= spec.size() || spec[pos] != '}') {
        diag.error({}, "pipeline spec: missing '}' closing options of pass '" +
                           ps.name + "'");
        return false;
      }
      ++pos;
      pos = skipSpaces(spec, pos);
    }
    if (pos < spec.size() && spec[pos] == '(') {
      ++pos;
      if (!parsePassList(spec, pos, ')', ps.nested, diag))
        return false;
      if (pos >= spec.size() || spec[pos] != ')') {
        diag.error({}, "pipeline spec: missing ')' closing the pass list "
                       "of '" + ps.name + "'");
        return false;
      }
      ++pos;
    }
    out.push_back(std::move(ps));
    pos = skipSpaces(spec, pos);
    if (pos >= spec.size() || (term && spec[pos] == term))
      return true;
    if (spec[pos] != ',') {
      diag.error({}, "pipeline spec: expected ',' before '" +
                         spec.substr(pos, 1) + "' at position " +
                         std::to_string(pos));
      return false;
    }
    ++pos;
  }
}

} // namespace

std::optional<std::vector<PassSpec>>
parsePipelineSpec(const std::string &spec, DiagnosticEngine &diag) {
  std::vector<PassSpec> out;
  size_t pos = 0;
  if (!parsePassList(spec, pos, /*term=*/0, out, diag))
    return std::nullopt;
  return out;
}

std::unique_ptr<Pass> instantiatePassSpec(const PassSpec &ps,
                                          DiagnosticEngine &diag) {
  std::unique_ptr<Pass> pass;
  if (ps.name == "repeat") {
    if (ps.nested.empty()) {
      diag.error({}, "pipeline spec: repeat requires a parenthesized pass "
                     "list, e.g. repeat{n=2}(canonicalize,cse)");
      return nullptr;
    }
    // A fixpoint repeat iterates to convergence; a user-provided round
    // count would be silently ignored, so reject the combination.
    bool hasN = false, hasFixpoint = false;
    for (const auto &[key, value] : ps.options) {
      hasN |= key == "n";
      hasFixpoint |= key == "until" && value == "fixpoint";
    }
    if (hasN && hasFixpoint) {
      diag.error({}, "pipeline spec: repeat options 'n' and "
                     "'until=fixpoint' are mutually exclusive (fixpoint "
                     "iterates until a round changes nothing)");
      return nullptr;
    }
    auto repeat = std::make_unique<RepeatPass>();
    for (const PassSpec &childSpec : ps.nested) {
      std::unique_ptr<Pass> child = instantiatePassSpec(childSpec, diag);
      if (!child)
        return nullptr;
      if (!child->isFunctionPass()) {
        diag.error({}, "pipeline spec: '" + childSpec.name +
                           "' is a module pass; repeat supports function "
                           "passes only");
        return nullptr;
      }
      repeat->addChild(std::move(child));
    }
    pass = std::move(repeat);
  } else {
    const PassInfo *info = lookupPass(ps.name);
    if (!info) {
      diag.error({}, "unknown pass '" + ps.name + "'");
      return nullptr;
    }
    if (!ps.nested.empty()) {
      diag.error({}, "pipeline spec: pass '" + ps.name +
                         "' does not take a pass list");
      return nullptr;
    }
    pass = info->create();
  }
  for (const auto &[key, value] : ps.options) {
    std::string err;
    if (!pass->setOption(key, value, &err)) {
      diag.error({}, "pipeline spec: " + err);
      return nullptr;
    }
  }
  return pass;
}

bool buildPipelineFromSpec(PassManager &pm, const std::string &spec,
                           DiagnosticEngine &diag) {
  auto parsed = parsePipelineSpec(spec, diag);
  if (!parsed)
    return false;
  for (const PassSpec &ps : *parsed) {
    std::unique_ptr<Pass> pass = instantiatePassSpec(ps, diag);
    if (!pass)
      return false;
    pm.addPass(std::move(pass));
  }
  return true;
}

bool runPassPipeline(ModuleOp module, const std::string &pipeline,
                     DiagnosticEngine &diag) {
  PassManager pm;
  if (!buildPipelineFromSpec(pm, pipeline, diag))
    return false;
  pm.enableVerifyEach();
  return pm.run(module, diag);
}

} // namespace paralift::transforms
