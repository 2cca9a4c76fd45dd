// Tests for the textual IR parser (src/ir/parser.h): type spellings,
// direct snippets, attribute round trips, error reporting, and the
// print->parse->print fixed-point property over every Rodinia program
// (both the raw frontend output and the fully optimized module), and the
// pinned results of seeded textual mutants (tests/parser_mutants.inc).
#include "ir/parser.h"

#include "driver/compiler.h"
#include "ir/printer.h"
#include "ir/verifier.h"
#include "rodinia/rodinia.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

using namespace paralift;
using namespace paralift::ir;

//===----------------------------------------------------------------------===//
// parseType
//===----------------------------------------------------------------------===//

TEST(ParseTypeTest, Scalars) {
  EXPECT_EQ(parseType("i1"), Type::i1());
  EXPECT_EQ(parseType("i32"), Type::i32());
  EXPECT_EQ(parseType("i64"), Type::i64());
  EXPECT_EQ(parseType("f32"), Type::f32());
  EXPECT_EQ(parseType("f64"), Type::f64());
  EXPECT_EQ(parseType("index"), Type::index());
}

TEST(ParseTypeTest, StaticMemRef) {
  Type t = parseType("memref<4x8xf32>");
  ASSERT_TRUE(t.isMemRef());
  EXPECT_EQ(t.elemKind(), TypeKind::F32);
  EXPECT_EQ(t.shape(), (std::vector<int64_t>{4, 8}));
}

TEST(ParseTypeTest, DynamicMemRef) {
  Type t = parseType("memref<?x3xf64>");
  ASSERT_TRUE(t.isMemRef());
  EXPECT_EQ(t.shape(), (std::vector<int64_t>{Type::kDynamic, 3}));
}

TEST(ParseTypeTest, RankZeroMemRef) {
  Type t = parseType("memref<i32>");
  ASSERT_TRUE(t.isMemRef());
  EXPECT_EQ(t.rank(), 0u);
}

TEST(ParseTypeTest, IndexElementContainingX) {
  // "index" contains an 'x'; the shape splitter must not treat it as a
  // dimension separator.
  Type t = parseType("memref<4xindex>");
  ASSERT_TRUE(t.isMemRef());
  EXPECT_EQ(t.elemKind(), TypeKind::Index);
  EXPECT_EQ(t.shape(), (std::vector<int64_t>{4}));
}

TEST(ParseTypeTest, Malformed) {
  EXPECT_TRUE(parseType("").isNone());
  EXPECT_TRUE(parseType("q32").isNone());
  EXPECT_TRUE(parseType("memref<>").isNone());
  EXPECT_TRUE(parseType("memref<4x>").isNone());
  EXPECT_TRUE(parseType("memref<4x4>").isNone());
  EXPECT_TRUE(parseType("memref<abcxf32>").isNone());
}

//===----------------------------------------------------------------------===//
// Round trip of Type::str
//===----------------------------------------------------------------------===//

class TypeRoundTripTest : public ::testing::TestWithParam<Type> {};

TEST_P(TypeRoundTripTest, StrThenParseIsIdentity) {
  Type t = GetParam();
  EXPECT_EQ(parseType(t.str()), t);
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, TypeRoundTripTest,
    ::testing::Values(Type::i1(), Type::i32(), Type::i64(), Type::f32(),
                      Type::f64(), Type::index(),
                      Type::memref(TypeKind::F32, {}),
                      Type::memref(TypeKind::F32, {16}),
                      Type::memref(TypeKind::I32, {2, 3, 4}),
                      Type::memref(TypeKind::F64, {Type::kDynamic}),
                      Type::memref(TypeKind::Index, {Type::kDynamic, 7}),
                      Type::memref(TypeKind::I1, {1, Type::kDynamic, 3})));

//===----------------------------------------------------------------------===//
// Snippet parsing
//===----------------------------------------------------------------------===//

namespace {

/// Parses and verifies; fails the test on diagnostics.
OwnedModule parseOk(const std::string &text) {
  DiagnosticEngine diag;
  auto m = parseModule(text, diag);
  EXPECT_TRUE(m.has_value()) << diag.str();
  if (!m)
    return OwnedModule();
  EXPECT_TRUE(verifyOk(m->op())) << printOp(m->op());
  return std::move(*m);
}

std::string parseError(const std::string &text) {
  DiagnosticEngine diag;
  auto m = parseModule(text, diag);
  EXPECT_FALSE(m.has_value()) << "expected a parse failure";
  return diag.str();
}

} // namespace

TEST(ParserTest, EmptyModule) {
  OwnedModule m = parseOk("module {\n}");
  EXPECT_TRUE(m.get().body().empty());
}

TEST(ParserTest, FuncWithArithmetic) {
  OwnedModule m = parseOk(R"(module {
  func {sym_name = "f"} {
    [%0: i32, %1: i32]:
    %2 = addi(%0, %1) : i32
    %3 = muli(%2, %0) : i32
    return(%3)
  }
})");
  Op *f = m.get().lookupFunc("f");
  ASSERT_NE(f, nullptr);
  Block &body = f->region(0).front();
  EXPECT_EQ(body.numArgs(), 2u);
  EXPECT_EQ(body.size(), 3u);
  EXPECT_EQ(body.front()->kind(), OpKind::AddI);
}

TEST(ParserTest, AttributesOfEveryKind) {
  OwnedModule m = parseOk(R"(module {
  func {sym_name = "f", flag = true, count = -7, rate = 0.5,
        dims = [1, 2, 3]} {
    return
  }
})");
  Op *f = m.get().lookupFunc("f");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->attrs().getBool("flag"), true);
  EXPECT_EQ(f->attrs().getInt("count"), -7);
  EXPECT_EQ(f->attrs().getFloat("rate"), 0.5);
  EXPECT_EQ(f->attrs().getIntVec("dims"), (std::vector<int64_t>{1, 2, 3}));
}

TEST(ParserTest, FloatAttrFormsParse) {
  OwnedModule m = parseOk(R"(module {
  func {sym_name = "f"} {
    %0 = const.float {value = 1.0} : f32
    %1 = const.float {value = 2.5e-3} : f32
    %2 = const.float {value = -0.25} : f64
    %3 = const.float {value = 1e+20} : f64
    return
  }
})");
  Op *f = m.get().lookupFunc("f");
  Op *op = f->region(0).front().front();
  EXPECT_DOUBLE_EQ(op->attrs().getFloat("value"), 1.0);
  op = op->next();
  EXPECT_DOUBLE_EQ(op->attrs().getFloat("value"), 2.5e-3);
  op = op->next();
  EXPECT_DOUBLE_EQ(op->attrs().getFloat("value"), -0.25);
  op = op->next();
  EXPECT_DOUBLE_EQ(op->attrs().getFloat("value"), 1e+20);
}

TEST(ParserTest, NestedRegionsAndLoops) {
  OwnedModule m = parseOk(R"(module {
  func {sym_name = "f"} {
    [%0: memref<?xf32>]:
    %1 = const.int {value = 0} : index
    %2 = const.int {value = 8} : index
    %3 = const.int {value = 1} : index
    scf.parallel(%1, %2, %3) {dims = 1} {
      [%4: index]:
      %5 = memref.load(%0, %4) : f32
      %6 = addf(%5, %5) : f32
      memref.store(%6, %0, %4)
      yield
    }
    return
  }
})");
  Op *f = m.get().lookupFunc("f");
  ASSERT_NE(f, nullptr);
  Op *par = f->region(0).front().back()->prev();
  ASSERT_EQ(par->kind(), OpKind::ScfParallel);
  EXPECT_EQ(par->region(0).front().numArgs(), 1u);
}

TEST(ParserTest, IfWithEmptyElseRegion) {
  OwnedModule m = parseOk(R"(module {
  func {sym_name = "f"} {
    [%0: i1]:
    scf.if(%0) {
      yield
    } {}
    return
  }
})");
  Op *f = m.get().lookupFunc("f");
  Op *ifOp = f->region(0).front().front();
  ASSERT_EQ(ifOp->kind(), OpKind::ScfIf);
  ASSERT_EQ(ifOp->numRegions(), 2u);
  EXPECT_FALSE(ifOp->region(0).empty());
  EXPECT_TRUE(ifOp->region(1).empty());
}

TEST(ParserTest, MultiResultOp) {
  OwnedModule m = parseOk(R"(module {
  func {sym_name = "f"} {
    [%0: i1, %1: i32]:
    %2, %3 = scf.if(%0) : i32, i32 {
      yield(%1, %1)
    } {
      yield(%1, %1)
    }
    return(%2)
  }
})");
  Op *f = m.get().lookupFunc("f");
  Op *ifOp = f->region(0).front().front();
  EXPECT_EQ(ifOp->numResults(), 2u);
}

TEST(PrinterTest, UseAheadOfItsDefinitionKeepsItsPreOrderNumber) {
  // Invalid IR, as a pass bug would leave it: muli moved ahead of the
  // addi defining its operands. Values are numbered in pre-order before
  // printing, so the use printed first still names addi's number, not
  // %<invalid>.
  OwnedModule m = parseOk(R"(module {
  func {sym_name = "f"} {
    [%0: i32]:
    %1 = addi(%0, %0) : i32
    %2 = muli(%1, %1) : i32
    return(%2)
  }
})");
  Block &body = m.get().lookupFunc("f")->region(0).front();
  Op *addi = body.front();
  addi->next()->moveBefore(addi);
  EXPECT_EQ(printOp(m.op()), R"(module {
  func {sym_name = "f"} {
    [%0: i32]:
    %1 = muli(%2, %2) : i32
    %2 = addi(%0, %0) : i32
    return(%1)
  }
})");
  // An op printed alone names operands from outside it %<invalid>.
  EXPECT_EQ(printOp(addi), "%0 = addi(%<invalid>, %<invalid>) : i32");
}

//===----------------------------------------------------------------------===//
// Errors
//===----------------------------------------------------------------------===//

TEST(ParserErrorTest, UndefinedValue) {
  std::string msg = parseError("module {\n func {sym_name = \"f\"} {\n"
                               "  return(%9)\n }\n}");
  EXPECT_NE(msg.find("undefined value %9"), std::string::npos) << msg;
}

TEST(ParserErrorTest, OverflowingValueNumber) {
  // One past the largest 64-bit number: it must not wrap to %0.
  std::string msg = parseError("module {\n func {sym_name = \"f\"} {\n"
                               "  [%0: i32]:\n"
                               "  %1 = addi(%0, %18446744073709551616) : i32\n"
                               "  return\n }\n}");
  EXPECT_NE(msg.find("4:17: error: value number out of range: "
                     "%18446744073709551616"),
            std::string::npos)
      << msg;
}

TEST(ParserErrorTest, ModuleWithoutRegion) {
  std::string msg = parseError("module");
  EXPECT_NE(msg.find("module must have one region"), std::string::npos)
      << msg;
}

TEST(ParserErrorTest, RedefinedValue) {
  std::string msg = parseError(R"(module {
  func {sym_name = "f"} {
    %0 = const.int {value = 1} : i32
    %0 = const.int {value = 2} : i32
    return
  }
})");
  EXPECT_NE(msg.find("redefinition"), std::string::npos) << msg;
}

TEST(ParserErrorTest, UnknownOp) {
  std::string msg = parseError("module {\n bogus.op\n}");
  EXPECT_NE(msg.find("unknown op"), std::string::npos) << msg;
}

TEST(ParserErrorTest, ResultTypeCountMismatch) {
  std::string msg = parseError(
      "module {\n func {sym_name = \"f\"} {\n"
      "  %0, %1 = const.int {value = 1} : i32\n  return\n }\n}");
  EXPECT_NE(msg.find("2 results but 1 types"), std::string::npos) << msg;
}

TEST(ParserErrorTest, UnterminatedRegion) {
  parseError("module {\n func {sym_name = \"f\"} {\n  return\n");
}

TEST(ParserErrorTest, UnterminatedString) {
  parseError("module {\n func {sym_name = \"f} {\n  return\n }\n}");
}

TEST(ParserErrorTest, TopLevelMustBeModule) {
  std::string msg = parseError("return");
  EXPECT_NE(msg.find("top-level op must be a module"), std::string::npos)
      << msg;
}

TEST(ParserErrorTest, TrailingGarbage) {
  parseError("module {\n}\nmodule {\n}");
}

TEST(ParserErrorTest, BadMemRefShape) {
  parseError("module {\n func {sym_name = \"f\"} {\n"
             "  [%0: memref<4x4>]:\n  return\n }\n}");
}

//===----------------------------------------------------------------------===//
// Print -> parse -> print fixed point over real programs
//===----------------------------------------------------------------------===//

namespace {

/// Asserts print(parse(print(m))) == print(m) and that the reparsed
/// module verifies.
void expectRoundTrip(ModuleOp m) {
  std::string text = printOp(m.op);
  DiagnosticEngine diag;
  auto reparsed = parseModule(text, diag);
  ASSERT_TRUE(reparsed.has_value()) << diag.str() << "\n" << text;
  EXPECT_TRUE(verifyOk(reparsed->op()));
  EXPECT_EQ(printOp(reparsed->op()), text);
}

struct RoundTripCase {
  std::string name;
  const char *source;
  bool optimized;
};

void PrintTo(const RoundTripCase &c, std::ostream *os) { *os << c.name; }

class RodiniaRoundTripTest : public ::testing::TestWithParam<RoundTripCase> {
};

std::vector<RoundTripCase> allCases() {
  std::vector<RoundTripCase> cases;
  for (const auto &b : rodinia::suite()) {
    cases.push_back({b.id + "_frontend", b.cudaSource, false});
    cases.push_back({b.id + "_optimized", b.cudaSource, true});
    if (b.openmpSource)
      cases.push_back({b.id + "_openmp", b.openmpSource, true});
  }
  return cases;
}

} // namespace

TEST_P(RodiniaRoundTripTest, PrintParsePrintIsFixedPoint) {
  const RoundTripCase &c = GetParam();
  DiagnosticEngine diag;
  driver::CompileResult cc =
      c.optimized ? driver::compile(c.source, transforms::PipelineOptions{},
                                    diag)
                  : driver::compileForSimt(c.source, diag);
  ASSERT_TRUE(cc.ok) << diag.str();
  expectRoundTrip(cc.module.get());
}

INSTANTIATE_TEST_SUITE_P(
    AllRodinia, RodiniaRoundTripTest, ::testing::ValuesIn(allCases()),
    [](const ::testing::TestParamInfo<RoundTripCase> &info) {
      std::string n = info.param.name;
      for (char &ch : n)
        if (!std::isalnum(static_cast<unsigned char>(ch)))
          ch = '_';
      return n;
    });

//===----------------------------------------------------------------------===//
// Mutants: seeded textual mutations of the printed Rodinia modules, each
// result (the reprinted module, or the exact diagnostics) pinned by a
// digest
//===----------------------------------------------------------------------===//

namespace {

/// The header of tests/parser_mutants.inc, written again with the actual
/// results when they differ from the recorded ones.
const char kParserMutantHeader[] =
    "// The result of every mutant of ParserMutants.\n"
    "// ResultsMatchTheRecordedDigest (tests/test_parser.cpp), one line\n"
    "// each: index, base module, mutation, then \"ok <FNV-1a 64 of the\n"
    "// reprinted module>\" or \"error <FNV-1a 64 of diag.str()>\".\n"
    "//\n"
    "// The mutants are textual changes to the modules printOp prints, so\n"
    "// this file changes when the printer, the parser's diagnostics or the\n"
    "// pass pipeline change on purpose. To regenerate it, run\n"
    "//   test_parser --gtest_filter=ParserMutants.*\n"
    "// which writes parser_mutants.actual.inc into its working directory\n"
    "// when any result differs, check that only the intended mutants\n"
    "// changed, and copy that file over this one.\n";

/// The digest each mutant's result must match, one line per mutant.
const char kRecordedParserMutants[] =
#include "parser_mutants.inc"
    ;

constexpr uint32_t kParserMutantsPerModule = 64;

/// splitmix64: the mutants must not depend on a library's distributions.
struct TextRng {
  uint64_t s;
  uint64_t next() {
    uint64_t z = (s += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  size_t below(size_t n) { return static_cast<size_t>(next() % n); }
};

uint64_t fnv1a64(const std::string &s) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (char ch : s) {
    h ^= static_cast<unsigned char>(ch);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// The digits of every %N in `text`, as (offset, length).
std::vector<std::pair<size_t, size_t>> valueIds(const std::string &text) {
  std::vector<std::pair<size_t, size_t>> ids;
  for (size_t i = text.find('%'); i != std::string::npos;
       i = text.find('%', i + 1)) {
    size_t end = i + 1;
    while (end < text.size() && std::isdigit(static_cast<unsigned char>(
                                    text[end])))
      ++end;
    if (end > i + 1)
      ids.emplace_back(i + 1, end - i - 1);
  }
  return ids;
}

/// Applies mutation `index` (its kind is index % 8) to `text` and
/// describes it: a bit flip, a deleted or duplicated byte, a deleted or
/// duplicated line, a truncation, a %N renumbered to another id in use,
/// or a %N replaced by an oversized one.
std::string mutateText(std::string &text, uint32_t index) {
  TextRng rng{0x7a75e000ull + index};
  const size_t pos = rng.below(text.size());
  const std::string at = std::to_string(pos);
  switch (index % 8) {
  case 0: {
    unsigned bit = static_cast<unsigned>(rng.below(8));
    text[pos] = static_cast<char>(text[pos] ^ (1u << bit));
    return "flip @" + at + " bit" + std::to_string(bit);
  }
  case 1:
    text.erase(pos, 1);
    return "delete @" + at;
  case 2:
    text.insert(pos, 1, text[pos]);
    return "duplicate @" + at;
  case 3:
  case 4: {
    size_t begin = text.rfind('\n', pos);
    begin = begin == std::string::npos ? 0 : begin + 1;
    size_t end = text.find('\n', pos);
    end = end == std::string::npos ? text.size() : end + 1;
    std::string line = text.substr(begin, end - begin);
    if (index % 8 == 3) {
      text.erase(begin, end - begin);
      return "delete-line @" + std::to_string(begin);
    }
    text.insert(begin, line);
    return "duplicate-line @" + std::to_string(begin);
  }
  case 5:
    text.resize(pos);
    return "truncate @" + at;
  default: {
    auto ids = valueIds(text);
    auto [offset, len] = ids[rng.below(ids.size())];
    std::string id;
    if (index % 8 == 6) {
      // Another id in use, or one past the last.
      id = std::to_string(rng.below(ids.size() / 2 + 2));
    } else {
      // Ids that fit 64 bits and ids that do not.
      static const char *const kOversized[] = {
          "4294967296",           "18446744073709551615",
          "18446744073709551616", "18446744073709551617",
          "99999999999999999999", "340282366920938463463374607431768211456",
      };
      id = kOversized[rng.below(6)];
    }
    text.replace(offset, len, id);
    return (index % 8 == 6 ? "renumber @" : "oversize @") +
           std::to_string(offset) + " %" + id;
  }
  }
}

/// "ok <FNV-1a 64 of the reprint>" or "error <FNV-1a 64 of diag.str()>".
std::string resultOf(const std::string &text) {
  DiagnosticEngine diag;
  auto m = parseModule(text, diag);
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(
                    fnv1a64(m ? printOp(m->op()) : diag.str())));
  return std::string(m ? "ok " : "error ") + hex;
}

} // namespace

TEST(ParserMutants, ResultsMatchTheRecordedDigest) {
  // The 16 Rodinia CUDA sources through the full pipeline and in SIMT
  // mode, printed.
  std::vector<std::pair<std::string, std::string>> bases;
  for (const auto &b : rodinia::suite())
    for (bool simt : {false, true}) {
      DiagnosticEngine diag;
      driver::CompileResult cc =
          simt ? driver::compileForSimt(b.cudaSource, diag)
               : driver::compile(b.cudaSource, transforms::PipelineOptions{},
                                 diag);
      ASSERT_TRUE(cc.ok) << b.id << ": " << diag.str();
      bases.emplace_back(b.id + (simt ? "/simt" : "/full"),
                         printOp(cc.module.op()));
    }

  std::string actual;
  size_t rejected = 0;
  uint32_t index = 0;
  for (const auto &[name, base] : bases)
    for (uint32_t k = 0; k < kParserMutantsPerModule; ++k, ++index) {
      std::string text = base;
      std::string what = mutateText(text, index);
      std::string result = resultOf(text);
      rejected += result.rfind("error ", 0) == 0;
      actual += std::to_string(index) + " " + name + " " + what + " " +
                result + "\n";
    }
  EXPECT_GE(index, 2000u);
  // Most mutants must be rejected, and some must still parse.
  EXPECT_GT(rejected, index / 2);
  EXPECT_LT(rejected, index);

  std::string recorded = kRecordedParserMutants;
  if (!recorded.empty() && recorded.front() == '\n')
    recorded.erase(0, 1);
  if (recorded == actual)
    return;
  std::istringstream want(recorded), got(actual);
  std::string w, g;
  int shown = 0;
  while (std::getline(got, g)) {
    if (!std::getline(want, w))
      w = "<missing>";
    if (w != g && shown++ < 10)
      ADD_FAILURE() << "recorded: " << w << "\nactual:   " << g;
  }
  std::ofstream out("parser_mutants.actual.inc");
  out << kParserMutantHeader << "R\"digest(\n" << actual << ")digest\"\n";
  FAIL() << "mutant results differ from tests/parser_mutants.inc; the "
            "actual digest is in parser_mutants.actual.inc";
}

//===----------------------------------------------------------------------===//
// Pass registry (transforms/registry.h)
//===----------------------------------------------------------------------===//

#include "transforms/registry.h"

TEST(PassRegistryTest, LookupKnownAndUnknown) {
  EXPECT_NE(transforms::lookupPass("canonicalize"), nullptr);
  EXPECT_NE(transforms::lookupPass("barrier-motion"), nullptr);
  EXPECT_NE(transforms::lookupPass("cpuify"), nullptr);
  EXPECT_EQ(transforms::lookupPass("no-such-pass"), nullptr);
}

TEST(PassRegistryTest, NamesAreUnique) {
  const auto &passes = transforms::passRegistry();
  for (size_t i = 0; i < passes.size(); ++i)
    for (size_t j = i + 1; j < passes.size(); ++j)
      EXPECT_NE(passes[i].name, passes[j].name);
}

TEST(PassRegistryTest, PipelineFoldsConstants) {
  OwnedModule m = parseOk(R"(module {
  func {sym_name = "f"} {
    %0 = const.int {value = 20} : i32
    %1 = const.int {value = 22} : i32
    %2 = addi(%0, %1) : i32
    return(%2)
  }
})");
  DiagnosticEngine diag;
  ASSERT_TRUE(transforms::runPassPipeline(m.get(), "canonicalize,cse", diag))
      << diag.str();
  std::string text = printOp(m.op());
  EXPECT_NE(text.find("value = 42"), std::string::npos) << text;
  EXPECT_EQ(text.find("addi"), std::string::npos) << text;
}

TEST(PassRegistryTest, UnknownPassReportsError) {
  OwnedModule m = parseOk("module {\n}");
  DiagnosticEngine diag;
  EXPECT_FALSE(transforms::runPassPipeline(m.get(), "cse,bogus", diag));
  EXPECT_NE(diag.str().find("unknown pass 'bogus'"), std::string::npos);
}

TEST(PassRegistryTest, EmptyPipelineIsNoOp) {
  OwnedModule m = parseOk("module {\n}");
  DiagnosticEngine diag;
  EXPECT_TRUE(transforms::runPassPipeline(m.get(), "", diag));
}
