// Frontend unit tests: lexing of the CUDA-subset token set (launch
// chevrons, qualifiers, literals, #define substitution, the OpenMP
// pragma token), and expression/statement semantics validated by
// compiling small host functions and executing them — precedence,
// associativity, conversions, and short-circuiting are checked against
// the C semantics they must reproduce.
#include "frontend/lexer.h"

#include "driver/compiler.h"
#include "frontend/irgen.h"
#include "ir/printer.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace paralift;
using namespace paralift::frontend;

//===----------------------------------------------------------------------===//
// Lexer
//===----------------------------------------------------------------------===//

namespace {

std::vector<Tok> kinds(const std::string &src) {
  DiagnosticEngine diag;
  std::vector<Token> toks = tokenize(src, diag);
  EXPECT_FALSE(diag.hasErrors()) << diag.str();
  std::vector<Tok> out;
  for (auto &t : toks)
    out.push_back(t.kind);
  return out;
}

} // namespace

TEST(LexerTest, LaunchChevronsAreSingleTokens) {
  auto ks = kinds("k<<<1, 32>>>(a);");
  ASSERT_GE(ks.size(), 3u);
  EXPECT_EQ(ks[0], Tok::Ident);
  EXPECT_EQ(ks[1], Tok::LaunchOpen);
  // ... and the close token appears before the '(':
  bool sawClose = false;
  for (auto k : ks)
    if (k == Tok::LaunchClose)
      sawClose = true;
  EXPECT_TRUE(sawClose);
}

TEST(LexerTest, ShiftVersusChevronDisambiguation) {
  // Without a launch context, >> must lex as a right shift.
  auto ks = kinds("int x = a >> 2;");
  bool sawShr = false;
  for (auto k : ks)
    if (k == Tok::Shr)
      sawShr = true;
  EXPECT_TRUE(sawShr);
}

TEST(LexerTest, CudaQualifiers) {
  auto ks = kinds("__global__ __device__ __shared__ void f();");
  EXPECT_EQ(ks[0], Tok::KwGlobal);
  EXPECT_EQ(ks[1], Tok::KwDevice);
  EXPECT_EQ(ks[2], Tok::KwShared);
  EXPECT_EQ(ks[3], Tok::KwVoid);
}

TEST(LexerTest, FloatLiteralSuffixes) {
  DiagnosticEngine diag;
  auto toks = tokenize("1.5f 2.5 3e2f 7", diag);
  ASSERT_GE(toks.size(), 4u);
  EXPECT_EQ(toks[0].kind, Tok::FloatLit);
  EXPECT_TRUE(toks[0].isFloat32);
  EXPECT_FLOAT_EQ(toks[0].floatVal, 1.5f);
  EXPECT_EQ(toks[1].kind, Tok::FloatLit);
  EXPECT_FALSE(toks[1].isFloat32);
  EXPECT_EQ(toks[2].kind, Tok::FloatLit);
  EXPECT_TRUE(toks[2].isFloat32);
  EXPECT_DOUBLE_EQ(toks[2].floatVal, 300.0);
  EXPECT_EQ(toks[3].kind, Tok::IntLit);
  EXPECT_EQ(toks[3].intVal, 7);
}

TEST(LexerTest, DefineSubstitution) {
  DiagnosticEngine diag;
  auto toks = tokenize("#define SIZE 256\nint x = SIZE;", diag);
  ASSERT_FALSE(diag.hasErrors());
  bool saw256 = false;
  for (auto &t : toks)
    if (t.kind == Tok::IntLit && t.intVal == 256)
      saw256 = true;
  EXPECT_TRUE(saw256);
}

TEST(LexerTest, OmpPragmaCollapse) {
  DiagnosticEngine diag;
  auto toks =
      tokenize("#pragma omp parallel for collapse(2)\nfor(;;){}", diag);
  ASSERT_FALSE(toks.empty());
  EXPECT_EQ(toks[0].kind, Tok::PragmaOmpParallelFor);
  EXPECT_EQ(toks[0].collapse, 2);

  auto plain = tokenize("#pragma omp parallel for\nfor(;;){}", diag);
  EXPECT_EQ(plain[0].collapse, 1);
}

TEST(LexerTest, CommentsAreSkipped) {
  auto ks = kinds("// line comment\nint /* block */ x;");
  ASSERT_GE(ks.size(), 2u);
  EXPECT_EQ(ks[0], Tok::KwInt);
  EXPECT_EQ(ks[1], Tok::Ident);
}

TEST(LexerTest, CompoundAssignAndIncrement) {
  auto ks = kinds("x += 1; y++; z *= 2;");
  bool plusAssign = false, plusPlus = false, starAssign = false;
  for (auto k : ks) {
    plusAssign |= k == Tok::PlusAssign;
    plusPlus |= k == Tok::PlusPlus;
    starAssign |= k == Tok::StarAssign;
  }
  EXPECT_TRUE(plusAssign);
  EXPECT_TRUE(plusPlus);
  EXPECT_TRUE(starAssign);
}

TEST(LexerTest, CompoundAssignVersusShiftsAndChevrons) {
  auto ks = kinds("a >>= 1; b <<= 2; c %= 3; d &= e; f |= g; h ^= i;"
                  "j = j >> 1 << 2; k<<<1, 32>>>(a);");
  auto count = [&](Tok t) { return std::count(ks.begin(), ks.end(), t); };
  EXPECT_EQ(count(Tok::ShrAssign), 1);
  EXPECT_EQ(count(Tok::ShlAssign), 1);
  EXPECT_EQ(count(Tok::PercentAssign), 1);
  EXPECT_EQ(count(Tok::AmpAssign), 1);
  EXPECT_EQ(count(Tok::PipeAssign), 1);
  EXPECT_EQ(count(Tok::CaretAssign), 1);
  EXPECT_EQ(count(Tok::Shr), 1);
  EXPECT_EQ(count(Tok::Shl), 1);
  EXPECT_EQ(count(Tok::LaunchOpen), 1);
  EXPECT_EQ(count(Tok::LaunchClose), 1);
}

//===----------------------------------------------------------------------===//
// Expression semantics through compilation
//===----------------------------------------------------------------------===//

namespace {

/// Compiles `int f(int a, int b)` with the given body expression and
/// returns f(a, b) evaluated by the VM.
int64_t evalInt(const std::string &expr, int64_t a, int64_t b) {
  std::string src =
      "int f(int a, int b) { return " + expr + "; }";
  DiagnosticEngine diag;
  auto cc = driver::compile(src, transforms::PipelineOptions{}, diag);
  EXPECT_TRUE(cc.ok) << diag.str() << " for: " << expr;
  if (!cc.ok)
    return INT64_MIN;
  driver::Executor exec(cc.module.get(), 1);
  auto res = exec.run("f", {a, b});
  EXPECT_EQ(res.size(), 1u);
  return res.empty() ? INT64_MIN : res[0].i;
}

struct ExprCase {
  const char *expr;
  int64_t a, b, expected;
};

void PrintTo(const ExprCase &c, std::ostream *os) {
  *os << c.expr << " a=" << c.a << " b=" << c.b;
}

class ExprSemanticsTest : public ::testing::TestWithParam<ExprCase> {};

} // namespace

TEST_P(ExprSemanticsTest, MatchesCSemantics) {
  const ExprCase &c = GetParam();
  EXPECT_EQ(evalInt(c.expr, c.a, c.b), c.expected) << c.expr;
}

INSTANTIATE_TEST_SUITE_P(
    Precedence, ExprSemanticsTest,
    ::testing::Values(
        // * binds tighter than +; unary minus; parentheses.
        ExprCase{"a + b * 2", 3, 4, 11},
        ExprCase{"(a + b) * 2", 3, 4, 14},
        ExprCase{"-a + b", 3, 10, 7},
        // Division and remainder truncate toward zero (C semantics).
        ExprCase{"a / b", 7, 2, 3},
        ExprCase{"-7 / 2", 0, 2, -3},
        ExprCase{"a % b", 7, 3, 1},
        ExprCase{"-7 % 3", 0, 3, -1},
        // Shifts and bitwise operators, with C precedence.
        ExprCase{"a << 2", 3, 0, 12},
        ExprCase{"a >> 1", 12, 0, 6},
        ExprCase{"a & b | 8", 6, 3, 10},
        ExprCase{"a ^ b", 6, 3, 5},
        // Comparisons yield 0/1 and chain with arithmetic.
        ExprCase{"(a < b) + (a > b)", 2, 5, 1},
        ExprCase{"a == b", 4, 4, 1},
        ExprCase{"a != b", 4, 4, 0},
        // Ternary.
        ExprCase{"a < b ? a : b", 2, 9, 2},
        ExprCase{"a < b ? a : b", 9, 2, 2}));

INSTANTIATE_TEST_SUITE_P(
    ShortCircuit, ExprSemanticsTest,
    ::testing::Values(
        // && and || short-circuit: the divide by zero on the right must
        // not execute (the VM would trap or yield 0; either way the
        // result proves the branch was skipped).
        ExprCase{"a == 0 || b / a > 0", 0, 5, 1},
        ExprCase{"a != 0 && b / a > 0", 0, 5, 0},
        ExprCase{"a != 0 && b / a > 0", 2, 5, 1}));

//===----------------------------------------------------------------------===//
// Statement semantics
//===----------------------------------------------------------------------===//

namespace {

int64_t runBody(const std::string &body, int64_t a, int64_t b) {
  std::string src = "int f(int a, int b) {\n" + body + "\n}";
  DiagnosticEngine diag;
  auto cc = driver::compile(src, transforms::PipelineOptions{}, diag);
  EXPECT_TRUE(cc.ok) << diag.str() << " for body:\n" << body;
  if (!cc.ok)
    return INT64_MIN;
  driver::Executor exec(cc.module.get(), 1);
  auto res = exec.run("f", {a, b});
  return res.empty() ? INT64_MIN : res[0].i;
}

} // namespace

TEST(StmtSemanticsTest, ForLoopAccumulates) {
  EXPECT_EQ(runBody("int s = 0; for (int i = 0; i < a; i++) s += i;"
                    " return s;",
                    5, 0),
            10);
}

TEST(StmtSemanticsTest, NestedLoopsAndLocalShadowing) {
  EXPECT_EQ(runBody("int s = 0;"
                    "for (int i = 0; i < a; i++)"
                    "  for (int j = 0; j < b; j++)"
                    "    s += i * j;"
                    "return s;",
                    3, 3),
            9);
}

TEST(StmtSemanticsTest, WhileAndDoWhile) {
  EXPECT_EQ(runBody("int n = a; int c = 0;"
                    "while (n > 1) { n = n / 2; c++; }"
                    "return c;",
                    16, 0),
            4);
  // do-while runs at least once even when the condition is false.
  EXPECT_EQ(runBody("int c = 0; do { c++; } while (c < a); return c;", -5,
                    0),
            1);
}

TEST(StmtSemanticsTest, EarlyReturnInsideCondition) {
  EXPECT_EQ(runBody("if (a > b) return a; return b;", 9, 4), 9);
  EXPECT_EQ(runBody("if (a > b) return a; return b;", 1, 4), 4);
}

TEST(StmtSemanticsTest, PointerIndexingReadsAndWrites) {
  const char *src = R"(
void f(float* buf, int n) {
  for (int i = 0; i < n; i++)
    buf[i] = buf[i] * 2.0f + 1.0f;
}
)";
  DiagnosticEngine diag;
  auto cc = driver::compile(src, transforms::PipelineOptions{}, diag);
  ASSERT_TRUE(cc.ok) << diag.str();
  driver::Executor exec(cc.module.get(), 1);
  std::vector<float> buf = {1, 2, 3, 4};
  exec.run("f", {driver::Executor::bufferF32(buf.data(), {4}), int64_t(4)});
  EXPECT_EQ(buf, (std::vector<float>{3, 5, 7, 9}));
}

TEST(StmtSemanticsTest, DefineFeedsKernelConfiguration) {
  // #define used for both the array extent and the launch config — the
  // common Rodinia idiom.
  const char *src = R"(
#define N 32
__global__ void k(float* a) {
  int t = blockIdx.x * blockDim.x + threadIdx.x;
  if (t < N) a[t] = t;
}
void run(float* a) { k<<<2, 16>>>(a); }
)";
  DiagnosticEngine diag;
  auto cc = driver::compile(src, transforms::PipelineOptions{}, diag);
  ASSERT_TRUE(cc.ok) << diag.str();
  driver::Executor exec(cc.module.get(), 2);
  std::vector<float> a(32, -1.0f);
  exec.run("run", {driver::Executor::bufferF32(a.data(), {32})});
  for (int i = 0; i < 32; ++i)
    EXPECT_EQ(a[i], static_cast<float>(i));
}

//===----------------------------------------------------------------------===//
// Compound assignment
//===----------------------------------------------------------------------===//

TEST(CompoundAssignTest, MatchesLongForm) {
  struct Case {
    const char *op;
    int64_t a, b, expected;
  };
  const Case cases[] = {
      {"+", 13, 3, 16},   {"-", 13, 3, 10},   {"*", 13, 3, 39},
      {"/", -40, 3, -13}, {"%", -40, 3, -1},  {"%", 13, 5, 3},
      {"<<", 13, 3, 104}, {">>", -40, 2, -10}, {">>", 255, 7, 1},
      {"&", 12, 10, 8},   {"|", 12, 10, 14},  {"^", 12, 10, 6},
  };
  for (const Case &c : cases) {
    std::string op = c.op;
    SCOPED_TRACE(op + "=");
    int64_t compound =
        runBody("int x = a; x " + op + "= b; return x;", c.a, c.b);
    int64_t longForm =
        runBody("int x = a; x = x " + op + " b; return x;", c.a, c.b);
    EXPECT_EQ(compound, longForm);
    EXPECT_EQ(compound, c.expected);
  }
  // The assignment's value is the stored value, as in C.
  EXPECT_EQ(runBody("int x = a; int y = (x >>= 2) + 1; return x * 100 + y;",
                    40, 0),
            1011);
}

TEST(CompoundAssignTest, IntegerOnlyOperatorsRejectFloats) {
  const char *sources[] = {
      "float f(float a, int b) { float x = a; x %= b; return x; }",
      "int f(int a, float b) { int x = a; x <<= b; return x; }",
      "double f(double a, int b) { double x = a; x ^= b; return x; }",
  };
  for (const char *src : sources) {
    DiagnosticEngine diag;
    frontend::compileToIR(src, diag);
    EXPECT_TRUE(diag.hasErrors()) << src;
    EXPECT_NE(diag.str().find("requires integer operands"), std::string::npos)
        << diag.str();
  }
}

TEST(CompoundAssignTest, ShiftAssignReductionMatchesSimt) {
  // The canonical CUDA spelling of the block tree reduction.
  const char *src = R"(
#define TB 64
__global__ void red(float* in, float* out) {
  __shared__ float buf[TB];
  int tx = threadIdx.x;
  buf[tx] = in[blockIdx.x * TB + tx];
  __syncthreads();
  for (int s = TB / 2; s > 0; s >>= 1) {
    if (tx < s) {
      buf[tx] += buf[tx + s];
    }
    __syncthreads();
  }
  if (tx == 0) {
    out[blockIdx.x] = buf[0];
  }
}
void run(float* in, float* out) { red<<<4, TB>>>(in, out); }
)";
  std::vector<float> in(256);
  for (int i = 0; i < 256; ++i)
    in[i] = 0.125f * float(i % 13) - 0.75f;
  auto runWith = [&](driver::CompileResult &cc) {
    std::vector<float> out(4, 0.0f);
    driver::Executor exec(cc.module.get(), 2);
    exec.run("run", {driver::Executor::bufferF32(in.data(), {256}),
                     driver::Executor::bufferF32(out.data(), {4})});
    return out;
  };
  DiagnosticEngine diag;
  auto oracle = driver::compileForSimt(src, diag);
  ASSERT_TRUE(oracle.ok) << diag.str();
  std::vector<float> expected = runWith(oracle);
  using transforms::PipelineOptions;
  for (const PipelineOptions &opts :
       {PipelineOptions{}, PipelineOptions::optDisabled(),
        PipelineOptions::mcuda()}) {
    auto cc = driver::compile(src, opts, diag);
    ASSERT_TRUE(cc.ok) << diag.str();
    EXPECT_EQ(runWith(cc), expected) << ir::printOp(cc.module.op());
  }
  // With affine opts the loop is raised and unrolled: no while is left.
  auto full = driver::compile(src, PipelineOptions{}, diag);
  ASSERT_TRUE(full.ok) << diag.str();
  int whiles = 0;
  full.module.op()->walk(
      [&](ir::Op *op) { whiles += op->kind() == ir::OpKind::ScfWhile; });
  EXPECT_EQ(whiles, 0) << ir::printOp(full.module.op());
}

//===----------------------------------------------------------------------===//
// Constant array extents
//===----------------------------------------------------------------------===//

TEST(ConstExprTest, ArrayExtentsUseIrIntegerSemantics) {
  // The parser folds extents with ir/intmath.h: INT64_MIN / -1 wraps
  // instead of trapping, overflow wraps, and shift counts are taken
  // modulo 64.
  struct Case {
    const char *extent;
    int64_t expected;
  };
  const Case cases[] = {
      {"(-9223372036854775807 - 1) / -1", INT64_MIN},
      {"(-9223372036854775807 - 1) % -1 + 4", 4},
      {"9223372036854775807 + 9223372036854775807 + 10", 8},
      {"1 << 70", 64},
      {"(1 << 64) + 1", 2},
      {"-16 >> 66", -4},
  };
  for (const Case &c : cases) {
    SCOPED_TRACE(c.extent);
    std::string src = std::string("__global__ void k(float* a) {\n"
                                  "  __shared__ float t[") +
                      c.extent +
                      "];\n  a[0] = 1.0f;\n}\n"
                      "void run(float* a) { k<<<1, 1>>>(a); }\n";
    DiagnosticEngine diag;
    ir::OwnedModule m = frontend::compileToIR(src, diag);
    ASSERT_FALSE(diag.hasErrors()) << diag.str();
    std::vector<int64_t> extents;
    m.op()->walk([&](ir::Op *op) {
      if (op->kind() == ir::OpKind::Alloca &&
          op->result().type().rank() == 1)
        extents.push_back(op->result().type().shape()[0]);
    });
    EXPECT_EQ(extents, std::vector<int64_t>{c.expected});
  }
}
