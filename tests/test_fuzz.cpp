// Differential fuzzing: a seeded generator emits random CUDA-subset
// kernels that are race-free by construction (phase-structured shared-
// memory traffic separated by __syncthreads), then every pipeline
// configuration must produce outputs identical to the lockstep SIMT
// oracle. Any divergence is a miscompilation in barrier lowering,
// fission/min-cut, interchange, or the OpenMP lowering.
#include "driver/compiler.h"
#include "ir/printer.h"
#include "native/native.h"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

using namespace paralift;

namespace {

constexpr int kBlockSize = 16;
constexpr int kGridSize = 4;
constexpr int kN = kBlockSize * kGridSize;
/// Seeds of the differential sweep: enough that every halving spelling of
/// the tree-reduction phase and every guard form of the guarded write
/// phase is drawn by at least four of them.
constexpr uint32_t kFuzzSeeds = 256;

/// The halving updates of the tree-reduction phase, `@` standing for the
/// loop variable. Each is drawn as a `for` increment, and the first also
/// as the statement form `while (w > 0) { ...; w = w / 2; }`. All of them
/// lower to the same memory-form scf.while.
const char *const kHalvingSpellings[] = {"@ = @ / 2", "@ /= 2", "@ = @ >> 1",
                                         "@ >>= 1", "while"};
constexpr int kNumHalvingSpellings = std::size(kHalvingSpellings);

/// The guard forms of the guarded write phase: each comparison of tx
/// with a constant (drawn with tx on either side), the reversed operand
/// order `c OP tx` (over every comparison), and `tx % p == 0`.
const char *const kGuardForms[] = {"==", "<",        "<=", ">",
                                   ">=", "reversed", "%"};
constexpr int kNumGuardForms = std::size(kGuardForms);
constexpr int kNumComparisons = 5, kReversedForm = 5, kModuloForm = 6;

/// The guards of the launch's bound n = kN - k, k drawn from
/// [0, kBlockSize): the last global store under `gid < n`, or (one kernel
/// in four) a barrier-free kernel whose whole body is under
/// `gid < n && <a data-dependent test>`.
const char *const kLaunchGuards[] = {"store", "conjunction"};
constexpr int kNumLaunchGuards = std::size(kLaunchGuards);

std::string spell(std::string pattern, const std::string &var) {
  for (size_t p; (p = pattern.find('@')) != std::string::npos;)
    pattern.replace(p, 1, var);
  return pattern;
}

/// Generates a random race-free kernel. The program alternates "write
/// phases" (each thread writes only s[tx] / out[gid]) and "read phases"
/// (reads of other threads' s slots), with a __syncthreads between any
/// write->read or read->write transition on s. Expressions use +,-,* and
/// constants only, so all configurations are bitwise comparable. Besides
/// four fixed constants they draw random f32 ones, and the neighbours of
/// those in the last place, so a pass that tells constants apart by fewer
/// digits than a float has merges some and changes the output. Every
/// kernel is launched on (n + 15) / 16 blocks with CUDA's canonical guard
/// `gid < n` (kLaunchGuards), n = kN - k for a drawn k, so both places
/// canonicalize folds it (a serial thread loop, the linear collapsed
/// loop) are checked.
class KernelGen {
public:
  explicit KernelGen(uint32_t seed) : rng_(seed) {}

  /// How often generate() emitted each halving spelling.
  const std::array<int, kNumHalvingSpellings> &spellingsDrawn() const {
    return spellingsDrawn_;
  }
  /// How often generate() emitted each guard form.
  const std::array<int, kNumGuardForms> &guardFormsDrawn() const {
    return guardFormsDrawn_;
  }
  /// How often generate() emitted each launch guard.
  const std::array<int, kNumLaunchGuards> &launchGuardsDrawn() const {
    return launchGuardsDrawn_;
  }
  /// The bound n that `run` must be passed, drawn by generate().
  int n() const { return n_; }

  std::string generate() {
    n_ = kN - static_cast<int>(rng_() % kBlockSize);
    bool barrierFree = rng_() % 4 == 0;
    ++launchGuardsDrawn_[barrierFree];
    std::ostringstream os;
    os << "__global__ void k(float* a, float* b, float* out, int u, "
          "int n) {\n"
       << "  int tx = threadIdx.x;\n"
       << "  int gid = blockIdx.x * blockDim.x + threadIdx.x;\n";
    if (barrierFree) {
      // Global write phases only: no thread reads another's data.
      os << "  if (gid < n && " << (rng_() % 2 ? "a" : "b") << "[gid] "
         << (rng_() % 2 ? "<" : ">") << " " << floatConstant() << ") {\n"
         << "  float r0 = a[gid];\n"
         << "  float r1 = b[gid];\n";
      int phases = 1 + static_cast<int>(rng_() % 3);
      for (int p = 0; p < phases; ++p)
        emitGlobalWrite(os);
      os << "  out[gid] = r0 + r1 * 0.25f;\n"
         << "  }\n";
    } else {
      os << "  __shared__ float s[" << kBlockSize << "];\n"
         << "  float r0 = a[gid];\n"
         << "  float r1 = b[gid];\n";
      // Phase 1 always initializes s unconditionally so later cross-thread
      // reads never observe uninitialized memory.
      os << "  s[tx] = " << valueExpr() << ";\n";
      os << "  __syncthreads();\n";

      int phases = 1 + static_cast<int>(rng_() % 3);
      for (int p = 0; p < phases; ++p)
        emitPhase(os, p);

      // The registers go to s, so after fission the guarded store is the
      // whole body of its thread loop.
      os << "  __syncthreads();\n"
         << "  s[tx] = r0 + r1 * 0.25f;\n"
         << "  __syncthreads();\n"
         << "  if (gid < n) {\n"
         << "    out[gid] = " << sharedRead() << " + " << floatConstant()
         << ";\n"
         << "  }\n";
    }
    os << "}\n"
       << "void run(float* a, float* b, float* out, int u, int n) {\n"
       << "  k<<<(n + " << kBlockSize - 1 << ") / " << kBlockSize << ", "
       << kBlockSize << ">>>(a, b, out, u, n);\n"
       << "}\n";
    return os.str();
  }

private:
  /// A float expression over the registers, global inputs, and constants.
  std::string valueExpr() {
    std::string e = atom();
    int terms = static_cast<int>(rng_() % 3);
    for (int i = 0; i < terms; ++i) {
      static const char *ops[] = {" + ", " - ", " * "};
      e += ops[rng_() % std::size(ops)];
      e += atom();
    }
    return e;
  }

  /// A register, a global input, a fixed constant or a drawn one.
  std::string atom() {
    static const char *atoms[] = {"r0", "r1", "a[gid]", "b[gid]",
                                  "1.5f", "0.5f", "2.0f", "-1.0f"};
    size_t pick = rng_() % (std::size(atoms) + 1);
    return pick < std::size(atoms) ? atoms[pick] : floatConstant();
  }

  /// A finite f32 literal: a random bit pattern with its exponent in
  /// [-4, 1] (so |c| is in [1/16, 4) and sums and products stay finite),
  /// or, one time in three, the nextafterf neighbour of a constant the
  /// kernel already holds. %.9g round-trips every f32.
  std::string floatConstant() {
    float c;
    if (!constants_.empty() && rng_() % 3 == 0) {
      float base = constants_[rng_() % constants_.size()];
      float toward = std::numeric_limits<float>::infinity();
      c = std::nextafterf(base, rng_() % 2 ? toward : -toward);
    } else {
      // One draw per statement: the order of calls within an expression
      // is unspecified, and the kernels must not depend on the compiler.
      uint32_t sign = rng_() % 2;
      uint32_t exponent = 127 - 4 + rng_() % 6;
      uint32_t mantissa = rng_() & 0x7fffffu;
      uint32_t bits = sign << 31 | exponent << 23 | mantissa;
      std::memcpy(&c, &bits, sizeof(c));
    }
    constants_.push_back(c);
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.9g", c);
    std::string literal = buf;
    if (literal.find('.') == std::string::npos)
      literal += ".0"; // an integral value still needs a float literal
    return literal + "f";
  }

  /// A read of another thread's shared slot (any rotation is race-free
  /// because reads are barrier-separated from writes).
  std::string sharedRead() {
    int rot = static_cast<int>(rng_() % kBlockSize);
    std::ostringstream os;
    os << "s[(tx + " << rot << ") % " << kBlockSize << "]";
    return os.str();
  }

  void emitPhase(std::ostringstream &os, int phase) {
    switch (rng_() % 8) {
    case 0: {
      // Read phase into a register, optionally guarded (reads are always
      // safe to guard).
      bool guard = rng_() % 2 == 0;
      int bound = 1 + static_cast<int>(rng_() % kBlockSize);
      if (guard)
        os << "  if (tx < " << bound << ") {\n  ";
      os << "  r" << rng_() % 2 << " = " << sharedRead() << " + "
         << valueExpr() << ";\n";
      if (guard)
        os << "  }\n";
      break;
    }
    case 1:
      // Write phase: s[tx] gets a new value everywhere, then a barrier
      // republishes it.
      os << "  r" << rng_() % 2 << " = " << sharedRead() << ";\n";
      os << "  __syncthreads();\n";
      os << "  s[tx] = " << valueExpr() << ";\n";
      os << "  __syncthreads();\n";
      break;
    case 2: {
      // Serial loop with a barrier inside (exercises interchange): each
      // iteration reads neighbours, syncs, writes own slot, syncs.
      int trip = 2 + static_cast<int>(rng_() % 3);
      os << "  for (int i" << phase << " = 0; i" << phase << " < " << trip
         << "; i" << phase << "++) {\n";
      os << "    r0 = " << sharedRead() << " * 0.5f + r1;\n";
      os << "    __syncthreads();\n";
      os << "    s[tx] = r0 + " << valueExpr() << ";\n";
      os << "    __syncthreads();\n";
      os << "  }\n";
      break;
    }
    case 3: {
      // Barrier under a uniform condition (the kernel argument u is the
      // same for every thread), exercising if-interchange in cpuify.
      int bound = static_cast<int>(rng_() % 3);
      os << "  if (u > " << bound << ") {\n";
      os << "    r0 = " << sharedRead() << ";\n";
      os << "    __syncthreads();\n";
      os << "    s[tx] = r0 * 0.5f + " << valueExpr() << ";\n";
      os << "    __syncthreads();\n";
      os << "  }\n";
      break;
    }
    case 4: {
      // A thread-private int defined before a barrier-containing loop or
      // uniform if and only read inside it, on both sides of the
      // barriers (exercises promotion across barrier regions and the
      // min-cut's recompute-vs-cache choice for the promoted value).
      std::string q = "q" + std::to_string(phase);
      os << "  int " << q << " = tx * " << 1 + rng_() % 4 << " + u;\n";
      std::string iv;
      if (rng_() % 2 == 0) {
        iv = "i" + std::to_string(phase);
        os << "  for (int " << iv << " = 0; " << iv << " < "
           << 2 + rng_() % 3 << "; " << iv << "++) {\n";
      } else {
        os << "  if (u > " << rng_() % 3 << ") {\n";
      }
      os << "    r0 = s[(" << q << (iv.empty() ? "" : " + " + iv) << " + "
         << rng_() % kBlockSize << ") % " << kBlockSize << "] + "
         << valueExpr() << ";\n";
      os << "    __syncthreads();\n";
      os << "    s[tx] = r0 * 0.5f + a[(gid + " << q << ") % " << kN
         << "];\n";
      os << "    __syncthreads();\n";
      os << "  }\n";
      break;
    }
    case 5:
      emitTreeReduction(os, phase);
      break;
    case 6:
      emitGuardedWrite(os);
      break;
    default:
      emitGlobalWrite(os);
      break;
    }
  }

  /// Global write phase: out is strictly thread-private, no barrier
  /// needed; also mutates a register to keep values flowing.
  void emitGlobalWrite(std::ostringstream &os) {
    os << "  out[gid] = r0 * r1 + " << valueExpr() << ";\n";
    os << "  r1 = r1 + out[gid];\n";
  }

  /// Block tree reduction on s: each trip, threads below the stride w add
  /// the slot w above them, then sync. The writes (s[0..w)) and the other
  /// threads' reads (s[w..2w)) are disjoint, and w <= kBlockSize / 2 keeps
  /// tx + w in range. Half the time w starts from a constant, so the loop
  /// is raised and unrolled; otherwise from a value depending on the
  /// kernel argument u, so it stays a while and cpuify interchanges it.
  void emitTreeReduction(std::ostringstream &os, int phase) {
    std::string w = "w" + std::to_string(phase);
    std::string start;
    if (rng_() % 2 == 0)
      start = std::to_string(1 + rng_() % (kBlockSize / 2));
    else
      start = "u % " + std::to_string(kBlockSize / 2) + " + 1";
    int spelling = static_cast<int>(rng_() % kNumHalvingSpellings);
    ++spellingsDrawn_[spelling];
    bool statementForm = spelling == kNumHalvingSpellings - 1;
    // Retire the pending reads of s before the first write.
    os << "  __syncthreads();\n";
    if (statementForm)
      os << "  int " << w << " = " << start << ";\n"
         << "  while (" << w << " > 0) {\n";
    else
      os << "  for (int " << w << " = " << start << "; " << w << " > 0; "
         << spell(kHalvingSpellings[spelling], w) << ") {\n";
    os << "    if (tx < " << w << ") {\n"
       << "      s[tx] = s[tx] + s[tx + " << w << "];\n"
       << "    }\n"
       << "    __syncthreads();\n";
    if (statementForm)
      os << "    " << spell(kHalvingSpellings[0], w) << ";\n";
    os << "  }\n"
       << "  r0 = s[0] * 0.5f + r0;\n";
  }

  /// A read of another thread's slot of s, or of out within the block.
  std::string otherSlot(const std::string &array) {
    std::ostringstream os;
    os << array << "[" << (array == "out" ? "blockIdx.x * blockDim.x + " : "")
       << "(tx + " << 1 + rng_() % (kBlockSize - 1) << ") % " << kBlockSize
       << "]";
    return os.str();
  }

  /// Guarded own-slot write: the threads passing a guard on tx rewrite
  /// s[tx]. The constant is drawn from [-2, kBlockSize + 2], so the guard
  /// holds for no thread, some or all of them. Around the guard, the
  /// registers are spilled to out and restarted from other threads' slots
  /// of s and out: no register is live across it, and the cross-thread
  /// reads keep the barriers on both sides. After fission the guard is
  /// then the whole body of its thread loop, which canonicalize restricts
  /// to the threads that pass it.
  void emitGuardedWrite(std::ostringstream &os) {
    static const char *mirrored[kNumComparisons] = {"==", ">", ">=", "<",
                                                    "<="};
    static const char *values[] = {"a[gid]", "b[gid]", "1.5f", "-1.0f"};
    // One of the comparisons or the modulo test, alike.
    int form = static_cast<int>(rng_() % (kNumComparisons + 1));
    std::ostringstream guard;
    if (form == kNumComparisons) {
      guard << "tx % " << 1 + rng_() % (kBlockSize + 2) << " == 0";
      form = kModuloForm;
    } else {
      int c = static_cast<int>(rng_() % (kBlockSize + 5)) - 2;
      if (rng_() % 2 == 0) {
        guard << "tx " << kGuardForms[form] << " " << c;
      } else {
        guard << c << " " << mirrored[form] << " tx";
        ++guardFormsDrawn_[kReversedForm];
      }
    }
    ++guardFormsDrawn_[form];
    os << "  out[gid] = r0 + r1 * " << otherSlot("s") << ";\n"
       << "  __syncthreads();\n"
       << "  if (" << guard.str() << ") {\n"
       << "    s[tx] = s[tx] * 0.5f + " << values[rng_() % std::size(values)]
       << ";\n"
       << "  }\n"
       << "  __syncthreads();\n"
       << "  r0 = " << otherSlot("s") << " + " << otherSlot("out") << ";\n"
       << "  r1 = s[tx];\n"
       << "  __syncthreads();\n";
  }

  std::mt19937 rng_;
  std::vector<float> constants_;
  std::array<int, kNumHalvingSpellings> spellingsDrawn_{};
  std::array<int, kNumGuardForms> guardFormsDrawn_{};
  std::array<int, kNumLaunchGuards> launchGuardsDrawn_{};
  int n_ = kN;
};

/// The pipeline configurations under test.
struct FuzzConfig {
  const char *name;
  transforms::PipelineOptions opts;
};

std::vector<FuzzConfig> fuzzConfigs() {
  transforms::PipelineOptions innerPar;
  innerPar.innerSerialize = false;
  transforms::PipelineOptions noMinCut;
  noMinCut.minCut = false;
  return {
      {"default", transforms::PipelineOptions{}},
      {"optDisabled", transforms::PipelineOptions::optDisabled()},
      {"mcuda", transforms::PipelineOptions::mcuda()},
      {"innerPar", innerPar},
      {"noMinCut", noMinCut},
  };
}

struct FuzzCase {
  uint32_t seed;
  FuzzConfig config;
};

void PrintTo(const FuzzCase &c, std::ostream *os) {
  *os << "seed" << c.seed << "_" << c.config.name;
}

class FuzzDifferentialTest : public ::testing::TestWithParam<FuzzCase> {};

/// Runs `run` with bound `n` on `exec` (driver::Executor or
/// native::Executor).
template <typename Exec>
std::vector<float> runOn(Exec &exec, const std::vector<float> &a,
                         const std::vector<float> &b, int n) {
  std::vector<float> av = a, bv = b, out(kN, 0.0f);
  exec.run("run", {driver::Executor::bufferF32(av.data(), {kN}),
                   driver::Executor::bufferF32(bv.data(), {kN}),
                   driver::Executor::bufferF32(out.data(), {kN}),
                   int64_t(2), int64_t(n)});
  return out;
}

std::vector<float> runProgram(driver::CompileResult &cc,
                              const std::vector<float> &a,
                              const std::vector<float> &b, int n,
                              unsigned threads) {
  driver::Executor exec(cc.module.get(), threads);
  return runOn(exec, a, b, n);
}

/// The differential sweep's inputs for `seed`.
void sweepInputs(uint32_t seed, std::vector<float> &a, std::vector<float> &b) {
  a.resize(kN);
  b.resize(kN);
  std::mt19937 rng(seed ^ 0x9e3779b9u);
  std::uniform_real_distribution<float> dist(-2.0f, 2.0f);
  for (int i = 0; i < kN; ++i) {
    a[i] = dist(rng);
    b[i] = dist(rng);
  }
}

} // namespace

TEST_P(FuzzDifferentialTest, MatchesSimtOracle) {
  const FuzzCase &fc = GetParam();
  KernelGen gen(fc.seed);
  std::string src = gen.generate();

  std::vector<float> a, b;
  sweepInputs(fc.seed, a, b);

  DiagnosticEngine diag;
  auto oracle = driver::compileForSimt(src, diag);
  ASSERT_TRUE(oracle.ok) << diag.str() << "\nsource:\n" << src;
  std::vector<float> expected = runProgram(oracle, a, b, gen.n(), 2);

  auto cc = driver::compile(src, fc.config.opts, diag);
  ASSERT_TRUE(cc.ok) << diag.str() << "\nsource:\n" << src;
  std::vector<float> got = runProgram(cc, a, b, gen.n(), 2);

  ASSERT_EQ(got.size(), expected.size());
  for (int i = 0; i < kN; ++i)
    ASSERT_EQ(got[i], expected[i])
        << "mismatch at " << i << " (config " << fc.config.name << ")\n"
        << "source:\n"
        << src << "\ntranspiled IR:\n"
        << ir::printOp(cc.module.op());
}

namespace {

std::vector<FuzzCase> allFuzzCases() {
  std::vector<FuzzCase> cases;
  for (uint32_t seed = 0; seed < kFuzzSeeds; ++seed)
    for (const FuzzConfig &cfg : fuzzConfigs())
      cases.push_back({seed, cfg});
  return cases;
}

} // namespace

INSTANTIATE_TEST_SUITE_P(
    Seeds, FuzzDifferentialTest, ::testing::ValuesIn(allFuzzCases()),
    [](const ::testing::TestParamInfo<FuzzCase> &info) {
      return "seed" + std::to_string(info.param.seed) + "_" +
             info.param.config.name;
    });

//===----------------------------------------------------------------------===//
// The native tier on generated kernels: every eighth seed of the sweep (25
// kernels) through the full pipeline, built natively, must match the VM
// byte for byte. Their random f32 constants and last-place neighbours
// check that the emitter's literals keep every bit.
//===----------------------------------------------------------------------===//

TEST(FuzzNativeTest, EveryEighthSeedMatchesTheVmByteForByte) {
  std::vector<uint32_t> seeds;
  for (uint32_t seed = 0; seed < kFuzzSeeds; seed += 8)
    seeds.push_back(seed);
  driver::SessionOptions so;
  so.threads = 4;
  so.useEnvCache = false;
  driver::CompilerSession session(std::move(so));
  std::vector<driver::CompileJob *> jobs;
  std::vector<int> bounds;
  for (uint32_t seed : seeds) {
    KernelGen gen(seed);
    jobs.push_back(
        &session.addSource("seed" + std::to_string(seed), gen.generate()));
    bounds.push_back(gen.n());
  }
  session.compileAll();
  std::vector<std::shared_ptr<const native::Module>> built(seeds.size());
  std::vector<std::string> diags(seeds.size());
  runtime::ThreadPool pool(4);
  runtime::runTasks(&pool, seeds.size(), [&](size_t i) {
    DiagnosticEngine diag;
    built[i] = native::Module::build(jobs[i]->result(), jobs[i]->name(), diag);
    diags[i] = diag.str();
  });
  for (size_t i = 0; i < seeds.size(); ++i) {
    ASSERT_TRUE(built[i]) << "seed " << seeds[i] << ": " << diags[i];
    std::vector<float> a, b;
    sweepInputs(seeds[i], a, b);
    driver::Executor vm(jobs[i]->result().module.get(), 2);
    native::Executor nat(built[i], 2);
    std::vector<float> expected = runOn(vm, a, b, bounds[i]),
                       got = runOn(nat, a, b, bounds[i]);
    EXPECT_EQ(std::memcmp(got.data(), expected.data(), kN * sizeof(float)), 0)
        << "seed " << seeds[i] << ": native output differs from the VM's";
  }
}

TEST(KernelGenTest, SweepDrawsEveryHalvingSpelling) {
  std::array<int, kNumHalvingSpellings> seedsDrawing{};
  for (uint32_t seed = 0; seed < kFuzzSeeds; ++seed) {
    KernelGen gen(seed);
    gen.generate();
    for (int i = 0; i < kNumHalvingSpellings; ++i)
      seedsDrawing[i] += gen.spellingsDrawn()[i] > 0;
  }
  for (int i = 0; i < kNumHalvingSpellings; ++i)
    EXPECT_GE(seedsDrawing[i], 4) << kHalvingSpellings[i];
}

TEST(KernelGenTest, SweepDrawsEveryGuardForm) {
  std::array<int, kNumGuardForms> seedsDrawing{};
  for (uint32_t seed = 0; seed < kFuzzSeeds; ++seed) {
    KernelGen gen(seed);
    gen.generate();
    for (int i = 0; i < kNumGuardForms; ++i)
      seedsDrawing[i] += gen.guardFormsDrawn()[i] > 0;
  }
  for (int i = 0; i < kNumGuardForms; ++i)
    EXPECT_GE(seedsDrawing[i], 4) << kGuardForms[i];
}

TEST(KernelGenTest, SweepDrawsEveryLaunchGuard) {
  std::array<int, kNumLaunchGuards> seedsDrawing{};
  for (uint32_t seed = 0; seed < kFuzzSeeds; ++seed) {
    KernelGen gen(seed);
    gen.generate();
    for (int i = 0; i < kNumLaunchGuards; ++i)
      seedsDrawing[i] += gen.launchGuardsDrawn()[i] > 0;
  }
  for (int i = 0; i < kNumLaunchGuards; ++i)
    EXPECT_GE(seedsDrawing[i], 4) << kLaunchGuards[i];
}

//===----------------------------------------------------------------------===//
// Thread-count invariance: the transpiled program must be deterministic
// across team sizes (work distribution must not change results).
//===----------------------------------------------------------------------===//

class FuzzThreadsTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(FuzzThreadsTest, ResultIndependentOfTeamSize) {
  uint32_t seed = GetParam();
  KernelGen gen(seed);
  std::string src = gen.generate();
  std::vector<float> a(kN), b(kN);
  std::mt19937 rng(seed * 7919u + 1);
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  for (int i = 0; i < kN; ++i) {
    a[i] = dist(rng);
    b[i] = dist(rng);
  }
  DiagnosticEngine diag;
  auto cc = driver::compile(src, transforms::PipelineOptions{}, diag);
  ASSERT_TRUE(cc.ok) << diag.str();
  std::vector<float> t1 = runProgram(cc, a, b, gen.n(), 1);
  std::vector<float> t2 = runProgram(cc, a, b, gen.n(), 2);
  std::vector<float> t4 = runProgram(cc, a, b, gen.n(), 4);
  EXPECT_EQ(t1, t2);
  EXPECT_EQ(t1, t4);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzThreadsTest, ::testing::Range(0u, 10u));
