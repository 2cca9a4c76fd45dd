// PassResultCache tests: one entry per (module, pipeline), hit/miss/
// invalidation semantics (edit one function or change one pass option ->
// the whole pipeline misses; an inspected run executes every pass and
// stores), replay fidelity (cached compiles are IR-identical to uncached
// ones across the Rodinia suite, with zero transform pass executions on
// the second compile, and a warm run parses its module once), disk
// persistence with corrupt-entry and old-format tolerance, and thread
// safety across the module tasks of a threaded session sharing one
// cache.
#include "driver/compiler.h"
#include "frontend/irgen.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "rodinia/rodinia.h"
#include "support/failpoint.h"
#include "support/metrics.h"
#include "transforms/pass_cache.h"
#include "transforms/registry.h"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <thread>
#include <unistd.h>

using namespace paralift;
using namespace paralift::ir;
using namespace paralift::transforms;

namespace {

OwnedModule parseOk(const std::string &text) {
  DiagnosticEngine diag;
  auto m = ir::parseModule(text, diag);
  EXPECT_TRUE(m.has_value()) << diag.str();
  return std::move(*m);
}

/// Two independent functions; g's loop body differs by the stored
/// constant so the "edit one function" scenarios can vary it.
std::string twoFuncModule(const char *gConst) {
  return std::string(R"(module {
  func {sym_name = "f", res_types = []} {
    [%0: memref<?xf32>]:
    %1 = const.int {value = 0} : index
    %2 = const.int {value = 4} : index
    %3 = const.int {value = 1} : index
    scf.for(%1, %2, %3) {
      [%4: index]:
      %5 = const.float {value = 1.0} : f32
      memref.store(%5, %0, %4)
      yield
    }
    return
  }
  func {sym_name = "g", res_types = []} {
    [%10: memref<?xf32>]:
    %11 = const.int {value = 0} : index
    %12 = const.int {value = 4} : index
    %13 = const.int {value = 1} : index
    scf.for(%11, %12, %13) {
      [%14: index]:
      %15 = const.float {value = )") +
         gConst + R"(} : f32
      memref.store(%15, %10, %14)
      yield
    }
    return
  }
})";
}

/// A callee and its caller: the module pass (inline) has work to do.
const char *kCallerCalleeModule = R"(module {
  func {sym_name = "callee", res_types = []} {
    [%0: memref<?xf32>, %1: index]:
    %2 = memref.load(%0, %1) : f32
    %3 = addf(%2, %2) : f32
    memref.store(%3, %0, %1)
    return
  }
  func {sym_name = "caller", res_types = []} {
    [%10: memref<?xf32>, %11: index]:
    call(%10, %11) {callee = "callee"}
    return
  }
})";

/// Runs `pipeline` over `m` with `cache`; returns printed IR.
std::string runCached(ModuleOp m, const std::string &pipeline,
                      PassResultCache *cache) {
  PassManager pm;
  DiagnosticEngine diag;
  EXPECT_TRUE(buildPipelineFromSpec(pm, pipeline, diag)) << diag.str();
  pm.setResultCache(cache);
  EXPECT_TRUE(pm.run(m, diag)) << diag.str();
  return printOp(m.op);
}

/// Compiles `source` through the full pipeline in a one-job session with
/// `cache` (null: uncached). The environment's cache is never used, so
/// an uncached compile stays uncached under $PARALIFT_CACHE_DIR.
driver::CompileResult compileWith(const std::string &source,
                                  PassResultCache *cache,
                                  DiagnosticEngine &diag) {
  driver::SessionOptions so;
  so.cache = cache;
  so.useEnvCache = false;
  driver::CompilerSession session(std::move(so));
  driver::CompileJob &job = session.addSource("", source);
  session.compileAll();
  diag.mergeFrom(job.diagnostics());
  return job.take();
}

std::string tempDir(const std::string &tag) {
  auto dir = std::filesystem::temp_directory_path() /
             ("paralift-cache-test-" + tag + "-" +
              std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  return dir.string();
}

} // namespace

//===----------------------------------------------------------------------===//
// Hashing
//===----------------------------------------------------------------------===//

TEST(Hash128Test, HexRoundTrip) {
  Hash128 h = hashBytes("paralift");
  auto parsed = Hash128::fromHex(h.hex());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, h);
  EXPECT_FALSE(Hash128::fromHex("short").has_value());
  EXPECT_FALSE(
      Hash128::fromHex("zz345678901234567890123456789012").has_value());
  EXPECT_NE(hashBytes("a"), hashBytes("b"));
  EXPECT_NE(combineHash(hashBytes("a"), hashBytes("b")),
            combineHash(hashBytes("b"), hashBytes("a"))); // order matters
}

//===----------------------------------------------------------------------===//
// Basic replay
//===----------------------------------------------------------------------===//

TEST(PassCacheTest, SecondRunReplaysWithZeroExecutions) {
  const std::string pipeline = "canonicalize,cse,unroll{max-trip=4},"
                               "canonicalize";
  PassResultCache cache;
  OwnedModule m1 = parseOk(twoFuncModule("2.0"));
  std::string first = runCached(m1.get(), pipeline, &cache);
  auto s1 = cache.stats();
  EXPECT_EQ(s1.hits, 0u);
  EXPECT_EQ(s1.passesExecuted, 4u);
  EXPECT_EQ(s1.passesReplayed, 0u);
  EXPECT_EQ(s1.stores, 1u); // one entry per (module, pipeline)

  OwnedModule m2 = parseOk(twoFuncModule("2.0"));
  std::string second = runCached(m2.get(), pipeline, &cache);
  EXPECT_EQ(first, second);
  auto s2 = cache.stats();
  EXPECT_EQ(s2.passesExecuted, 4u); // unchanged: nothing re-ran
  EXPECT_EQ(s2.passesReplayed, 4u); // the pipeline's four passes
  EXPECT_EQ(s2.hits, 1u);
}

TEST(PassCacheTest, ReplayMatchesUncachedAcrossRodinia) {
  // Acceptance: the second compile of an unchanged Rodinia module through
  // the same pipeline executes zero transform passes and produces
  // IR identical to an uncached compile.
  for (const auto &b : rodinia::suite()) {
    DiagnosticEngine d0;
    auto uncached = compileWith(b.cudaSource, nullptr, d0);
    ASSERT_TRUE(uncached.ok) << b.id << ": " << d0.str();

    PassResultCache cache;
    DiagnosticEngine d1;
    auto warm = compileWith(b.cudaSource, &cache, d1);
    ASSERT_TRUE(warm.ok) << b.id << ": " << d1.str();
    uint64_t executedCold = cache.stats().passesExecuted;

    DiagnosticEngine d2;
    auto replayed = compileWith(b.cudaSource, &cache, d2);
    ASSERT_TRUE(replayed.ok) << b.id << ": " << d2.str();

    EXPECT_EQ(printOp(uncached.module.op()), printOp(replayed.module.op()))
        << b.id;
    EXPECT_EQ(cache.stats().passesExecuted, executedCold)
        << b.id << ": second compile executed transform passes";
    EXPECT_GT(cache.stats().passesReplayed, 0u) << b.id;
  }
}

//===----------------------------------------------------------------------===//
// Invalidation granularity
//===----------------------------------------------------------------------===//

TEST(PassCacheTest, EditingOneFunctionMissesThePipeline) {
  // The (module, pipeline) run is the unit of caching: an edit to g
  // changes the module's key, so the pipeline misses and every pass runs
  // (on f as well), and the output matches an uncached run. The edit
  // leaves the unedited module's entry intact.
  const std::string pipeline = "canonicalize,cse,unroll{max-trip=4}";
  PassResultCache cache;
  OwnedModule m1 = parseOk(twoFuncModule("2.0"));
  runCached(m1.get(), pipeline, &cache);
  cache.resetStats();

  OwnedModule edited = parseOk(twoFuncModule("3.0"));
  OwnedModule reference = parseOk(twoFuncModule("3.0"));
  DiagnosticEngine diag;
  ASSERT_TRUE(runPassPipeline(reference.get(), pipeline, diag));
  EXPECT_EQ(runCached(edited.get(), pipeline, &cache),
            printOp(reference.op()));
  auto s = cache.stats();
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.stores, 1u);
  EXPECT_EQ(s.passesReplayed, 0u);
  EXPECT_EQ(s.passesExecuted, 3u);

  cache.resetStats();
  OwnedModule unedited = parseOk(twoFuncModule("2.0"));
  runCached(unedited.get(), pipeline, &cache);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().passesExecuted, 0u);
}

TEST(PassCacheTest, ChangingAnyPassOptionMissesThePipeline) {
  // Pipelines differing only in unroll's option are distinct keys, so
  // the shared prefix is not shared: whether the changed pass refuses the
  // 4-trip loops (max-trip=2) or unrolls them like the stored run
  // (max-trip=8), the whole pipeline misses and every pass executes.
  PassResultCache cache;
  OwnedModule m1 = parseOk(twoFuncModule("2.0"));
  runCached(m1.get(), "canonicalize,cse,unroll{max-trip=4},canonicalize",
            &cache);
  for (const char *pipeline :
       {"canonicalize,cse,unroll{max-trip=2},canonicalize",
        "canonicalize,cse,unroll{max-trip=8},canonicalize"}) {
    cache.resetStats();
    OwnedModule m = parseOk(twoFuncModule("2.0"));
    runCached(m.get(), pipeline, &cache);
    auto s = cache.stats();
    EXPECT_EQ(s.hits, 0u) << pipeline;
    EXPECT_EQ(s.misses, 1u) << pipeline;
    EXPECT_EQ(s.passesReplayed, 0u) << pipeline;
    EXPECT_EQ(s.passesExecuted, 4u) << pipeline;
  }
}

TEST(PassCacheTest, VariantNameSharesEntriesWithCanonicalSpec) {
  // cpuify-nomincut normalizes to cpuify{mincut=false}: one entry pool.
  const char *kernel = R"(module {
  func {sym_name = "k", res_types = []} {
    [%0: memref<?xf32>]:
    %1 = const.int {value = 0} : index
    %2 = const.int {value = 8} : index
    %3 = const.int {value = 1} : index
    scf.parallel(%1, %2, %3) {dims = 1, gpu.block = true} {
      [%4: index]:
      %5 = memref.load(%0, %4) : f32
      memref.store(%5, %0, %4)
      yield
    }
    return
  }
})";
  PassResultCache cache;
  OwnedModule m1 = parseOk(kernel);
  runCached(m1.get(), "cpuify{mincut=false}", &cache);
  cache.resetStats();
  OwnedModule m2 = parseOk(kernel);
  runCached(m2.get(), "cpuify-nomincut", &cache);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 0u);
}

//===----------------------------------------------------------------------===//
// Module passes and repeat
//===----------------------------------------------------------------------===//

TEST(PassCacheTest, ModulePassCachesWholeModule) {
  const std::string pipeline = "inline,canonicalize";
  PassResultCache cache;
  OwnedModule m1 = parseOk(kCallerCalleeModule);
  std::string first = runCached(m1.get(), pipeline, &cache);
  OwnedModule m2 = parseOk(kCallerCalleeModule);
  std::string second = runCached(m2.get(), pipeline, &cache);
  EXPECT_EQ(first, second);
  auto s = cache.stats();
  EXPECT_EQ(s.passesReplayed, 2u); // inline (module) + canonicalize
  EXPECT_EQ(second.find("call("), std::string::npos)
      << "call sites were inlined: " << second;
}

TEST(PassCacheTest, RepeatCachesAsOneUnit) {
  PassResultCache cache;
  OwnedModule m1 = parseOk(twoFuncModule("2.0"));
  runCached(m1.get(), "repeat{n=3}(canonicalize,cse)", &cache);
  auto s1 = cache.stats();
  EXPECT_EQ(s1.stores, 1u); // one entry for the module and the pipeline
  OwnedModule m2 = parseOk(twoFuncModule("2.0"));
  runCached(m2.get(), "repeat{n=3}(canonicalize,cse)", &cache);
  EXPECT_EQ(cache.stats().passesReplayed, 1u);
  // A different n is a different spec: no sharing.
  cache.resetStats();
  OwnedModule m3 = parseOk(twoFuncModule("2.0"));
  runCached(m3.get(), "repeat{n=2}(canonicalize,cse)", &cache);
  EXPECT_EQ(cache.stats().hits, 0u);
}

//===----------------------------------------------------------------------===//
// Disk persistence
//===----------------------------------------------------------------------===//

TEST(PassCacheTest, DiskCacheSurvivesProcessesAndRejectsCorruption) {
  std::string dir = tempDir("disk");
  const std::string pipeline = "canonicalize,cse,unroll{max-trip=4}";
  {
    PassResultCache cache(dir);
    OwnedModule m = parseOk(twoFuncModule("2.0"));
    runCached(m.get(), pipeline, &cache);
    EXPECT_GT(cache.stats().stores, 0u);
  }
  // A fresh cache instance (fresh memory) over the same directory
  // replays everything from disk.
  {
    PassResultCache cache(dir);
    OwnedModule m = parseOk(twoFuncModule("2.0"));
    OwnedModule reference = parseOk(twoFuncModule("2.0"));
    DiagnosticEngine diag;
    ASSERT_TRUE(runPassPipeline(reference.get(), pipeline, diag));
    EXPECT_EQ(runCached(m.get(), pipeline, &cache), printOp(reference.op()));
    auto s = cache.stats();
    EXPECT_EQ(s.misses, 0u);
    EXPECT_EQ(s.diskHits, s.hits);
    EXPECT_EQ(s.passesExecuted, 0u);
  }
  // Corrupt every entry: lookups must degrade to misses, recompute, and
  // still produce correct IR.
  for (auto &e : std::filesystem::directory_iterator(dir)) {
    std::ofstream out(e.path(), std::ios::trunc);
    out << "garbage";
  }
  {
    PassResultCache cache(dir);
    OwnedModule m = parseOk(twoFuncModule("2.0"));
    OwnedModule reference = parseOk(twoFuncModule("2.0"));
    DiagnosticEngine diag;
    ASSERT_TRUE(runPassPipeline(reference.get(), pipeline, diag));
    EXPECT_EQ(runCached(m.get(), pipeline, &cache), printOp(reference.op()));
    auto s = cache.stats();
    EXPECT_EQ(s.hits, 0u);
    EXPECT_GT(s.misses, 0u);
  }
  std::filesystem::remove_all(dir);
}

TEST(PassCacheTest, UnwritableDirectoryDegradesToMemoryOnly) {
  PassResultCache cache("/proc/definitely-not-writable/cache");
  EXPECT_TRUE(cache.directory().empty());
  OwnedModule m = parseOk(twoFuncModule("2.0"));
  runCached(m.get(), "canonicalize", &cache);
  EXPECT_GT(cache.stats().stores, 0u); // memory path still works
}

//===----------------------------------------------------------------------===//
// Thread safety
//===----------------------------------------------------------------------===//

namespace {

/// CUDA-subset source with many independent kernels: 8 host functions
/// per module, so concurrent modules probe and store many entries of one
/// shared cache.
std::string manyKernelSource() {
  std::string src;
  for (int k = 0; k < 8; ++k) {
    std::string n = std::to_string(k);
    src += "__global__ void kern" + n + "(float* a, float* b, int n) {\n"
           "  int i = blockIdx.x * blockDim.x + threadIdx.x;\n"
           "  if (i < n) {\n"
           "    float x = a[i] * " + std::to_string(k + 2) + ".0f;\n"
           "    float y = a[i] * " + std::to_string(k + 2) + ".0f;\n"
           "    b[i] = x + y;\n"
           "  }\n"
           "}\n"
           "void launch" + n + "(float* a, float* b, int n) {\n"
           "  kern" + n + "<<<(n + 63) / 64, 64>>>(a, b, n);\n"
           "}\n";
  }
  return src;
}

} // namespace

TEST(PassCacheTest, ThreadSafeUnderPmThreads) {
  std::string src = manyKernelSource();
  DiagnosticEngine d0;
  auto reference = compileWith(src, nullptr, d0);
  ASSERT_TRUE(reference.ok) << d0.str();
  std::string golden = printOp(reference.module.op());

  std::string dir = tempDir("threads");
  PassResultCache cache(dir);
  // Cold populate and warm replay: four copies of the source compile as
  // the module tasks of one 4-thread session sharing one disk cache, and
  // every output is IR-identical to the serial uncached compile.
  for (int round = 0; round < 2; ++round) {
    driver::SessionOptions so;
    so.threads = 4;
    so.cache = &cache;
    so.useEnvCache = false;
    driver::CompilerSession session(std::move(so));
    std::vector<driver::CompileJob *> jobs;
    for (int j = 0; j < 4; ++j)
      jobs.push_back(&session.addSource("m" + std::to_string(j), src));
    EXPECT_TRUE(session.compileAll());
    for (driver::CompileJob *job : jobs) {
      ASSERT_TRUE(job->ok()) << job->diagnostics().str();
      EXPECT_EQ(printOp(job->result().module.op()), golden)
          << "round " << round << " " << job->name();
    }
  }
  EXPECT_GT(cache.stats().passesReplayed, 0u);
  std::filesystem::remove_all(dir);
}

//===----------------------------------------------------------------------===//
// Disk LRU eviction (--cache-limit / PARALIFT_CACHE_LIMIT)
//===----------------------------------------------------------------------===//

TEST(PassCacheTest, DiskLimitEvictsOldestMtimeFirst) {
  std::string dir = tempDir("evict");
  uint64_t entryBytes = 0;
  {
    PassResultCache cache(dir);
    // Four entries, mtimes spread far apart so ordering is unambiguous
    // regardless of filesystem timestamp granularity.
    for (int i = 0; i < 4; ++i) {
      std::string ir = "func " + std::to_string(i) + "\n";
      cache.store(hashBytes("input" + std::to_string(i)), "canonicalize",
                  ir);
    }
    std::vector<std::filesystem::path> files;
    for (const auto &e : std::filesystem::directory_iterator(dir))
      files.push_back(e.path());
    ASSERT_EQ(files.size(), 4u);
    entryBytes = std::filesystem::file_size(files[0]);
    // Filenames are key hashes (unordered); back-date by directory
    // iteration order, recording which basenames got the oldest stamps.
    auto now = std::filesystem::file_time_type::clock::now();
    int k = 0;
    std::vector<std::string> oldest;
    for (const auto &f : files) {
      std::filesystem::last_write_time(f, now - std::chrono::hours(4 - k));
      if (k < 2)
        oldest.push_back(f.filename().string());
      ++k;
    }
    // Keep ~2 entries: the sweep must drop exactly the two back-dated
    // furthest and keep the rest.
    cache.setDiskLimitBytes(2 * entryBytes + entryBytes / 2);
    auto ev = cache.evictToDiskLimit();
    EXPECT_EQ(ev.filesRemoved, 2u);
    EXPECT_LE(ev.bytesRemaining, 2 * entryBytes + entryBytes / 2);
    for (const std::string &name : oldest)
      EXPECT_FALSE(std::filesystem::exists(
          std::filesystem::path(dir) / name))
          << name << " should have been evicted first";
  }
  size_t remaining = 0;
  for (const auto &e : std::filesystem::directory_iterator(dir)) {
    (void)e;
    ++remaining;
  }
  EXPECT_EQ(remaining, 2u);
  std::filesystem::remove_all(dir);
}

TEST(PassCacheTest, DestructorSweepsToLimit) {
  std::string dir = tempDir("evict-dtor");
  {
    PassResultCache cache(dir);
    for (int i = 0; i < 6; ++i) {
      std::string ir = "func " + std::to_string(i) + "\n";
      cache.store(hashBytes("in" + std::to_string(i)), "cse", ir);
    }
    // A limit below one entry's size: shutdown keeps at most one file.
    cache.setDiskLimitBytes(1);
  } // destructor sweeps
  size_t remaining = 0;
  for (const auto &e : std::filesystem::directory_iterator(dir)) {
    (void)e;
    ++remaining;
  }
  EXPECT_LE(remaining, 1u);
  std::filesystem::remove_all(dir);
}

TEST(PassCacheTest, NoLimitMeansNoEviction) {
  std::string dir = tempDir("evict-off");
  PassResultCache cache(dir);
  std::string ir = "func\n";
  cache.store(hashBytes("in"), "cse", ir);
  auto ev = cache.evictToDiskLimit();
  EXPECT_EQ(ev.filesRemoved, 0u);
  size_t remaining = 0;
  for (const auto &e : std::filesystem::directory_iterator(dir)) {
    (void)e;
    ++remaining;
  }
  EXPECT_EQ(remaining, 1u);
  std::filesystem::remove_all(dir);
}

//===----------------------------------------------------------------------===//
// Non-finite / denormal float attributes through a cache round trip
//===----------------------------------------------------------------------===//

TEST(PassCacheTest, NonFiniteAttrsSurviveCacheReplay) {
  // Every printable double edge case the printer emits special spellings
  // for: ±inf, nan, -nan, signed zero, and a denormal (whose spelling
  // used to crash replay — std::stod raises out_of_range on 4.9e-324).
  const char *src = R"(module {
  func {sym_name = "edge", res_types = []} {
    [%0: memref<?xf64>, %1: index]:
    %2 = const.float {value = inf} : f64
    %3 = const.float {value = -inf} : f64
    %4 = const.float {value = nan} : f64
    %5 = const.float {value = -nan} : f64
    %6 = const.float {value = -0.0} : f64
    %7 = const.float {value = 4.9406564584124654e-324} : f64
    memref.store(%2, %0, %1)
    memref.store(%3, %0, %1)
    memref.store(%4, %0, %1)
    memref.store(%5, %0, %1)
    memref.store(%6, %0, %1)
    memref.store(%7, %0, %1)
    return
  }
})";
  const std::string pipeline = "canonicalize,cse";
  OwnedModule reference = parseOk(src);
  DiagnosticEngine refDiag;
  ASSERT_TRUE(runPassPipeline(reference.get(), pipeline, refDiag))
      << refDiag.str();
  std::string golden = printOp(reference.op());

  std::string dir = tempDir("nonfinite");
  {
    PassResultCache cache(dir);
    OwnedModule m = parseOk(src);
    EXPECT_EQ(runCached(m.get(), pipeline, &cache), golden);
  }
  // Fresh cache instance over the same dir: the replay must re-parse the
  // stored text (which spells inf/nan/-0.0/denormals) instead of failing
  // with "cached IR failed to re-parse" — or crashing.
  {
    PassResultCache cache(dir);
    OwnedModule m = parseOk(src);
    EXPECT_EQ(runCached(m.get(), pipeline, &cache), golden);
    auto s = cache.stats();
    EXPECT_EQ(s.misses, 0u);
    EXPECT_EQ(s.passesExecuted, 0u);
  }
  std::filesystem::remove_all(dir);
}

//===----------------------------------------------------------------------===//
// Key determinism across cache instances (structural-hash guarantee)
//===----------------------------------------------------------------------===//

TEST(PassCacheTest, KeysDeterministicAcrossCacheInstances) {
  // Fresh cache instance + fresh module objects over one disk dir models
  // a second process: every key must reproduce exactly (no pointer or
  // iteration-order input), so the second run reports zero misses and
  // zero executed passes. The pipeline mixes a module pass (inline),
  // function passes and a repeat composite.
  const char *src = kCallerCalleeModule;
  const std::string pipeline =
      "inline,repeat{n=2}(canonicalize,cse),unroll{max-trip=4}";
  std::string dir = tempDir("determinism");
  std::string first;
  {
    PassResultCache cache(dir);
    OwnedModule m = parseOk(src);
    first = runCached(m.get(), pipeline, &cache);
    EXPECT_GT(cache.stats().stores, 0u);
  }
  {
    PassResultCache cache(dir);
    OwnedModule m = parseOk(src);
    EXPECT_EQ(runCached(m.get(), pipeline, &cache), first);
    auto s = cache.stats();
    EXPECT_EQ(s.misses, 0u) << "a cache key failed to reproduce";
    EXPECT_EQ(s.passesExecuted, 0u);
    EXPECT_EQ(s.hits, s.diskHits) << "all hits must come from disk";
  }
  std::filesystem::remove_all(dir);
}

TEST(PassCacheTest, WarmReplayParsesTheModuleOnce) {
  // A warm run replays the pipeline without running a pass: its one hit
  // is parsed into the module once, so the module's arena grows by
  // exactly the bytes one parse of the final printed module allocates.
  const std::string pipeline = "inline,canonicalize,cse";
  PassResultCache cache;
  OwnedModule cold = parseOk(kCallerCalleeModule);
  const std::string final = runCached(cold.get(), pipeline, &cache);

  OwnedModule probe = parseOk(kCallerCalleeModule);
  size_t probeStart = probe.arena().bytesAllocated();
  DiagnosticEngine probeDiag;
  Op *top = parseModuleInto(probe.arena(), final, probeDiag);
  ASSERT_NE(top, nullptr) << probeDiag.str();
  Op::destroy(top);
  size_t parseBytes = probe.arena().bytesAllocated() - probeStart;

  PassManager pm;
  DiagnosticEngine diag;
  ASSERT_TRUE(buildPipelineFromSpec(pm, pipeline, diag)) << diag.str();
  pm.setResultCache(&cache);
  OwnedModule warm = parseOk(kCallerCalleeModule);
  size_t warmStart = warm.arena().bytesAllocated();
  ASSERT_TRUE(pm.run(warm.get(), diag)) << diag.str();
  EXPECT_EQ(warm.arena().bytesAllocated() - warmStart, parseBytes);
  EXPECT_EQ(printOp(warm.op()), final);
  EXPECT_EQ(cache.stats().passesReplayed, 3u);
  EXPECT_EQ(cache.stats().passesExecuted, 3u); // the cold run's only
}

//===----------------------------------------------------------------------===//
// Mid-run disk eviction (long-lived sessions must not outgrow the limit)
//===----------------------------------------------------------------------===//

TEST(PassCacheTest, StoresSweepTheDiskLimitMidRun) {
  std::string dir = tempDir("midrun-evict");
  auto dirBytes = [&] {
    uint64_t total = 0;
    for (const auto &e : std::filesystem::directory_iterator(dir))
      total += std::filesystem::file_size(e.path());
    return total;
  };
  const uint64_t limit = 4096;
  uint64_t written = 0;
  {
    PassResultCache cache(dir);
    cache.setDiskLimitBytes(limit);
    // Far more entry bytes than the limit, without destroying the cache:
    // the store path itself must keep the directory bounded (~1.5x the
    // limit plus the writes since the last threshold crossing).
    for (int i = 0; i < 60; ++i) {
      std::string ir(400, 'a' + (i % 26));
      written += ir.size();
      cache.store(hashBytes("in" + std::to_string(i)), "canonicalize",
                  ir);
      EXPECT_LE(dirBytes(), 3 * limit) << "store " << i;
    }
    ASSERT_GT(written, 3 * limit) << "test must overflow the limit";
    size_t files = 0;
    for (const auto &e : std::filesystem::directory_iterator(dir)) {
      (void)e;
      ++files;
    }
    EXPECT_LT(files, 60u) << "no mid-run sweep ever ran";
  }
  std::filesystem::remove_all(dir);
}

//===----------------------------------------------------------------------===//
// Inspected runs
//===----------------------------------------------------------------------===//

TEST(PassCacheTest, InspectedRunExecutesEveryPassAndStores) {
  // A filtered IR printer watches only "cse". Over a warm cache the run
  // still makes no lookup: hooks must see every pass execute, so it runs
  // all three, prints the real post-cse module and stores its result
  // like any miss.
  const std::string pipeline = "canonicalize,cse,canonicalize";
  OwnedModule goldenModule = parseOk(twoFuncModule("2.0"));
  DiagnosticEngine goldenDiag;
  ASSERT_TRUE(runPassPipeline(goldenModule.get(), pipeline, goldenDiag));
  std::string golden = printOp(goldenModule.op());
  // The intermediate state the instrumentation should observe after cse.
  OwnedModule midModule = parseOk(twoFuncModule("2.0"));
  DiagnosticEngine midDiag;
  ASSERT_TRUE(runPassPipeline(midModule.get(), "canonicalize,cse", midDiag));
  std::string afterCse = printOp(midModule.op());

  PassResultCache cache;
  {
    OwnedModule m = parseOk(twoFuncModule("2.0"));
    EXPECT_EQ(runCached(m.get(), pipeline, &cache), golden);
  }
  cache.resetStats();

  std::FILE *capture = std::tmpfile();
  ASSERT_NE(capture, nullptr);
  PassManager pm;
  DiagnosticEngine diag;
  ASSERT_TRUE(buildPipelineFromSpec(pm, pipeline, diag)) << diag.str();
  pm.setResultCache(&cache);
  pm.enableIRPrinting(/*before=*/false, /*after=*/true, "cse", capture);
  OwnedModule m = parseOk(twoFuncModule("2.0"));
  ASSERT_TRUE(pm.run(m.get(), diag)) << diag.str();

  auto s = cache.stats();
  EXPECT_EQ(s.hits + s.misses, 0u);
  EXPECT_EQ(s.passesExecuted, 3u);
  EXPECT_EQ(s.passesReplayed, 0u);
  EXPECT_EQ(s.stores, 1u);
  EXPECT_EQ(printOp(m.op()), golden);
  std::fflush(capture);
  std::rewind(capture);
  std::string printed;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), capture)) > 0)
    printed.append(buf, n);
  std::fclose(capture);
  EXPECT_NE(printed.find("IR after pass 'cse'"), std::string::npos)
      << printed;
  EXPECT_NE(printed.find(afterCse), std::string::npos)
      << "instrumentation printed stale IR:\n"
      << printed;
}

//===----------------------------------------------------------------------===//
// Disk fault matrix: corruption and IO-pressure scenarios, injected via
// failpoints. The contract everywhere: a damaged or failing disk layer
// yields a miss (recompute, correct IR) or a clean demotion to
// memory-only — never a wrong replay, never a crash.
//===----------------------------------------------------------------------===//

namespace {

struct FailpointGuard {
  ~FailpointGuard() { paralift::failpoint::clearAll(); }
};

uint64_t counterVal(const std::string &name) {
  return paralift::metrics::MetricsRegistry::instance().counterValue(name);
}

} // namespace

TEST(DiskFaultTest, TruncatedEntryIsAMissNotWrongReplay) {
  std::string dir = tempDir("fault-trunc");
  const std::string pipeline = "canonicalize,cse";
  {
    PassResultCache cache(dir);
    OwnedModule m = parseOk(twoFuncModule("2.0"));
    runCached(m.get(), pipeline, &cache);
  }
  // Chop every entry in half: the header parses but the payload hash no
  // longer matches (or the payload is cut mid-record).
  for (auto &e : std::filesystem::directory_iterator(dir)) {
    auto size = std::filesystem::file_size(e.path());
    std::filesystem::resize_file(e.path(), size / 2);
  }
  {
    PassResultCache cache(dir);
    OwnedModule m = parseOk(twoFuncModule("2.0"));
    OwnedModule reference = parseOk(twoFuncModule("2.0"));
    DiagnosticEngine diag;
    ASSERT_TRUE(runPassPipeline(reference.get(), pipeline, diag));
    EXPECT_EQ(runCached(m.get(), pipeline, &cache), printOp(reference.op()));
    EXPECT_EQ(cache.stats().hits, 0u);
    // Corrupt *content* is a plain miss; only IO errors demote.
    EXPECT_FALSE(cache.diskDemoted());
  }
  std::filesystem::remove_all(dir);
}

TEST(DiskFaultTest, GarbageHeaderIsAMissNotWrongReplay) {
  const std::string pipeline = "canonicalize,cse";
  OwnedModule reference = parseOk(twoFuncModule("2.0"));
  DiagnosticEngine refDiag;
  ASSERT_TRUE(runPassPipeline(reference.get(), pipeline, refDiag));
  const std::string golden = printOp(reference.op());

  // Each input rewrites the header of every stored entry.
  struct Input {
    const char *name;
    std::function<std::string(const std::string &)> rewrite;
  };
  const Input inputs[] = {
      // The entry's size kept, its first line destroyed.
      {"garbage",
       [](const std::string &file) {
         return std::string(16, 'X') + file.substr(16);
       }},
      // First line rewritten to an older format's magic: v2 stored
      // per-function entries and module entries with a funcs line, v3 one
      // entry per pass step with an output hash line.
      {"v2 magic",
       [](const std::string &file) {
         return "paralift-pass-cache v2" + file.substr(file.find('\n'));
       }},
      {"v3 magic",
       [](const std::string &file) {
         return "paralift-pass-cache v3" + file.substr(file.find('\n'));
       }},
  };
  for (const Input &input : inputs) {
    std::string dir = tempDir("fault-header");
    {
      PassResultCache cache(dir);
      OwnedModule m = parseOk(twoFuncModule("2.0"));
      runCached(m.get(), pipeline, &cache);
    }
    for (auto &e : std::filesystem::directory_iterator(dir)) {
      std::ifstream in(e.path(), std::ios::binary);
      std::string file(std::istreambuf_iterator<char>(in), {});
      in.close();
      std::ofstream(e.path(), std::ios::binary | std::ios::trunc)
          << input.rewrite(file);
    }
    {
      PassResultCache cache(dir);
      OwnedModule m = parseOk(twoFuncModule("2.0"));
      EXPECT_EQ(runCached(m.get(), pipeline, &cache), golden) << input.name;
      EXPECT_EQ(cache.stats().hits, 0u) << input.name;
      EXPECT_EQ(cache.stats().passesExecuted, 2u) << input.name;
      EXPECT_FALSE(cache.diskDemoted()) << input.name;
    }
    std::filesystem::remove_all(dir);
  }
}

TEST(DiskFaultTest, PartialWriteIsCaughtOnReadBack) {
  FailpointGuard guard;
  std::string dir = tempDir("fault-partial");
  const std::string pipeline = "canonicalize,cse";
  std::string err;
  // Every store is cut short mid-write, as if the process died or the
  // filesystem lost the tail. The writer doesn't notice.
  ASSERT_TRUE(
      paralift::failpoint::configure("cache.disk.write=partial-write", &err))
      << err;
  {
    PassResultCache cache(dir);
    OwnedModule m = parseOk(twoFuncModule("2.0"));
    runCached(m.get(), pipeline, &cache);
    EXPECT_FALSE(cache.diskDemoted()); // a short write is not an IO error
  }
  paralift::failpoint::clearAll();
  // Read-back must reject every damaged entry: a miss and a correct
  // recompute, never a replay of the torn payload.
  {
    PassResultCache cache(dir);
    OwnedModule m = parseOk(twoFuncModule("2.0"));
    OwnedModule reference = parseOk(twoFuncModule("2.0"));
    DiagnosticEngine diag;
    ASSERT_TRUE(runPassPipeline(reference.get(), pipeline, diag));
    EXPECT_EQ(runCached(m.get(), pipeline, &cache), printOp(reference.op()));
    EXPECT_EQ(cache.stats().diskHits, 0u);
  }
  std::filesystem::remove_all(dir);
}

TEST(DiskFaultTest, WriteErrorsRetryThenDemoteToMemoryOnly) {
  FailpointGuard guard;
  std::string dir = tempDir("fault-enospc");
  std::string err;
  // Persistent write failure (ENOSPC-style): the first store retries
  // once, then the cache demotes itself to memory-only for good.
  ASSERT_TRUE(paralift::failpoint::configure("cache.disk.write=error", &err))
      << err;
  uint64_t disabledBefore = counterVal("cache.disk.disabled");
  PassResultCache cache(dir);
  OwnedModule m1 = parseOk(twoFuncModule("2.0"));
  std::string first = runCached(m1.get(), "canonicalize,cse", &cache);
  EXPECT_TRUE(cache.diskDemoted());
  EXPECT_EQ(counterVal("cache.disk.disabled"), disabledBefore + 1);
  // The memory tier is untouched: an identical module replays from it
  // with zero pass executions, and the IR still matches.
  uint64_t executedAfterFirst = cache.stats().passesExecuted;
  OwnedModule m2 = parseOk(twoFuncModule("2.0"));
  EXPECT_EQ(runCached(m2.get(), "canonicalize,cse", &cache), first);
  EXPECT_EQ(cache.stats().passesExecuted, executedAfterFirst);
  std::filesystem::remove_all(dir);
}

TEST(DiskFaultTest, ReadErrorsRetryThenDemoteToMemoryOnly) {
  FailpointGuard guard;
  std::string dir = tempDir("fault-readerr");
  const std::string pipeline = "canonicalize,cse";
  {
    PassResultCache cache(dir); // populate the directory fault-free
    OwnedModule m = parseOk(twoFuncModule("2.0"));
    runCached(m.get(), pipeline, &cache);
  }
  std::string err;
  ASSERT_TRUE(paralift::failpoint::configure("cache.disk.read=error", &err))
      << err;
  PassResultCache cache(dir);
  OwnedModule m = parseOk(twoFuncModule("2.0"));
  OwnedModule reference = parseOk(twoFuncModule("2.0"));
  DiagnosticEngine diag;
  ASSERT_TRUE(runPassPipeline(reference.get(), pipeline, diag));
  EXPECT_EQ(runCached(m.get(), pipeline, &cache), printOp(reference.op()));
  EXPECT_TRUE(cache.diskDemoted());
  EXPECT_EQ(cache.stats().diskHits, 0u);
  std::filesystem::remove_all(dir);
}

TEST(DiskFaultTest, EvictionRacingStoresIsSafe) {
  std::string dir = tempDir("fault-evict-race");
  const std::string pipeline = "canonicalize,cse";
  PassResultCache cache(dir);
  cache.setDiskLimitBytes(1); // every sweep wants to remove everything
  std::atomic<bool> stop{false};
  std::thread evictor([&] {
    while (!stop.load())
      cache.evictToDiskLimit();
  });
  // Stores race the sweeping evictor: each entry either lands and is
  // later evicted, or is gone by the time a lookup probes it — a miss,
  // never a torn replay or a crash.
  for (int i = 0; i < 16; ++i) {
    OwnedModule m =
        parseOk(twoFuncModule((std::to_string(i) + ".0").c_str()));
    OwnedModule reference =
        parseOk(twoFuncModule((std::to_string(i) + ".0").c_str()));
    DiagnosticEngine diag;
    ASSERT_TRUE(runPassPipeline(reference.get(), pipeline, diag));
    EXPECT_EQ(runCached(m.get(), pipeline, &cache), printOp(reference.op()));
  }
  stop.store(true);
  evictor.join();
  EXPECT_FALSE(cache.diskDemoted()); // eviction pressure is not an IO fault
  std::filesystem::remove_all(dir);
}
