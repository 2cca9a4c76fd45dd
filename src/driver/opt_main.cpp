// paralift-opt: the mlir-opt analogue for ParaLift IR. Reads textual IR
// files (or CUDA-subset files with --cuda), runs a pass pipeline through
// one CompilerSession, and prints the resulting IR of every module.
//
// Usage:
//   paralift-opt [file...] [--cuda] [--passes=PIPELINE] [--list-passes]
//                [--timing] [--stats] [--verify-each] [--verify-bytecode]
//                [--pm-threads=N]
//                [--cache-dir=DIR] [--cache-limit=MB]
//                [--no-pass-cache] [--cache-stats]
//                [--trace-json=FILE] [--metrics[=FILE]]
//                [--print-ir-before[=PASS]] [--print-ir-after[=PASS]]
//                [--job-timeout=SECONDS] [--failpoints=SPEC]
//
// --job-timeout=SECONDS arms a per-module compile deadline: a module
// that exceeds it fails with an attributed "deadline exceeded"
// diagnostic while the rest of the batch completes (exit stays nonzero).
// --failpoints=SPEC arms the deterministic fault-injection subsystem
// (support/failpoint.h; same grammar as $PARALIFT_FAILPOINTS), e.g.
// --failpoints='cache.disk.write=error;pass.run=throw:7,0.1'. Any
// failure a fault provokes is contained to the affected module.
// Infrastructure exceptions escaping the session entirely print a
// "paralift-opt: fatal:" line and exit 3 instead of aborting.
//
// PIPELINE is a comma-separated list of registered pass names, each with
// optional {key=value,...} parameters and (for repeat) a parenthesized
// child list. With no file, reads stdin. With no --passes, just
// parse/verify/print (round-trip mode). Multiple positional files compile
// as one batch session: --pm-threads=N spreads the files, not their
// functions, across one worker pool (each file's passes run on one
// thread, so a single file gains nothing from it), and all files share
// one pass-result cache — a file whose module another file already
// compiled through the same passes replays instead of re-running.
// Examples:
//   paralift-opt kernel.ir --passes=canonicalize,cse,barrier-elim
//   paralift-opt kernel.cu --cuda --passes='cpuify{mincut=false},omp-lower'
//   paralift-opt a.cu b.cu c.cu --cuda --pm-threads=4
//     --passes='repeat{until=fixpoint}(canonicalize,cse),cpuify,omp-lower'
//
// Batches schedule one task per file (each file parses, keys, and then
// replays or runs its whole pipeline on one task of the --pm-threads
// pool; every file's output is ready the moment its own task ends).
// --print-ir-before/after hook every (file, pass) step of those tasks;
// with either set the batch drains on one thread, file by file in
// command-line order, so the hook output is the same for every
// --pm-threads value. With either, or --verify-each, no file replays the
// cache: every pass executes under the hooks, and the result is stored.
//
// Pass results are cached persistently under --cache-dir (or
// $PARALIFT_CACHE_DIR when set), one entry per (file, pipeline):
// re-running an unchanged file through an unchanged pipeline replays the
// cached result instead of executing passes, while a file edited
// anywhere, or a pipeline changed in any pass option, re-runs every
// pass.
// --cache-limit=<MB> (or $PARALIFT_CACHE_LIMIT) bounds the on-disk store,
// sweeping oldest entries at exit. --no-pass-cache forces caching off;
// --cache-stats prints the hit/miss/replay counters to stderr.
//
// --verify-bytecode additionally lowers every successful module to VM
// bytecode and runs the static verifier (vm/verifier.h) over it: any
// structural or typestate violation is reported to stderr with
// (function, pc, opcode, reason) attribution and exits 1. Results feed
// the vm.verify.functions / vm.verify.errors counters, visible via
// --metrics. The pipeline must lower to VM-executable IR first (e.g.
// --cuda with cpuify,omp-lower or the default SIMT lowering).
//
// Observability: --trace-json=FILE records a Chrome trace_event JSON of
// the whole run (worker lanes, per-pass spans with cache-hit
// annotations, per-job async spans; load in Perfetto). --metrics prints
// the process-wide metrics snapshot (cache/scheduler/session/arena
// counters and latency histograms) to stderr; --metrics=FILE writes it
// as JSON instead. See the "Observability" section in driver/session.h.
#include "driver/compiler.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "ir/verifier.h"
#include "support/failpoint.h"
#include "support/metrics.h"
#include "transforms/registry.h"
#include "vm/compile.h"
#include "vm/verifier.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

using namespace paralift;

namespace {

int listPasses() {
  std::printf("Available passes:\n");
  for (const auto &p : transforms::passRegistry())
    std::printf("  %-22s %s\n", p.name.c_str(), p.description.c_str());
  return 0;
}

int usage(const char *argv0) {
  std::printf(
      "usage: %s [file...] [--cuda] [--passes=PIPELINE] [--list-passes]\n"
      "       [--timing] [--stats] [--verify-each] [--verify-bytecode]\n"
      "       [--pm-threads=N]\n"
      "       [--cache-dir=DIR] [--cache-limit=MB]\n"
      "       [--no-pass-cache] [--cache-stats]\n"
      "       [--trace-json=FILE] [--metrics[=FILE]]\n"
      "       [--print-ir-before[=PASS]] [--print-ir-after[=PASS]]\n"
      "       [--job-timeout=SECONDS] [--failpoints=SPEC]\n"
      "\n"
      "PIPELINE example: 'inline,repeat{n=2}(canonicalize,cse),\n"
      "                   unroll{max-trip=16},cpuify{mincut=false}'\n"
      "\n"
      "Multiple files compile as one batch session sharing the\n"
      "--pm-threads worker pool (which spreads files, not functions)\n"
      "and the pass-result cache. IR printing compiles the batch on one\n"
      "thread, in file order.\n",
      argv0);
  return 0;
}

std::string readInput(const std::string &path) {
  std::ostringstream buf;
  if (path.empty()) {
    buf << std::cin.rdbuf();
  } else {
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "error: cannot open '%s'\n", path.c_str());
      std::exit(2);
    }
    buf << in.rdbuf();
  }
  return buf.str();
}

/// Parses a strictly positive integer; -1 on junk.
long long parsePositive(const std::string &value) {
  try {
    size_t consumed = 0;
    long long n = std::stoll(value, &consumed);
    return consumed == value.size() ? n : -1;
  } catch (const std::exception &) {
    return -1;
  }
}

/// Parses a strictly positive double; -1 on junk.
double parsePositiveSeconds(const std::string &value) {
  try {
    size_t consumed = 0;
    double d = std::stod(value, &consumed);
    return (consumed == value.size() && d > 0) ? d : -1;
  } catch (const std::exception &) {
    return -1;
  }
}

int optMain(int argc, char **argv);

} // namespace

int main(int argc, char **argv) {
  // Top-level containment: per-job failures are already contained by the
  // session, so anything reaching here is infrastructure trouble
  // (bad_alloc, a filesystem surprise). Report and exit nonzero instead
  // of std::terminate's abort + core.
  try {
    return optMain(argc, argv);
  } catch (const std::exception &e) {
    std::fprintf(stderr, "paralift-opt: fatal: %s\n", e.what());
    return 3;
  } catch (...) {
    std::fprintf(stderr, "paralift-opt: fatal: non-standard exception\n");
    return 3;
  }
}

namespace {

int optMain(int argc, char **argv) {
  std::vector<std::string> paths;
  std::string passes;
  bool cuda = false;
  bool timing = false;
  bool stats = false;
  bool verifyEach = false;
  bool verifyBytecode = false;
  bool noPassCache = false;
  bool cacheStats = false;
  std::string traceJsonPath;
  bool metricsToStderr = false;
  std::string metricsJsonPath;
  std::string cacheDir;
  long long cacheLimitMB = 0;
  bool printBefore = false, printAfter = false;
  std::string printBeforeFilter, printAfterFilter;
  unsigned pmThreads = 1;
  double jobTimeoutSeconds = 0;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--list-passes")
      return listPasses();
    if (arg == "--cuda") {
      cuda = true;
    } else if (arg.rfind("--passes=", 0) == 0) {
      passes = arg.substr(9);
    } else if (arg == "--timing") {
      timing = true;
    } else if (arg == "--stats") {
      stats = true;
    } else if (arg == "--verify-each") {
      verifyEach = true;
    } else if (arg == "--verify-bytecode") {
      verifyBytecode = true;
    } else if (arg == "--no-pass-cache") {
      noPassCache = true;
    } else if (arg == "--cache-stats") {
      cacheStats = true;
    } else if (arg.rfind("--trace-json=", 0) == 0) {
      traceJsonPath = arg.substr(13);
      if (traceJsonPath.empty()) {
        std::fprintf(stderr, "error: --trace-json requires a path\n");
        return 2;
      }
    } else if (arg == "--metrics") {
      metricsToStderr = true;
    } else if (arg.rfind("--metrics=", 0) == 0) {
      metricsJsonPath = arg.substr(10);
      if (metricsJsonPath.empty()) {
        std::fprintf(stderr, "error: --metrics= requires a path\n");
        return 2;
      }
    } else if (arg.rfind("--cache-dir=", 0) == 0) {
      cacheDir = arg.substr(12);
      if (cacheDir.empty()) {
        std::fprintf(stderr, "error: --cache-dir requires a path\n");
        return 2;
      }
    } else if (arg.rfind("--cache-limit=", 0) == 0) {
      cacheLimitMB = parsePositive(arg.substr(14));
      if (cacheLimitMB < 1) {
        std::fprintf(stderr,
                     "error: invalid --cache-limit value '%s' (expected a "
                     "positive MB count)\n",
                     arg.substr(14).c_str());
        return 2;
      }
    } else if (arg == "--print-ir-before") {
      printBefore = true;
    } else if (arg.rfind("--print-ir-before=", 0) == 0) {
      printBefore = true;
      printBeforeFilter = arg.substr(18);
    } else if (arg == "--print-ir-after") {
      printAfter = true;
    } else if (arg.rfind("--print-ir-after=", 0) == 0) {
      printAfter = true;
      printAfterFilter = arg.substr(17);
    } else if (arg.rfind("--pm-threads=", 0) == 0) {
      // stoll accepts negatives and trailing junk; validate strictly.
      long long n = parsePositive(arg.substr(13));
      if (n < 1 || n > 1024) {
        std::fprintf(stderr,
                     "error: invalid --pm-threads value '%s' (expected "
                     "1..1024)\n",
                     arg.substr(13).c_str());
        return 2;
      }
      pmThreads = static_cast<unsigned>(n);
    } else if (arg.rfind("--job-timeout=", 0) == 0) {
      jobTimeoutSeconds = parsePositiveSeconds(arg.substr(14));
      if (jobTimeoutSeconds < 0) {
        std::fprintf(stderr,
                     "error: invalid --job-timeout value '%s' (expected a "
                     "positive seconds count)\n",
                     arg.substr(14).c_str());
        return 2;
      }
    } else if (arg.rfind("--failpoints=", 0) == 0) {
      std::string err;
      if (!failpoint::configure(arg.substr(13), &err)) {
        std::fprintf(stderr, "error: invalid --failpoints spec: %s\n",
                     err.c_str());
        return 2;
      }
    } else if (arg == "--help" || arg == "-h") {
      return usage(argv[0]);
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "error: unknown flag '%s'\n", arg.c_str());
      return 2;
    } else {
      paths.push_back(arg);
    }
  }

  // Validate the pipeline spec up front so a typo is one clean error, not
  // one per input file.
  {
    DiagnosticEngine specDiag;
    transforms::PassManager specCheck;
    if (!transforms::buildPipelineFromSpec(specCheck, passes, specDiag)) {
      std::fprintf(stderr, "%s", specDiag.str().c_str());
      return 1;
    }
  }

  driver::SessionOptions so;
  so.threads = pmThreads;
  so.jobTimeoutSeconds = jobTimeoutSeconds;
  so.verifyEach = verifyEach;
  so.collectTiming = timing;
  so.collectStatistics = stats;
  so.traceJsonPath = traceJsonPath;
  so.metricsToStderr = metricsToStderr;
  so.metricsJsonPath = metricsJsonPath;
  // --cuda inputs run the frontend, then device-function inlining (the
  // compileForSimt lowering), then the explicit pipeline.
  so.pipelineSpec = cuda ? (passes.empty() ? std::string("inline-kernels")
                                           : "inline-kernels," + passes)
                         : passes;
  // --cache-dir (or $PARALIFT_CACHE_DIR) enables the persistent
  // pass-result cache; --no-pass-cache wins over both. The env dir is
  // resolved here — not via the session's process-wide fallback — so
  // --cache-limit applies to it too.
  if (noPassCache) {
    so.useEnvCache = false;
    if (cacheLimitMB)
      std::fprintf(stderr, "warning: --cache-limit has no effect with "
                           "--no-pass-cache\n");
  } else {
    if (cacheDir.empty())
      if (const char *env = std::getenv("PARALIFT_CACHE_DIR"))
        cacheDir = env;
    so.cacheDir = cacheDir;
    so.cacheLimitMB = static_cast<uint64_t>(cacheLimitMB);
    if (cacheLimitMB && cacheDir.empty())
      std::fprintf(stderr,
                   "warning: --cache-limit has no effect without "
                   "--cache-dir (or $PARALIFT_CACHE_DIR)\n");
  }
  // IR printing hooks every (module, pass) step; the session then drains
  // the batch on this thread, so modules print whole and in file order.
  if (printBefore || printAfter)
    so.configurePassManager = [&](transforms::PassManager &pm) {
      // Separate instrumentations: the before/after filters are
      // independent.
      if (printBefore)
        pm.enableIRPrinting(/*before=*/true, /*after=*/false,
                            printBeforeFilter);
      if (printAfter)
        pm.enableIRPrinting(/*before=*/false, /*after=*/true,
                            printAfterFilter);
    };

  driver::CompilerSession session(std::move(so));

  // Queue every input. With no file, stdin is the single input.
  if (paths.empty())
    paths.push_back("");
  std::vector<driver::CompileJob *> jobs;
  for (const std::string &path : paths) {
    std::string input = readInput(path);
    // Single-file output keeps the historic unprefixed diagnostic format
    // (scripts match on it); batches need the per-module attribution.
    std::string name = paths.size() > 1
                           ? (path.empty() ? std::string("<stdin>") : path)
                           : std::string();
    if (cuda) {
      jobs.push_back(&session.addSource(name, std::move(input)));
    } else {
      DiagnosticEngine parseDiag;
      parseDiag.setModuleName(name);
      auto parsed = ir::parseModule(input, parseDiag);
      if (!parsed) {
        std::fprintf(stderr, "%s", parseDiag.str().c_str());
        return 1;
      }
      jobs.push_back(&session.addModule(name, std::move(*parsed)));
    }
  }

  session.compileAll();

  if (timing)
    std::fprintf(stderr, "%s", session.timingReport().str().c_str());
  if (stats)
    std::fprintf(stderr, "%s", session.statisticsStr().c_str());
  if (cacheStats) {
    if (session.cache())
      std::fprintf(stderr, "%s\n", session.cache()->statsStr().c_str());
    else
      std::fprintf(stderr, "pass-cache: disabled\n");
  }

  int rc = 0;
  if (verifyBytecode) {
    // Touch the counters up front so a clean run still reports
    // "vm.verify.errors": 0 in the --metrics snapshot.
    metrics::MetricsRegistry::instance().counter("vm.verify.functions");
    metrics::MetricsRegistry::instance().counter("vm.verify.errors");
    for (driver::CompileJob *job : jobs) {
      if (!job->ok())
        continue; // reported below
      vm::BCModule bc = vm::compileModule(job->result().module.get());
      vm::VerifyResult vr = vm::verifyModule(bc);
      if (!vr.ok()) {
        const char *name =
            job->name().empty() ? "<stdin>" : job->name().c_str();
        std::fprintf(stderr, "%s: bytecode verification failed:\n%s", name,
                     vr.str().c_str());
        rc = 1;
      }
    }
  }
  for (driver::CompileJob *job : jobs) {
    // Never print invalid IR: the session verified the final module
    // (via --verify-each or the end-of-pipeline check, including for
    // zero-pass round-trip runs), so a failed job only reports.
    if (!job->ok()) {
      std::fprintf(stderr, "%s", job->diagnostics().str().c_str());
      rc = 1;
      continue;
    }
    // Successful jobs may still carry warnings (e.g. a fixpoint repeat
    // hitting its round cap); surface them instead of dropping them.
    if (!job->diagnostics().diagnostics().empty())
      std::fprintf(stderr, "%s", job->diagnostics().str().c_str());
    if (jobs.size() > 1)
      std::printf("// ===== module %s =====\n", job->name().c_str());
    std::fputs(ir::printOp(job->result().module.op()).c_str(), stdout);
    std::fputc('\n', stdout);
  }
  return rc;
}

} // namespace
