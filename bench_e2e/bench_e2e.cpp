// bench_e2e: how long a CUDA source takes to become a verified, executed
// result, end to end and layer by layer.
//
//   bench_e2e --workload NAME --seed N --seconds S --trace 0|1
//             [--json FILE] [--trace-file FILE]
//   bench_e2e --smoke
//
// One run executes one workload (see workloads.h and README.md) in this
// process with T = min(4, nproc) workers, checks every output, and
// prints every metric as "name value unit". The last line of stdout is
// one JSON object: {"correct", "attempted", "failed", "metrics"}, where
// metrics holds the end-to-end metrics, or with --trace 1 the per-layer
// metrics and a Chrome trace is written. --json also writes the full
// result (all lines, the hardware/build stamp) to FILE. --smoke runs
// every workload for about a second, untraced and traced, and exits
// non-zero on any failure.
#include "workloads.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <malloc.h>
#include <sched.h>
#include <stdexcept>
#include <thread>
#include <unistd.h>

using namespace paralift;
using namespace paralift::e2e;

namespace {

#ifndef BENCH_GIT_COMMIT
#define BENCH_GIT_COMMIT "unknown"
#endif
#ifndef BENCH_BUILD_TYPE
#define BENCH_BUILD_TYPE "unknown"
#endif

const std::vector<std::pair<const char *,
                            std::function<void(const RunConfig &, Report &)>>>
    kWorkloads = {
        {"rodinia-exec", runRodiniaExec},
        {"rodinia-compile-cold",
         [](const RunConfig &c, Report &r) { runCompile(c, r, false); }},
        {"rodinia-compile-warm",
         [](const RunConfig &c, Report &r) { runCompile(c, r, true); }},
        {"resnet-train", runResnetTrain},
};

/// Variables the library reads that would change what is measured: a
/// process-wide pass cache (moccuda's kernel session honours it), an
/// exit-time trace, injected faults, per-emit bytecode verification and
/// debug dumps.
const char *kLibraryEnv[] = {
    "PARALIFT_CACHE_DIR",   "PARALIFT_CACHE_LIMIT",
    "PARALIFT_CACHE_STATS", "PARALIFT_TRACE",
    "PARALIFT_FAILPOINTS",  "PARALIFT_VERIFY_BYTECODE",
    "PARALIFT_DEBUG_CPUIFY"};

unsigned onlineCpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0)
    return static_cast<unsigned>(CPU_COUNT(&set));
  return std::max(1u, std::thread::hardware_concurrency());
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool traced = false;
  bool smoke = false;
  std::string jsonPath, traceFile, envCleared;
};

Args parseArgs(int argc, char **argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i], value;
    if (key == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (size_t eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      throw std::invalid_argument("missing value for " + key);
    }
    if (key == "--workload")
      a.workload = value;
    else if (key == "--seed")
      a.seed = std::stoull(value);
    else if (key == "--seconds")
      a.seconds = std::stod(value);
    else if (key == "--trace")
      a.traced = value == "1";
    else if (key == "--json")
      a.jsonPath = value;
    else if (key == "--trace-file")
      a.traceFile = value;
    else if (key == "--env-cleared")
      a.envCleared = value;
    else
      throw std::invalid_argument("unknown option " + key);
  }
  if (!a.smoke && a.workload.empty())
    throw std::invalid_argument("--workload is required");
  if (!(a.seconds > 0))
    throw std::invalid_argument("--seconds must be positive");
  return a;
}

std::string stampJson(unsigned T, const std::string &envCleared) {
  std::string s = "{\"nproc\": " + std::to_string(onlineCpus()) +
                  ", \"threads\": " + std::to_string(T) +
                  ", \"compiler\": " + jsonString(__VERSION__) +
                  ", \"build_type\": " + jsonString(BENCH_BUILD_TYPE) +
#ifdef NDEBUG
                  ", \"ndebug\": true" +
#else
                  ", \"ndebug\": false" +
#endif
                  ", \"git_commit\": " + jsonString(BENCH_GIT_COMMIT) +
                  ", \"env_cleared\": " + jsonString(envCleared) + "}";
  return s;
}

std::string metricsJson(const std::vector<Metric> &ms) {
  std::string s = "{";
  for (size_t i = 0; i < ms.size(); ++i)
    s += (i ? ", " : "") + jsonString(ms[i].name) + ": {\"value\": " +
         jsonNumber(ms[i].value) + ", \"unit\": " + jsonString(ms[i].unit) +
         "}";
  return s + "}";
}

/// Runs one workload and returns its report; throws when the workload
/// cannot run at all (a failed set-up compile, an unknown name).
Report runWorkload(const std::string &name, const RunConfig &cfg) {
  for (const auto &[wname, fn] : kWorkloads)
    if (name == wname) {
      Report report;
      fn(cfg, report);
      for (const auto &m : cfg.traced ? report.layers : report.e2e)
        if (!std::isfinite(m.value))
          throw std::runtime_error("metric " + m.name + " is not finite");
      return report;
    }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

void printErrors(const Report &r) {
  for (const auto &e : r.errors)
    std::fprintf(stderr, "bench_e2e: FAILED %s\n", e.c_str());
}

int smoke(const RunConfig &base) {
  int bad = 0;
  for (const auto &entry : kWorkloads)
    for (bool traced : {false, true}) {
      RunConfig cfg = base;
      cfg.seconds = 1;
      cfg.smoke = true;
      cfg.traced = traced;
      Report r = runWorkload(entry.first, cfg);
      printErrors(r);
      std::printf("smoke %s%s attempted %llu failed %llu\n", entry.first,
                  traced ? " (traced)" : "",
                  static_cast<unsigned long long>(r.attempted),
                  static_cast<unsigned long long>(r.failed));
      bad += r.failed > 0 || r.attempted == 0;
    }
  return bad ? 1 : 0;
}

} // namespace

int main(int argc, char **argv) {
  // Static initializers have already read some of these, so a set one
  // means running again in a clean environment.
  std::string cleared;
  for (const char *name : kLibraryEnv)
    if (std::getenv(name)) {
      cleared += cleared.empty() ? "" : ",";
      cleared += name;
      unsetenv(name);
    }
  if (!cleared.empty()) {
    std::string flag = "--env-cleared=" + cleared;
    std::vector<char *> args(argv, argv + argc);
    args.push_back(flag.data());
    args.push_back(nullptr);
    execv("/proc/self/exe", args.data());
    std::perror("bench_e2e: re-exec in a clean environment");
    return 2;
  }

  // glibc raises its mmap threshold, and with it the trim threshold, the
  // first time a large block is freed, so how much freed memory the
  // process keeps, and its peak RSS, would depend on which thread freed
  // first. A fixed threshold turns that rule off: blocks below 32 MB come
  // from the heap, and freed heap tops go back to the OS.
  if (!mallopt(M_MMAP_THRESHOLD, 32 << 20))
    std::fprintf(stderr, "bench_e2e: could not fix the mmap threshold\n");

  try {
    Args args = parseArgs(argc, argv);
    RunConfig cfg;
    cfg.seed = args.seed;
    cfg.seconds = args.seconds;
    cfg.traced = args.traced;
    cfg.threads = std::min(4u, onlineCpus());
    cfg.workDir = std::filesystem::canonical("/proc/self/exe").parent_path();
    std::string stamp = stampJson(cfg.threads, args.envCleared);
    std::fprintf(stderr, "bench_e2e: stamp %s\n", stamp.c_str());
    if (args.smoke)
      return smoke(cfg);

    Report r = runWorkload(args.workload, cfg);
    printErrors(r);
    if (cfg.traced) {
      std::string path = args.traceFile.empty()
                             ? (cfg.workDir / ("trace-" + args.workload +
                                               ".json"))
                                   .string()
                             : args.traceFile;
      if (!trace::writeJson(path))
        throw std::runtime_error("cannot write trace " + path);
      std::fprintf(stderr, "bench_e2e: trace written to %s\n", path.c_str());
    }

    const std::vector<Metric> &listed = cfg.traced ? r.layers : r.e2e;
    for (const auto &list : {listed, r.details})
      for (const Metric &m : list)
        std::printf("%s %s %s\n", m.name.c_str(), jsonNumber(m.value).c_str(),
                    m.unit.c_str());
    std::printf("attempted %llu count\nfailed %llu count\n",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed));
    std::string counts = "\"correct\": " +
                         std::string(r.failed == 0 ? "true" : "false") +
                         ", \"attempted\": " + std::to_string(r.attempted) +
                         ", \"failed\": " + std::to_string(r.failed);
    if (!args.jsonPath.empty()) {
      std::ofstream out(args.jsonPath);
      out << "{\"workload\": " << jsonString(args.workload)
          << ", \"seed\": " << args.seed
          << ", \"seconds\": " << jsonNumber(args.seconds)
          << ", \"traced\": " << (cfg.traced ? "true" : "false")
          << ", \"stamp\": " << stamp << ", " << counts
          << ", \"metrics\": " << metricsJson(listed)
          << ", \"detail\": " << metricsJson(r.details) << "}\n";
      if (!out)
        throw std::runtime_error("cannot write " + args.jsonPath);
    }
    std::printf("{%s, \"metrics\": %s}\n", counts.c_str(),
                metricsJson(listed).c_str());
    return 0;
  } catch (const std::exception &e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 1;
  }
}
