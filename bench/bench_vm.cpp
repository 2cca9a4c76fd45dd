// VM-tier benchmark (ROADMAP "Hardened + faster VM tier" tracking file):
// suite-execution wall time of the bytecode interpreter under its two
// configurations, both built from the static verifier's VerifiedModule
// token (vm/verifier.h):
//
//   checked       - boundsCheck on: per-access data-dependent index
//                   checks, the untrusted-input configuration
//   verified-fast - boundsCheck off: every check statically discharged,
//                   the trusted-run fast path
//
// Plus a one-time cost row: verifying the whole suite's bytecode, timed
// over kVerifyReps runs and reported as median with quartiles.
//
// --json=FILE emits BENCH_vm.json with per-benchmark and suite-total
// rows so the trajectory is tracked across PRs.
#include "bench_common.h"

#include "support/metrics.h"
#include "vm/compile.h"
#include "vm/interp.h"
#include "vm/verifier.h"

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

using namespace paralift;
using namespace paralift::bench;

namespace {

constexpr int kScale = 8;
constexpr unsigned kThreads = 2;
constexpr int kReps = 7;
constexpr int kVerifyReps = 15;

/// The Executor::run argument conversion, against an explicit Interp so
/// both configurations drive the same bytecode.
struct BenchRow {
  std::string id;
  double checked = 0;
  double verifiedFast = 0;
};

struct VerifyCost {
  double median = 0, q1 = 0, q3 = 0, min = 0;
  uint64_t functions = 0; ///< per verification of the whole suite
  uint64_t blocks = 0;    ///< leader states stored, per verification
  uint64_t errors = 0;
};

/// Times both configurations with their reps interleaved (alternating
/// order each rep) so slow machine drift lands on both equally instead
/// of biasing whichever was timed last.
void timeConfigs(const rodinia::Benchmark &b, vm::Interp *interps[2],
                 double out[2]) {
  std::vector<double> times[2];
  for (int r = 0; r < kReps; ++r) {
    for (int k = 0; k < 2; ++k) {
      int c = (r + k) % 2;
      rodinia::Workload w = b.makeWorkload(kScale);
      vm::Arena descs;
      std::vector<vm::Slot> slots =
          driver::Executor::marshal(w.args(), descs);
      double t0 = now();
      interps[c]->call("run", std::move(slots));
      times[c].push_back(now() - t0);
    }
  }
  for (int c = 0; c < 2; ++c) {
    std::sort(times[c].begin(), times[c].end());
    out[c] = times[c][times[c].size() / 2];
  }
}

} // namespace

int main(int argc, char **argv) {
  std::string jsonPath;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--json=", 0) == 0)
      jsonPath = arg.substr(7);
  }

  // Compile the whole suite once (full pipeline, shared batch session,
  // no env cache) and lower each module to bytecode.
  SuiteSession suite = compileSuiteSession(transforms::PipelineOptions{});
  std::vector<std::optional<vm::BCModule>> bytecodes;
  for (driver::CompileJob *job : suite.jobs)
    bytecodes.push_back(job ? std::optional<vm::BCModule>(vm::compileModule(
                                  job->result().module.get()))
                            : std::nullopt);

  // One-time verification cost over the whole suite's bytecode.
  auto &reg = metrics::MetricsRegistry::instance();
  uint64_t fns0 = reg.counterValue("vm.verify.functions");
  uint64_t blocks0 = reg.counterValue("vm.verify.blocks");
  uint64_t errs0 = reg.counterValue("vm.verify.errors");
  std::vector<double> verifyTimes;
  for (int r = 0; r < kVerifyReps; ++r) {
    double t0 = now();
    for (const auto &bc : bytecodes)
      if (bc) {
        vm::VerifyResult res = vm::verifyModule(*bc);
        if (!res.ok())
          std::fprintf(stderr, "UNEXPECTED verify failure:\n%s",
                       res.str().c_str());
      }
    verifyTimes.push_back(now() - t0);
  }
  std::sort(verifyTimes.begin(), verifyTimes.end());
  VerifyCost vc;
  vc.min = verifyTimes.front();
  vc.q1 = verifyTimes[kVerifyReps / 4];
  vc.median = verifyTimes[kVerifyReps / 2];
  vc.q3 = verifyTimes[3 * kVerifyReps / 4];
  vc.functions = (reg.counterValue("vm.verify.functions") - fns0) / kVerifyReps;
  vc.blocks = (reg.counterValue("vm.verify.blocks") - blocks0) / kVerifyReps;
  vc.errors = reg.counterValue("vm.verify.errors") - errs0;

  std::printf("=== Bytecode verification (whole suite, %d reps, %u hardware "
              "threads) ===\n\n",
              kVerifyReps, std::thread::hardware_concurrency());
  std::printf("  verify wall      : %10.6f s median [q1 %.6f, q3 %.6f, min "
              "%.6f]\n",
              vc.median, vc.q1, vc.q3, vc.min);
  std::printf("  per verification : %llu functions, %llu leader states, "
              "%llu errors in total\n",
              static_cast<unsigned long long>(vc.functions),
              static_cast<unsigned long long>(vc.blocks),
              static_cast<unsigned long long>(vc.errors));

  std::printf("\n=== Suite execution wall (seconds, scale=%d, threads=%u, "
              "median of %d) ===\n\n",
              kScale, kThreads, kReps);
  std::printf("%-28s%14s%16s\n", "benchmark", "checked", "verified-fast");

  std::vector<BenchRow> rows;
  double totChecked = 0, totVerified = 0;
  size_t idx = 0;
  for (const auto &b : rodinia::suite()) {
    size_t i = idx++;
    if (!bytecodes[i])
      continue;
    const vm::BCModule &bc = *bytecodes[i];
    std::optional<vm::VerifiedModule> token = vm::VerifiedModule::create(bc);
    if (!token) {
      std::fprintf(stderr, "verify failed for %s; skipping\n", b.id.c_str());
      continue;
    }
    runtime::ThreadPool pool(std::max(kThreads, 8u));
    pool.setNumThreads(kThreads);

    vm::ExecOptions checkedOpts;
    checkedOpts.boundsCheck = true;
    vm::Interp checked(*token, pool, checkedOpts);
    vm::ExecOptions fastOpts;
    fastOpts.boundsCheck = false;
    vm::Interp verifiedFast(*token, pool, fastOpts);

    BenchRow row;
    row.id = b.id;
    vm::Interp *interps[2] = {&checked, &verifiedFast};
    double t[2];
    timeConfigs(b, interps, t);
    row.checked = t[0];
    row.verifiedFast = t[1];
    totChecked += row.checked;
    totVerified += row.verifiedFast;
    std::printf("%-28s%14.6f%16.6f\n", b.id.c_str(), row.checked,
                row.verifiedFast);
    rows.push_back(std::move(row));
  }
  std::printf("%-28s%14.6f%16.6f\n", "TOTAL", totChecked, totVerified);
  std::printf("\n  checked / verified-fast : %.3fx\n",
              totVerified > 0 ? totChecked / totVerified : 0.0);

  if (!jsonPath.empty()) {
    std::FILE *f = std::fopen(jsonPath.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "bench_vm: cannot write '%s'\n", jsonPath.c_str());
      return 1;
    }
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"bench\": \"vm\",\n");
    std::fprintf(f, "  \"suite\": \"rodinia\",\n");
    std::fprintf(f, "  \"modules\": %zu,\n", rodinia::suite().size());
    std::fprintf(f, "  \"scale\": %d,\n", kScale);
    std::fprintf(f, "  \"threads\": %u,\n", kThreads);
    std::fprintf(f,
                 "  \"verify\": {\"reps\": %d, \"hardware_threads\": %u, "
                 "\"wall_s\": %.6f, \"q1_s\": %.6f, \"q3_s\": %.6f, "
                 "\"min_s\": %.6f, \"functions\": %llu, "
                 "\"leader_states\": %llu, \"errors\": %llu},\n",
                 kVerifyReps, std::thread::hardware_concurrency(), vc.median,
                 vc.q1, vc.q3, vc.min,
                 static_cast<unsigned long long>(vc.functions),
                 static_cast<unsigned long long>(vc.blocks),
                 static_cast<unsigned long long>(vc.errors));
    std::fprintf(f, "  \"execution\": [\n");
    for (size_t i = 0; i < rows.size(); ++i)
      std::fprintf(f,
                   "    {\"benchmark\": \"%s\", \"checked_s\": %.6f, "
                   "\"verified_fast_s\": %.6f}%s\n",
                   rows[i].id.c_str(), rows[i].checked, rows[i].verifiedFast,
                   i + 1 < rows.size() ? "," : "");
    std::fprintf(f, "  ],\n");
    std::fprintf(f,
                 "  \"suite_total\": {\"checked_s\": %.6f, "
                 "\"verified_fast_s\": %.6f, "
                 "\"checked_over_verified_fast\": %.3f}\n",
                 totChecked, totVerified,
                 totVerified > 0 ? totChecked / totVerified : 0.0);
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("\nwrote %s\n", jsonPath.c_str());
  }
  return 0;
}
