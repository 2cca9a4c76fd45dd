// rodinia-exec: the paper's Fig. 13 claim. Every benchmark's CUDA
// source, transpiled through the full pipeline (inner loops serialized),
// runs against its hand-written OpenMP reference on the same VM and
// team size; CUDA and OpenMP calls alternate in a seeded order. Compile
// happens only in set-up, so the timed loop is the VM interpreter and
// the runtime's thread team.
#include "workloads.h"

#include "frontend/irgen.h"

#include <map>
#include <memory>
#include <stdexcept>

namespace paralift::e2e {
namespace {

/// Problem scale per benchmark, chosen so one transpiled call takes
/// about 5-10 ms on four threads: long enough that starting the team is
/// a small part of it, short enough for 50 rounds of all 32 programs in
/// one run.
const std::map<std::string, int> kScales = {
    {"btree_findk", 32},           {"btree_findrangek", 20},
    {"bfs", 12},                   {"backprop_layerforward", 8},
    {"backprop_adjust_weights", 20}, {"cfd", 40},
    {"myocyte", 32},               {"particlefilter_float", 48},
    {"streamcluster", 48},         {"hotspot", 16},
    {"hotspot3d", 32},             {"pathfinder", 24},
    {"lud", 4},                    {"nw", 10},
    {"srad_v1", 12},               {"srad_v2", 24}};

int scaleOf(const rodinia::Benchmark &b) {
  auto it = kScales.find(b.id);
  return it == kScales.end() ? 1 : it->second;
}

/// One compiled program (a transpiled CUDA source or an OpenMP
/// reference) with its input, ready to run again and again.
struct Program {
  const rodinia::Benchmark *bench;
  bool cuda;
  driver::Executor *exec;
  rodinia::Workload work;
  BufferImage input;

  Program(const rodinia::Benchmark &b, bool cuda, driver::Executor *exec,
          int scale)
      : bench(&b), cuda(cuda), exec(exec), work(b.makeWorkload(scale)),
        input(snapshotBuffers(work)) {}
};

using Executors = std::vector<std::unique_ptr<driver::Executor>>;

/// The system's set-up: every benchmark's CUDA source through each of
/// `cudaVariants` (and its OpenMP reference when `withOpenmp`) compiled
/// in one session, then one executor each (bytecode lowering,
/// verification and the executor's team), in suite order. A traced
/// `clock` splits it into those stages, with the frontend run ahead of
/// the session so it is timed on its own.
Executors setUp(const std::vector<PipelineVariant> &cudaVariants,
                bool withOpenmp, unsigned threads, LayerClock *clock) {
  LayerClock::Span op(clock, Layer::Native, "setup");
  driver::CompilerSession session(sessionOptions(threads));
  std::vector<driver::CompileJob *> jobs;
  std::vector<bool> innerSerialize;
  auto add = [&](const std::string &name, const char *src,
                 const transforms::PipelineOptions &opts) {
    innerSerialize.push_back(opts.innerSerialize);
    if (!clock) {
      jobs.push_back(&session.addSource(name, src, opts));
      return;
    }
    DiagnosticEngine diag;
    ir::OwnedModule module;
    {
      LayerClock::Span s(clock, Layer::Frontend, "frontend:" + name);
      module = frontend::compileToIR(src, diag);
    }
    if (diag.hasErrors())
      throw std::runtime_error("frontend failed for " + name + ":\n" +
                               diag.str());
    jobs.push_back(&session.addModule(name, std::move(module), opts));
  };
  for (const auto &b : rodinia::suite()) {
    for (const auto &v : cudaVariants)
      add(b.id + "/" + v.name, b.cudaSource, v.opts);
    if (withOpenmp)
      add(b.id + "/omp", b.openmpSource, {});
  }
  {
    LayerClock::Span s(clock, Layer::Pm, "compileAll");
    session.compileAll();
  }
  Executors execs;
  for (size_t i = 0; i < jobs.size(); ++i) {
    if (!jobs[i]->ok())
      throw std::runtime_error("compile failed for " + jobs[i]->name() +
                               ":\n" + jobs[i]->diagnostics().str());
    LayerClock::Span s(clock, Layer::VmLower, "executor:" + jobs[i]->name());
    execs.push_back(std::make_unique<driver::Executor>(
        jobs[i]->result().module.get(), threads, /*boundsCheck=*/false));
    execs.back()->setNestedPolicy(innerSerialize[i]
                                      ? runtime::NestedPolicy::Serialize
                                      : runtime::NestedPolicy::Spawn);
  }
  return execs;
}

/// Runs `p` once on its restored input and checks the output: a CUDA
/// result against the SIMT oracle, an OpenMP result for finiteness.
/// Returns the call's seconds.
double runOnce(Program &p, const BufferImage &oracle, Report &report,
               LayerClock *clock) {
  restoreBuffers(p.work, p.input);
  vm::CallResult r;
  double t;
  {
    LayerClock::Span op(clock, Layer::Native, "call:" + p.bench->id);
    LayerClock::Span exec(clock, Layer::VmExec, "exec:" + p.bench->id);
    double t0 = now();
    r = p.exec->tryRun("run", p.work.args());
    t = now() - t0;
  }
  std::string err = !r.ok()  ? "trap: " + r.error
                    : p.cuda ? compareOutputs(p.work, oracle)
                    : outputsFinite(p.work) ? ""
                                            : "non-finite output";
  report.record(err.empty(), p.bench->id + (p.cuda ? "/cuda: " : "/omp: ") +
                                 err);
  return t;
}

const std::vector<PipelineVariant> &fullPipeline() {
  static const std::vector<PipelineVariant> v = {
      {"cuda", transforms::PipelineOptions{}}};
  return v;
}

/// Fig. 13 (left): OptDisabled, and OptDisabled with one optimization
/// turned back on. The first entry is the baseline.
std::vector<PipelineVariant> ablationVariants() {
  using transforms::PipelineOptions;
  std::vector<PipelineVariant> v = {{"optdisabled",
                                     PipelineOptions::optDisabled()}};
  auto with = [&](const char *name, bool PipelineOptions::*flag) {
    PipelineOptions o = PipelineOptions::optDisabled();
    o.*flag = true;
    v.push_back({name, o});
  };
  with("mincut", &PipelineOptions::minCut);
  with("motion", &PipelineOptions::barrierMotion);
  with("openmpopt", &PipelineOptions::openmpOpt);
  with("affine", &PipelineOptions::affineOpts);
  with("innerser", &PipelineOptions::innerSerialize);
  return v;
}

} // namespace

void runRodiniaExec(const RunConfig &cfg, Report &report) {
  const auto &suite = rodinia::suite();
  const unsigned T = cfg.threads;

  Executors execs;
  double setupSeconds = medianSetup(cfg.setupReps(9), [&] {
    execs.clear();
    double t0 = now();
    execs = setUp(fullPipeline(), true, T, nullptr);
    return now() - t0;
  });

  std::vector<int> scales;
  for (const auto &b : suite)
    scales.push_back(scaleOf(b));
  std::vector<BufferImage> oracle = simtOracle(scales, T);

  std::vector<Program> programs;
  for (size_t i = 0; i < suite.size(); ++i)
    for (bool cuda : {true, false})
      programs.emplace_back(suite[i], cuda, execs[2 * i + !cuda].get(),
                            scales[i]);

  // Closed loop: rounds over the benchmarks in a seeded order, each
  // benchmark's CUDA and OpenMP calls back to back in a seeded order.
  // In a traced run, even rounds are traced and odd rounds are not, so
  // the two medians give the tracing overhead.
  const size_t minRounds = cfg.minSamples(50);
  const int tailPct = Stats::tailPercentile(50);
  std::mt19937_64 rng(cfg.seed);
  LayerTally tally;
  std::vector<Stats> cudaTimes(suite.size()), ompTimes(suite.size()),
      untracedTimes(suite.size());
  struct Sample {
    size_t bench;
    bool cuda;
    double seconds;
  };
  auto round = [&](bool traced) {
    std::vector<Sample> samples;
    if (traced)
      trace::enable();
    for (size_t i : shuffled(suite.size(), rng)) {
      bool cudaFirst = rng() & 1;
      for (bool cuda : {cudaFirst, !cudaFirst}) {
        double t = runOnce(programs[2 * i + !cuda], oracle[i], report,
                           traced && cuda ? &tally.clock : nullptr);
        samples.push_back({i, cuda, t});
      }
    }
    trace::disable();
    return samples;
  };
  round(false); // warm-up
  TimedLoop loop(cfg, minRounds);
  for (size_t ran = 0; loop.more(); ++ran) {
    bool traced = cfg.traced && ran % 2 == 0;
    std::vector<Stats> *cuda =
        cfg.traced && !traced ? &untracedTimes : &cudaTimes;
    loop.add([&ompTimes, cuda, samples = round(traced)] {
      for (const Sample &s : samples)
        (s.cuda ? *cuda : ompTimes)[s.bench].add(s.seconds);
    });
  }

  std::vector<double> medians, tails, speedups;
  double medianSum = 0;
  for (size_t i = 0; i < suite.size(); ++i) {
    medians.push_back(cudaTimes[i].median());
    tails.push_back(cudaTimes[i].at(tailPct));
    speedups.push_back(ompTimes[i].median() / cudaTimes[i].median());
    medianSum += cudaTimes[i].median();
    report.detail("exec." + suite[i].id + ".ms", 1e3 * cudaTimes[i].median(),
                  "ms");
    report.detail("omp." + suite[i].id + ".ms", 1e3 * ompTimes[i].median(),
                  "ms");
  }
  report.detail("rounds", loop.rounds(), "count");
  report.detail("rounds_dropped", loop.dropped(), "count");
  report.detail("steal_pct", loop.stealPct(), "%");
  report.detail("latency_tail_percentile", tailPct, "pct");

  if (!cfg.traced) {
    report.detail("latency_tail_ms", 1e3 * geomean(tails), "ms");
    report.detail("throughput_per_s", suite.size() / medianSum, "1/s");
    report.endToEnd("setup_s", setupSeconds, "s");
    report.endToEnd("latency_ms", 1e3 * geomean(medians), "ms");
    report.endToEnd("speedup_vs_ref", geomean(speedups), "x");
    report.endToEnd("peak_rss_mb", peakRssMb(), "MB");
    return;
  }

  // Tracing overhead: traced against untraced rounds of this run.
  std::vector<double> overhead;
  for (size_t i = 0; i < suite.size(); ++i)
    overhead.push_back(cudaTimes[i].median() / untracedTimes[i].median());

  // Team of one against a team of T, on every transpiled program.
  std::vector<double> teamSpeedup;
  for (size_t i = 0; i < suite.size(); ++i) {
    Program &p = programs[2 * i];
    Stats one, full;
    for (size_t rep = 0; rep < cfg.minSamples(5); ++rep) {
      p.exec->setNumThreads(1);
      one.add(runOnce(p, oracle[i], report, nullptr));
      p.exec->setNumThreads(T);
      full.add(runOnce(p, oracle[i], report, nullptr));
    }
    teamSpeedup.push_back(one.median() / full.median());
  }
  tally.report(report, geomean(teamSpeedup),
               100.0 * (geomean(overhead) - 1.0));

  // The set-up, split into its stages.
  LayerClock setupClock;
  setUp(fullPipeline(), true, T, &setupClock);
  report.detail("setup.frontend_ms",
                1e3 * setupClock.selfSeconds(Layer::Frontend), "ms");
  report.detail("setup.pm_ms", 1e3 * setupClock.selfSeconds(Layer::Pm),
                "ms");
  report.detail("setup.executor_ms",
                1e3 * setupClock.selfSeconds(Layer::VmLower), "ms");

  // Ablation: executed speedup of each optimization over OptDisabled,
  // at a quarter of the scale: without inner serialization every block
  // spawns its own threads, which makes these programs up to 8x slower.
  std::vector<PipelineVariant> variants = ablationVariants();
  Executors ablation = setUp(variants, false, T, nullptr);
  std::vector<int> smallScales;
  for (int s : scales)
    smallScales.push_back(std::max(1, s / 4));
  std::vector<BufferImage> smallOracle = simtOracle(smallScales, T);
  std::vector<std::vector<double>> ratios(variants.size());
  for (size_t i = 0; i < suite.size(); ++i) {
    std::vector<Program> ps;
    for (size_t v = 0; v < variants.size(); ++v)
      ps.emplace_back(suite[i], true,
                      ablation[i * variants.size() + v].get(),
                      smallScales[i]);
    std::vector<Stats> times(variants.size());
    for (size_t rep = 0; rep < cfg.minSamples(10); ++rep)
      for (size_t v : shuffled(variants.size(), rng))
        times[v].add(runOnce(ps[v], smallOracle[i], report, nullptr));
    for (size_t v = 1; v < variants.size(); ++v)
      ratios[v].push_back(times[0].median() / times[v].median());
  }
  for (size_t v = 1; v < variants.size(); ++v)
    report.detail(std::string("ablation.") + variants[v].name + ".speedup",
                  geomean(ratios[v]), "x");
}

} // namespace paralift::e2e
