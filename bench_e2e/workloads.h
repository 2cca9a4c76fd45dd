// The benchmark's workloads. Each runs its set-up, a warm-up, and a
// closed timed loop (the next call is issued when the previous one
// returns), checks every output, and writes its metrics to the report.
#pragma once

#include "harness.h"

namespace paralift::e2e {

/// rodinia-exec: the transpiled CUDA suite against the hand-written
/// OpenMP references, executed on the VM.
void runRodiniaExec(const RunConfig &cfg, Report &report);

/// rodinia-compile-cold / rodinia-compile-warm: 64-job batches (16
/// sources x 4 pipelines) from CUDA source to verified bytecode, with a
/// fresh in-memory cache (cold) or a persistent cache set-up filled
/// (warm).
void runCompile(const RunConfig &cfg, Report &report, bool warm);

/// resnet-train: MiniResNet training steps, MocCUDA with transpiled
/// kernels against the native backend.
void runResnetTrain(const RunConfig &cfg, Report &report);

} // namespace paralift::e2e
