// The native tier's emitter: a module after omp-lower -> one C11
// translation unit that computes what the module's bytecode computes on
// vm::Interp, bit for bit.
//
// It follows vm/compile.cpp op by op:
//  - an SSA value is a C local: int64_t for every integer type, double
//    for every float type, and a pl_memref (native/abi.h) passed by value;
//  - integer ops call ir/intmath.h's C core (wrapping add/sub/mul, total
//    div/rem, shift counts mod 64, fpToSI, i32 truncation), which the
//    build embeds in the unit's prelude, and cut results to their width
//    where Interp::step does;
//  - a float op rounds its result with (float) exactly where Interp::step
//    calls normFloat, and nowhere else: negf, absf, floor, ceil, minf,
//    maxf, constants and fptrunc pass doubles through unrounded; math ops
//    are libm calls on doubles; constants are hex-float literals;
//  - scf.for/if/while become C loops and branches, omp.wsloop inlines
//    compileWsLoop's static chunking and odometer, and a loop body that
//    holds an alloca takes and releases an arena scope per iteration;
//  - each omp.parallel body becomes a C function over an environment of
//    captured values, run through the unit's host callbacks on a team
//    the host borrows from the team runtime; omp.barrier calls the team
//    barrier.
// scf.parallel and polygeist.barrier (SIMT modules, which only the VM's
// lockstep engine runs) are rejected with a diagnostic naming the op and
// its function, as is a function that returns a memref.
#pragma once

#include "ir/ophelpers.h"
#include "support/diagnostics.h"

#include <optional>
#include <string>

namespace paralift::native {

/// The C unit for `module`, or nullopt with an error on `diag`. The text
/// depends only on the printed module: emitting a module twice, or a
/// module parsed back from its printed form, gives the same text.
std::optional<std::string> emitC(ir::ModuleOp module, DiagnosticEngine &diag);

} // namespace paralift::native
