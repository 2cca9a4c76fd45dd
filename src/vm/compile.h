// IR -> bytecode compilation.
#pragma once

#include "ir/ophelpers.h"
#include "vm/bytecode.h"

namespace paralift::vm {

/// Compiles every function in `module` (must verify) into a BCModule.
/// Records one `vm:lower` trace span per call, with the bytecode's
/// instruction count as its `instrs` argument.
BCModule compileModule(ir::ModuleOp module);

} // namespace paralift::vm
