// Textual rendering of the IR, MLIR-flavored. Deterministic SSA numbering
// per top-level op so tests can assert on printed output.
//
// Cost model (a cache miss prints its module to store it): one walk of
// the tree numbers every value in pre-order into a flat open-addressing
// table (ir/value_table.h's numberValues, which ir::hashOp shares), and
// a second writes each op through a cursor into one growing string:
// integers through to_chars, names and types (Type::spell) with no
// temporary string. A double takes up to three to_chars and strtod
// probes (the shortest of %.6g, %.15g, %.17g that reads back).
#pragma once

#include "ir/op.h"

#include <string>

namespace paralift::ir {

/// Prints `op` (and nested regions) to a string.
std::string printOp(Op *op);

/// Prints a single op without regions (one line), used in diagnostics.
std::string printOpSignature(Op *op);

} // namespace paralift::ir
