// Textual IR parser: the inverse of printer.cpp. Accepts the exact
// format printOp emits (round-trip guarantee: parse(print(m)) prints
// identically), which enables mlir-opt-style pass pipelines over IR files
// (tools/paralift-opt) and textual transform test cases.
//
// Grammar (one op per line; regions nest with braces):
//   op        ::= (results '=')? opname operands? attrs? (':' types)? region*
//   results   ::= ssa-id (',' ssa-id)*
//   operands  ::= '(' ssa-id (',' ssa-id)* ')'
//   attrs     ::= '{' ident '=' attr-value (',' ident '=' attr-value)* '}'
//   region    ::= '{' block-args? op* '}' | '{}'
//   block-args::= '[' ssa-id ':' type (',' ssa-id ':' type)* ']' ':'
//   ssa-id    ::= '%' integer
// Types are the scalar names (i1/i32/i64/f32/f64/index/none) or
// memref<DIMxDIMx...xELEM> with '?' for dynamic dimensions.
//
// Cost model (a cache replay parses every stored module, so this is the
// warm path's front stage): one pass over the text with a one-token
// lookahead. A character costs one load from a 256-entry class table;
// lines are counted only where a '\n' is passed, and a token's column is
// its byte distance from the current line's start. Tokens are views into
// the text. Values live in a vector indexed by their %N (the printer
// numbers densely from 0); a number no smaller than the text's length
// goes to a map instead, and one that does not fit 64 bits is an error.
// Attribute names and memref types are memoized per parse, so a repeated
// spelling takes neither the interning lock nor a shape allocation.
// Floats parse with from_chars, and with strtod where from_chars refuses
// (out-of-range magnitudes). What remains is building the IR itself:
// arena allocation and use lists.
#pragma once

#include "ir/ophelpers.h"
#include "support/diagnostics.h"

#include <optional>
#include <string>

namespace paralift::ir {

/// Parses a textual module (as produced by printOp on a ModuleOp).
/// On failure reports through `diag` and returns nullopt. The returned
/// module has been structurally populated but not verified; callers that
/// ingest untrusted text should run verify() next.
std::optional<OwnedModule> parseModule(const std::string &text,
                                       DiagnosticEngine &diag);

/// Parses a textual module, allocating every node from `arena`, and
/// returns the *detached* module op (not the arena root) — or nullptr on
/// error, reported through `diag`. This is how to materialize IR inside
/// an existing module: parse into its arena, move the funcs over, then
/// Op::destroy the returned top op (which only detaches it; the memory
/// belongs to the arena).
Op *parseModuleInto(IRArena &arena, const std::string &text,
                    DiagnosticEngine &diag);

/// Parses a type spelling, e.g. "f32" or "memref<4x?xf32>". Returns
/// Type() (None kind) on failure.
Type parseType(const std::string &text);

} // namespace paralift::ir
