#include "native/emit.h"

#include "vm/plan.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <unordered_map>

using namespace paralift::ir;

namespace paralift::native {

namespace {

// kAbi (native/abi.h) and kIntMath (the C core of ir/intmath.h), embedded
// when the build is configured.
#include "native/prelude.inc"

/// The bit pattern of a non-finite constant, which no literal spells.
const char kHelpers[] = R"(
static inline double pl_f64(uint64_t bits) {
  union { uint64_t u; double d; } x;
  x.u = bits;
  return x.d;
}
)";

const char *cType(Type t) {
  if (t.isMemRef())
    return "pl_memref";
  return isFloatLike(t.kind()) ? "double" : "int64_t";
}

/// The slot view (vm::Slot member) a value of type `t` travels in.
const char *slotField(Type t) {
  return isFloatLike(t.kind()) ? "f" : "i";
}

const char *elemCType(TypeKind k) {
  switch (k) {
  case TypeKind::F32: return "float";
  case TypeKind::F64: return "double";
  case TypeKind::I32: return "int32_t";
  case TypeKind::I1: return "char";
  default: return "int64_t";
  }
}

/// A C string literal of `s`, every byte but [A-Za-z0-9_] octal-escaped,
/// so no symbol name can end the literal.
std::string cString(const std::string &s) {
  std::string out = "\"";
  for (unsigned char c : s) {
    if (std::isalnum(c) || c == '_') {
      out += static_cast<char>(c);
      continue;
    }
    char esc[5];
    std::snprintf(esc, sizeof esc, "\\%03o", c);
    out += esc;
  }
  return out + "\"";
}

std::string intLiteral(int64_t v) {
  return v == INT64_MIN ? "INT64_MIN" : std::to_string(v);
}

/// A hex-float literal holds a double exactly; the VM's ConstF does not
/// round an f32 constant, so neither does the literal.
std::string floatLiteral(double d) {
  if (!std::isfinite(d)) {
    uint64_t bits;
    std::memcpy(&bits, &d, sizeof bits);
    char buf[40];
    auto r = std::to_chars(buf, buf + sizeof buf, bits, 16);
    return "pl_f64(0x" + std::string(buf, r.ptr) + "ull)";
  }
  char buf[64];
  auto r = std::to_chars(buf, buf + sizeof buf, std::fabs(d),
                         std::chars_format::hex);
  return (std::signbit(d) ? "-0x" : "0x") + std::string(buf, r.ptr);
}

class Emitter {
public:
  explicit Emitter(DiagnosticEngine &diag) : diag_(diag) {}

  std::optional<std::string> emit(ModuleOp module) {
    for (Op *fn : module.body())
      if (fn->kind() == OpKind::Func) {
        funcIndex_[FuncOp(fn).name()] = static_cast<unsigned>(funcs_.size());
        funcs_.push_back(fn);
      }
    std::string defs, protos, wrappers, table;
    for (unsigned k = 0; k < funcs_.size(); ++k) {
      FuncOp fn(funcs_[k]);
      funcName_ = fn.name();
      for (Type t : fn.resultTypes())
        if (t.isMemRef()) {
          reject("a function that returns a memref");
          return std::nullopt;
        }
      std::string params = "pl_ctx *ctx", call = "ctx";
      for (unsigned i = 0; i < fn.numArgs(); ++i) {
        Type t = fn.arg(i).type();
        params += std::string(", ") + cType(t) + " " + name(fn.arg(i));
        call += t.isMemRef()
                    ? ", *(const pl_memref *)a[" + std::to_string(i) + "].p"
                    : ", a[" + std::to_string(i) + "]." + slotField(t);
      }
      std::vector<Type> results = fn.resultTypes();
      for (unsigned i = 0; i < results.size(); ++i) {
        params += std::string(", ") + cType(results[i]) + " *r" +
                  std::to_string(i);
        call += ", &r[" + std::to_string(i) + "]." + slotField(results[i]);
      }
      std::string f = "pl_f" + std::to_string(k);
      protos += "static void " + f + "(" + params + ");\n";
      defs += "static void " + f + "(" + params + ") {\n";
      cur_ = &defs;
      indent_ = 1;
      plan_.plan(fn);
      if (!block(fn.body()))
        return std::nullopt;
      defs += "}\n\n";
      wrappers += "static void pl_e" + std::to_string(k) +
                  "(pl_ctx *ctx, const pl_slot *a, pl_slot *r) {\n  " + f +
                  "(" + call + ");\n}\n";
      table += "  {" + cString(funcName_) + ", pl_e" + std::to_string(k) +
               ", " + std::to_string(fn.numArgs()) + ", " +
               std::to_string(results.size()) + "},\n";
    }
    if (funcs_.empty())
      table = "  {0, 0, 0, 0},\n";
    return std::string("/* Generated by ParaLift's native tier from a "
                       "module after omp-lower. */\n"
                       "#include <math.h>\n#include <stddef.h>\n"
                       "#include <stdint.h>\n\n") +
           kAbi + "\n" + kIntMath + kHelpers + "\n" + protos + "\n" +
           closures_ + defs + wrappers + "\nconst pl_entry pl_entries[] = {\n" +
           table + "};\nconst uint32_t pl_num_entries = " +
           std::to_string(funcs_.size()) + ";\n";
  }

private:
  bool reject(const std::string &what) {
    diag_.error({}, "native: cannot emit " + what + " (in function '" +
                        funcName_ + "'); this module runs on the VM only");
    return false;
  }

  std::string name(Value v) {
    auto [it, inserted] = ids_.try_emplace(v.impl(), nextId_);
    if (inserted)
      ++nextId_;
    return tag('v', it->second);
  }
  std::string temp() { return tag('t', nextTemp_++); }
  /// `prefix` and `n` (`std::string + to_string` trips a false
  /// -Wrestrict in GCC 12).
  static std::string tag(char prefix, unsigned n) {
    std::string s(1, prefix);
    s += std::to_string(n);
    return s;
  }

  void line(const std::string &s) {
    cur_->append(2 * indent_, ' ');
    *cur_ += s;
    *cur_ += '\n';
  }
  /// Declares `v` and sets it to `expr`.
  void def(Value v, const std::string &expr) {
    line(std::string(cType(v.type())) + " " + name(v) + " = " + expr + ";");
  }
  void declare(Value v) {
    line(std::string(cType(v.type())) + " " + name(v) + ";");
  }

  bool block(Block &b) {
    for (Op *op : b)
      if (!emitOp(op))
        return false;
    return true;
  }

  /// An arena scope around one iteration of a loop whose body holds an
  /// alloca (`scoped`, from the function's FunctionPlan, which also
  /// decides the bytecode's ScopePush/ScopePop). Returns the mark's name,
  /// or "".
  std::string scopeBegin(bool scoped) {
    if (!scoped)
      return "";
    std::string m = temp();
    line("pl_mark " + m + " = ctx->host->mark(ctx);");
    return m;
  }
  void scopeEnd(const std::string &m) {
    if (!m.empty())
      line("ctx->host->release(ctx, " + m + ");");
  }

  /// Interp::step's normFloat: an f32 result is rounded to float.
  static std::string rounded(Value result, const std::string &expr) {
    return result.type().kind() == TypeKind::F32
               ? "(double)(float)(" + expr + ")"
               : expr;
  }
  /// intmath::truncate: an i32 result wraps to 32 bits, an i1 keeps bit 0.
  static std::string truncated(Value result, const std::string &expr) {
    switch (result.type().kind()) {
    case TypeKind::I32: return "truncI32(" + expr + ")";
    case TypeKind::I1: return "(" + expr + ") & 1";
    default: return expr;
    }
  }

  /// The row-major element offset of indices operand(first ..
  /// first+count) into memref `m`, as Interp::step computes it.
  std::string offset(const std::string &m, Op *op, unsigned first,
                     unsigned count) {
    if (count == 0)
      return "0";
    std::string off = name(op->operand(first));
    for (unsigned i = 1; i < count; ++i)
      off = "(" + off + ") * " + m + ".sizes[" + std::to_string(i) + "] + " +
            name(op->operand(first + i));
    return off;
  }

  /// The literal of a value defined by a constant op.
  static std::optional<std::string> constant(Value v) {
    Op *def = v.definingOp();
    if (def && def->kind() == OpKind::ConstInt)
      return intLiteral(def->attrs().getInt("value"));
    if (def && def->kind() == OpKind::ConstFloat)
      return floatLiteral(def->attrs().getFloat("value"));
    return std::nullopt;
  }

  bool emitOp(Op *op) {
    Value r = op->numResults() ? op->result(0) : Value();
    auto a = [&](unsigned i) { return name(op->operand(i)); };
    auto apply = [&](const char *fn, unsigned n) {
      return std::string(fn) + "(" + a(0) + (n == 2 ? ", " + a(1) : "") + ")";
    };
    auto infix = [&](const char *sym) { return a(0) + " " + sym + " " + a(1); };
    auto set = [&](const std::string &expr) {
      def(r, expr);
      return true;
    };
    // An integer op cut to its type's width, a float op rounded to f32.
    auto intOp = [&](const char *fn) {
      return set(truncated(r, apply(fn, 2)));
    };
    auto floatOp = [&](const std::string &e) { return set(rounded(r, e)); };
    static const char *const preds[] = {"==", "!=", "<", "<=", ">", ">="};
    switch (op->kind()) {
    case OpKind::ConstInt:
    case OpKind::ConstFloat: return set(*constant(r));
    case OpKind::AddI: return intOp("add");
    case OpKind::SubI: return intOp("sub");
    case OpKind::MulI: return intOp("mul");
    case OpKind::DivSI: return intOp("div");
    case OpKind::RemSI: return intOp("rem");
    case OpKind::ShLI: return intOp("shl");
    case OpKind::ShRSI: return set(apply("shr", 2));
    case OpKind::AndI: return set(infix("&"));
    case OpKind::OrI: return set(infix("|"));
    case OpKind::XOrI: return set(infix("^"));
    case OpKind::MinSI: // std::min and std::max
      return set(a(1) + " < " + a(0) + " ? " + a(1) + " : " + a(0));
    case OpKind::MaxSI:
      return set(a(0) + " < " + a(1) + " ? " + a(1) + " : " + a(0));
    // cmpf one is `!=`, as in the VM: true for unordered operands too.
    case OpKind::CmpI:
    case OpKind::CmpF: return set(infix(preds[op->attrs().getInt("pred")]));
    case OpKind::AddF: return floatOp(infix("+"));
    case OpKind::SubF: return floatOp(infix("-"));
    case OpKind::MulF: return floatOp(infix("*"));
    case OpKind::DivF: return floatOp(infix("/"));
    case OpKind::RemF: return floatOp(apply("fmod", 2));
    case OpKind::Pow: return floatOp(apply("pow", 2));
    case OpKind::Sqrt: return floatOp(apply("sqrt", 1));
    case OpKind::Exp: return floatOp(apply("exp", 1));
    case OpKind::Log: return floatOp(apply("log", 1));
    case OpKind::Sin: return floatOp(apply("sin", 1));
    case OpKind::Cos: return floatOp(apply("cos", 1));
    case OpKind::Tanh: return floatOp(apply("tanh", 1));
    case OpKind::SIToFP: return floatOp("(double)" + a(0));
    case OpKind::MinF: return set(apply("fmin", 2));
    case OpKind::MaxF: return set(apply("fmax", 2));
    case OpKind::NegF: return set("-" + a(0));
    case OpKind::Abs: return set(apply("fabs", 1));
    case OpKind::Floor: return set(apply("floor", 1));
    case OpKind::Ceil: return set(apply("ceil", 1));
    case OpKind::Select: return set(a(0) + " ? " + a(1) + " : " + a(2));
    case OpKind::FPToSI: return set(apply("fpToSI", 1));
    case OpKind::TruncI:
      if (r.type().kind() == TypeKind::I32)
        return set(apply("truncI32", 1));
      [[fallthrough]];
    case OpKind::IndexCast:
    case OpKind::ExtSI:
    case OpKind::FPExt:
    case OpKind::FPTrunc:
      // Value-preserving in the VM (an alias of the operand's register).
      return set(a(0));
    case OpKind::Alloca:
    case OpKind::Alloc:
      return alloc(op);
    case OpKind::Dealloc:
      return true; // arena storage
    case OpKind::Load:
      return load(op);
    case OpKind::Store:
      return store(op);
    case OpKind::Dim:
      return set(a(0) + ".sizes[" +
                 std::to_string(op->attrs().getInt("index")) + "]");
    case OpKind::SubView:
      return subView(op);
    case OpKind::Call:
      return call(op);
    case OpKind::Return:
      for (unsigned i = 0; i < op->numOperands(); ++i)
        line("*r" + std::to_string(i) + " = " + a(i) + ";");
      line("return;");
      return true;
    case OpKind::ScfIf:
      return ifOp(op);
    case OpKind::ScfFor:
      return forOp(op);
    case OpKind::ScfWhile:
      return whileOp(op);
    case OpKind::OmpWsLoop:
      return wsLoop(op);
    case OpKind::OmpParallel:
      return parallel(op);
    case OpKind::OmpBarrier:
      line("ctx->host->barrier(ctx);");
      return true;
    case OpKind::Yield:
    case OpKind::Condition:
      return true; // the enclosing structured op reads them
    default:
      return reject(std::string(opKindName(op->kind())));
    }
  }

  bool alloc(Op *op) {
    Type t = op->result().type();
    std::string sizes, bytes = std::to_string(byteWidth(t.elemKind()));
    unsigned dyn = 0;
    for (int64_t d : t.shape()) {
      std::string s = d == Type::kDynamic ? name(op->operand(dyn++))
                                          : intLiteral(d);
      sizes += (sizes.empty() ? "" : ", ") + s;
      bytes = "mul(" + s + ", " + bytes + ")";
    }
    std::string m = name(op->result()), b = temp();
    line("int64_t " + b + " = " + bytes + ";");
    def(op->result(), "{" + std::to_string(static_cast<int>(t.elemKind())) +
                          ", " + std::to_string(t.shape().size()) + ", 0, {" +
                          (sizes.empty() ? "0" : sizes) + "}}");
    line(m + ".data = ctx->host->alloc(ctx, " + b + " < 1 ? 1 : " + b + ");");
    return true;
  }

  bool load(Op *op) {
    std::string m = name(op->operand(0));
    TypeKind k = op->operand(0).type().elemKind();
    std::string off = offset(m, op, 1, op->numOperands() - 1);
    if (k == TypeKind::I1)
      def(op->result(), m + ".data[" + off + "] != 0");
    else
      def(op->result(), std::string("((const ") + elemCType(k) + " *)" + m +
                            ".data)[" + off + "]");
    return true;
  }

  bool store(Op *op) {
    std::string v = name(op->operand(0)), m = name(op->operand(1));
    TypeKind k = op->operand(1).type().elemKind();
    std::string off = offset(m, op, 2, op->numOperands() - 2);
    if (k == TypeKind::I1)
      line(m + ".data[" + off + "] = " + v + " ? 1 : 0;");
    else
      line(std::string("((") + elemCType(k) + " *)" + m + ".data)[" + off +
           "] = (" + elemCType(k) + ")" + v + ";");
    return true;
  }

  bool subView(Op *op) {
    std::string m = name(op->operand(0));
    Type t = op->operand(0).type();
    unsigned rank = static_cast<unsigned>(t.shape().size());
    unsigned lead = op->numOperands() - 1;
    std::string inner = "1", sizes;
    for (unsigned i = lead; i < rank; ++i) {
      std::string s = m + ".sizes[" + std::to_string(i) + "]";
      inner += " * " + s;
      sizes += (sizes.empty() ? "" : ", ") + s;
    }
    def(op->result(),
        "{" + m + ".elem, " + std::to_string(rank - lead) + ", " + m +
            ".data + (" + offset(m, op, 1, lead) + ") * " + inner + " * " +
            std::to_string(byteWidth(t.elemKind())) + ", {" +
            (sizes.empty() ? "0" : sizes) + "}}");
    return true;
  }

  bool call(Op *op) {
    std::string callee = CallOp(op).callee();
    auto it = funcIndex_.find(callee);
    if (it == funcIndex_.end())
      return reject("a call to unknown function '" + callee + "'");
    std::string args = "ctx";
    for (unsigned i = 0; i < op->numOperands(); ++i)
      args += ", " + name(op->operand(i));
    for (unsigned i = 0; i < op->numResults(); ++i) {
      declare(op->result(i));
      args += ", &" + name(op->result(i));
    }
    line("pl_f" + std::to_string(it->second) + "(" + args + ");");
    return true;
  }

  /// Copies the terminator's operands into `targets`.
  void yieldInto(Op *term, const std::vector<Value> &targets) {
    for (size_t i = 0; i < targets.size(); ++i)
      line(name(targets[i]) + " = " + name(term->operand(i)) + ";");
  }

  bool ifOp(Op *op) {
    IfOp ifOp(op);
    std::vector<Value> results;
    for (unsigned i = 0; i < op->numResults(); ++i) {
      declare(op->result(i));
      results.push_back(op->result(i));
    }
    line("if (" + name(ifOp.cond()) + ") {");
    ++indent_;
    if (!block(ifOp.thenBlock()))
      return false;
    yieldInto(ifOp.thenBlock().terminator(), results);
    --indent_;
    if (ifOp.hasElse()) {
      line("} else {");
      ++indent_;
      if (!block(ifOp.elseBlock()))
        return false;
      yieldInto(ifOp.elseBlock().terminator(), results);
      --indent_;
    }
    line("}");
    return true;
  }

  bool forOp(Op *op) {
    ForOp f(op);
    bool scoped = plan_.takeLoop(op);
    std::string iv = name(f.iv());
    line("int64_t " + iv + " = " + name(f.lb()) + ";");
    std::vector<Value> carried;
    for (unsigned i = 0; i < f.numIterArgs(); ++i) {
      def(f.iterArg(i), name(f.init(i)));
      carried.push_back(f.iterArg(i));
    }
    line("for (; " + iv + " < " + name(f.ub()) + "; " + iv + " = add(" + iv +
         ", " + name(f.step()) + ")) {");
    ++indent_;
    std::string scope = scopeBegin(scoped);
    if (!block(f.body()))
      return false;
    // Through temporaries, so a yield may swap carried values.
    Op *term = f.body().terminator();
    std::vector<std::string> tmps;
    for (unsigned i = 0; i < carried.size(); ++i) {
      tmps.push_back(temp());
      line(std::string(cType(carried[i].type())) + " " + tmps.back() + " = " +
           name(term->operand(i)) + ";");
    }
    for (unsigned i = 0; i < carried.size(); ++i)
      line(name(carried[i]) + " = " + tmps[i] + ";");
    scopeEnd(scope);
    --indent_;
    line("}");
    for (unsigned i = 0; i < op->numResults(); ++i)
      def(op->result(i), name(carried[i]));
    return true;
  }

  bool whileOp(Op *op) {
    WhileOp w(op);
    Block &before = w.before(), &after = w.after();
    bool scoped = plan_.takeLoop(op);
    for (unsigned i = 0; i < op->numOperands(); ++i)
      def(before.arg(i), name(op->operand(i)));
    std::vector<Value> afterArgs, results, beforeArgs;
    for (unsigned i = 0; i < after.numArgs(); ++i) {
      declare(after.arg(i));
      afterArgs.push_back(after.arg(i));
    }
    for (unsigned i = 0; i < op->numResults(); ++i) {
      declare(op->result(i));
      results.push_back(op->result(i));
    }
    for (unsigned i = 0; i < before.numArgs(); ++i)
      beforeArgs.push_back(before.arg(i));
    line("for (;;) {");
    ++indent_;
    if (!block(before))
      return false;
    Op *cond = before.terminator();
    for (unsigned i = 0; i + 1 < cond->numOperands(); ++i) {
      line(name(afterArgs[i]) + " = " + name(cond->operand(i + 1)) + ";");
      line(name(results[i]) + " = " + name(cond->operand(i + 1)) + ";");
    }
    line("if (!" + name(cond->operand(0)) + ")");
    line("  break;");
    std::string scope = scopeBegin(scoped);
    if (!block(after))
      return false;
    yieldInto(after.terminator(), beforeArgs);
    scopeEnd(scope);
    --indent_;
    line("}");
    return true;
  }

  /// vm/compile.cpp's compileWsLoop: member `tid` of a team of `n` takes
  /// the chunk [tid*total/n, (tid+1)*total/n) of the row-major iteration
  /// space, delinearizes its first index once, then steps the IVs like an
  /// odometer.
  bool wsLoop(Op *op) {
    ParallelOp par(op);
    unsigned dims = par.numDims();
    bool scoped = plan_.takeLoop(op);
    line("{");
    ++indent_;
    std::vector<std::string> ext(dims), lb(dims), step(dims), iv(dims),
        count(dims);
    std::string total = "1";
    for (unsigned i = 0; i < dims; ++i) {
      lb[i] = name(par.lb(i));
      step[i] = name(par.step(i));
      iv[i] = name(par.iv(i));
      ext[i] = temp();
      line("int64_t " + ext[i] + " = div(add(sub(" + name(par.ub(i)) + ", " +
           lb[i] + "), sub(" + step[i] + ", 1)), " + step[i] + ");");
      line("if (" + ext[i] + " < 0)");
      line("  " + ext[i] + " = 0;");
      total = i == 0 ? ext[i] : "mul(" + total + ", " + ext[i] + ")";
    }
    std::string tot = temp(), lin = temp(), end = temp(), rest = temp();
    line("int64_t " + tot + " = " + total + ";");
    line("int64_t " + lin + " = div(mul(ctx->tid, " + tot +
         "), ctx->nthreads);");
    line("int64_t " + end + " = div(mul(add(ctx->tid, 1), " + tot +
         "), ctx->nthreads);");
    line("int64_t " + rest + " = " + lin + ";");
    for (int i = static_cast<int>(dims) - 1; i >= 0; --i) {
      count[i] = temp();
      line("int64_t " + count[i] + " = rem(" + rest + ", " + ext[i] + ");");
      line("int64_t " + iv[i] + " = add(mul(" + count[i] + ", " + step[i] +
           "), " + lb[i] + ");");
      if (i > 0)
        line(rest + " = div(" + rest + ", " + ext[i] + ");");
    }
    line("while (" + lin + " < " + end + ") {");
    ++indent_;
    std::string scope = scopeBegin(scoped);
    if (!block(par.body()))
      return false;
    scopeEnd(scope);
    line(lin + " = add(" + lin + ", 1);");
    if (dims > 0)
      odometer(dims - 1, iv, step, lb, count, ext);
    --indent_;
    line("}");
    --indent_;
    line("}");
    return true;
  }

  /// Steps IV `i`; past its extent it resets and carries into IV i-1.
  /// The outermost IV never wraps inside a chunk.
  void odometer(unsigned i, const std::vector<std::string> &iv,
                const std::vector<std::string> &step,
                const std::vector<std::string> &lb,
                const std::vector<std::string> &count,
                const std::vector<std::string> &ext) {
    line(iv[i] + " = add(" + iv[i] + ", " + step[i] + ");");
    if (i == 0)
      return;
    line(count[i] + " = add(" + count[i] + ", 1);");
    line("if (" + count[i] + " >= " + ext[i] + ") {");
    ++indent_;
    line(iv[i] + " = " + lb[i] + ";");
    line(count[i] + " = 0;");
    odometer(i - 1, iv, step, lb, count, ext);
    --indent_;
    line("}");
  }

  /// omp.parallel: the body becomes `pl_body<k>` over `struct pl_env<k>`,
  /// which holds the values the body uses from outside it (its captures
  /// in the function's FunctionPlan, as for the bytecode's closure), and
  /// the host runs it on a team.
  bool parallel(Op *op) {
    const std::vector<Value> &captures = plan_.takeRegion(op);
    std::string k = std::to_string(nextClosure_++);
    std::string fields, init, body;
    std::string *outer = cur_;
    int outerIndent = indent_;
    cur_ = &body;
    indent_ = 1;
    line("struct pl_env" + k + " *env = (struct pl_env" + k + " *)envp;");
    for (size_t i = 0; i < captures.size(); ++i) {
      // A constant is spelled again in the body rather than captured, so
      // the C compiler sees it (the same value either way).
      if (std::optional<std::string> literal = constant(captures[i])) {
        def(captures[i], *literal);
        continue;
      }
      std::string field = tag('c', static_cast<unsigned>(i));
      fields += std::string("  ") + cType(captures[i].type()) + " " + field +
                ";\n";
      init += (init.empty() ? "" : ", ") + name(captures[i]);
      def(captures[i], "env->" + field);
    }
    if (!block(op->region(0).front()))
      return false;
    cur_ = outer;
    indent_ = outerIndent;
    if (fields.empty()) {
      fields = "  char unused;\n";
      init = "0";
    }
    closures_ += "struct pl_env" + k + " {\n" + fields +
                 "};\n\nstatic void pl_body" + k +
                 "(pl_ctx *ctx, void *envp) {\n" + body + "}\n\n";
    line("{");
    line("  struct pl_env" + k + " env" + k + " = {" + init + "};");
    line("  ctx->host->parallel(ctx, pl_body" + k + ", &env" + k + ");");
    line("}");
    return true;
  }

  DiagnosticEngine &diag_;
  vm::FunctionPlan plan_;
  std::vector<Op *> funcs_;
  std::unordered_map<std::string, unsigned> funcIndex_;
  std::unordered_map<ValueImpl *, unsigned> ids_;
  unsigned nextId_ = 0, nextTemp_ = 0, nextClosure_ = 0;
  std::string funcName_;
  std::string closures_; ///< env structs and bodies, inner ones first
  std::string *cur_ = nullptr;
  int indent_ = 0;
};

} // namespace

std::optional<std::string> emitC(ModuleOp module, DiagnosticEngine &diag) {
  return Emitter(diag).emit(module);
}

} // namespace paralift::native
