#include "frontend/irgen.h"

#include "frontend/parser.h"
#include "ir/builder.h"

#include <unordered_map>

using namespace paralift::ir;

namespace paralift::frontend {

namespace {

TypeKind scalarKind(ScalarTy t) {
  switch (t) {
  case ScalarTy::Bool: return TypeKind::I1;
  case ScalarTy::Int: return TypeKind::I32;
  case ScalarTy::Long: return TypeKind::I64;
  case ScalarTy::Float: return TypeKind::F32;
  case ScalarTy::Double: return TypeKind::F64;
  case ScalarTy::Void: return TypeKind::None;
  }
  return TypeKind::None;
}

/// Result of expression generation: a typed scalar SSA value, or a
/// pointer/array (memref plus linear offset).
struct EV {
  Ty ty;
  Value scalar;           ///< scalars
  Value mem;              ///< pointers/arrays
  Value offset;           ///< pointer offset in elements (index), may be null
  bool isMem() const { return static_cast<bool>(mem); }
};

/// An assignable location.
struct LV {
  Value mem;
  std::vector<Value> idxs;
  ScalarTy elem;
};

struct Sym {
  enum Kind {
    ScalarVar,  ///< mutable scalar: rank-0 alloca
    ScalarSSA,  ///< immutable scalar bound directly to an SSA value
    ArrayVar,
    PointerVar
  } kind;
  Ty ty;
  Value mem;    ///< ScalarVar: alloca; ScalarSSA: the value; else memref
  Value offset; ///< PointerVar: element offset (index type), may be null
};

/// Per-kernel builtin values (threadIdx etc.), all i32.
struct KernelCtx {
  Value tIdx[3], bIdx[3], bDim[3], gDim[3];
  bool active = false;
};

class IRGen {
public:
  IRGen(Program &prog, DiagnosticEngine &diag)
      : prog_(prog), diag_(diag) {}

  void run(ModuleOp module) {
    moduleOp_ = module.op;
    for (auto &fn : prog_.funcs) {
      if (fn->qual == FnQual::Global)
        continue; // kernels are inlined at launch sites
      genFunction(*fn);
      if (diag_.hasErrors())
        return;
    }
  }

private:
  //===------------------------------------------------------------------===//
  // Scopes
  //===------------------------------------------------------------------===//

  void pushScope() { scopes_.emplace_back(); }
  void popScope() { scopes_.pop_back(); }
  Sym *lookup(const std::string &name) {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      auto found = it->find(name);
      if (found != it->end())
        return &found->second;
    }
    return nullptr;
  }
  void define(const std::string &name, Sym sym) {
    scopes_.back()[name] = std::move(sym);
  }

  struct ScopeGuard {
    IRGen &gen;
    explicit ScopeGuard(IRGen &g) : gen(g) { gen.pushScope(); }
    ~ScopeGuard() { gen.popScope(); }
  };

  //===------------------------------------------------------------------===//
  // Type helpers
  //===------------------------------------------------------------------===//

  Type irType(ScalarTy t) { return Type(scalarKind(t)); }

  /// Usual arithmetic conversions.
  ScalarTy promote(ScalarTy a, ScalarTy b) {
    if (a == ScalarTy::Double || b == ScalarTy::Double)
      return ScalarTy::Double;
    if (a == ScalarTy::Float || b == ScalarTy::Float)
      return ScalarTy::Float;
    if (a == ScalarTy::Long || b == ScalarTy::Long)
      return ScalarTy::Long;
    return ScalarTy::Int;
  }

  Value convert(Value v, ScalarTy from, ScalarTy to) {
    if (from == to)
      return v;
    bool fromF = from == ScalarTy::Float || from == ScalarTy::Double;
    bool toF = to == ScalarTy::Float || to == ScalarTy::Double;
    Type target = irType(to);
    if (fromF && toF)
      return b_.cast(from == ScalarTy::Float ? OpKind::FPExt
                                             : OpKind::FPTrunc,
                     v, target);
    if (fromF && !toF) {
      Value asI64 = b_.cast(OpKind::FPToSI, v, Type::i64());
      return b_.toInt(asI64, target);
    }
    if (!fromF && toF) {
      // Bool/int/long -> float: go through i64.
      Value wide = b_.toInt(v, Type::i64());
      return b_.cast(OpKind::SIToFP, wide, target);
    }
    // int-like to int-like.
    if (to == ScalarTy::Bool)
      return b_.cmpi(CmpIPred::ne, v, zeroOf(from));
    return b_.toInt(v, target);
  }

  Value zeroOf(ScalarTy t) {
    if (t == ScalarTy::Float || t == ScalarTy::Double)
      return b_.constFloat(0.0, irType(t));
    return b_.constInt(0, irType(t));
  }

  Value toIndexV(EV v) {
    if (!v.ty.isInteger()) {
      diag_.error(SourceLoc(), "index expression must be integer");
      return b_.constIndex(0);
    }
    return b_.toIndex(v.scalar);
  }

  //===------------------------------------------------------------------===//
  // Functions
  //===------------------------------------------------------------------===//

  Type paramIrType(const Ty &ty) {
    if (ty.isPointer())
      return Type::memref(scalarKind(ty.scalar), {Type::kDynamic});
    return irType(ty.scalar);
  }

  void genFunction(FuncDecl &fn) {
    std::vector<Type> argTypes;
    for (auto &p : fn.params)
      argTypes.push_back(paramIrType(p.type));
    std::vector<Type> resultTypes;
    if (!fn.retTy.isVoid())
      resultTypes.push_back(irType(fn.retTy.scalar));
    FuncOp funcOp =
        FuncOp::create(ModuleOp(moduleOp_), fn.name, argTypes, resultTypes);
    b_.setInsertionPointToEnd(&funcOp.body());

    ScopeGuard scope(*this);
    retValMem_ = Value();
    if (!fn.retTy.isVoid())
      retValMem_ = b_.allocaMem(Type::memrefScalar(scalarKind(fn.retTy.scalar)));
    retElem_ = fn.retTy.scalar;

    for (unsigned i = 0; i < fn.params.size(); ++i) {
      const Param &p = fn.params[i];
      if (p.type.isPointer()) {
        define(p.name, {Sym::PointerVar, p.type, funcOp.arg(i), Value()});
      } else {
        // Mutable copy so the body may assign to parameters.
        Value mem = b_.allocaMem(Type::memrefScalar(scalarKind(p.type.scalar)));
        b_.store(funcOp.arg(i), mem, {});
        define(p.name, {Sym::ScalarVar, p.type, mem, Value()});
      }
    }
    genStmts(fn.body->stmts, 0, /*fnLevel=*/true);
    // Single trailing return.
    if (retValMem_)
      b_.ret({b_.load(retValMem_, {})});
    else
      b_.ret({});
  }

  //===------------------------------------------------------------------===//
  // Statements
  //===------------------------------------------------------------------===//

  /// Generates statements from position `from`, applying the guard-return
  /// normalization: `if (c) { ...; return; } rest...` becomes
  /// `if (c) { ... } else { rest... }` so that every path reaches the
  /// single trailing return. The normalization is valid only at function
  /// (or inlined-kernel) top level, which `fnLevel` asserts.
  void genStmts(const std::vector<StmtPtr> &stmts, size_t from,
                bool fnLevel) {
    for (size_t i = from; i < stmts.size(); ++i) {
      Stmt *s = stmts[i].get();
      if (!s || diag_.hasErrors())
        return;
      // Guard-return pattern.
      if (fnLevel && s->kind == StmtKind::If && s->stmts.size() == 1 &&
          endsWithReturn(s->stmts[0].get())) {
        Value cond = genCondition(*s->exprs[0]);
        bool isLast = i + 1 == stmts.size();
        IfOp ifOp = IfOp::create(b_, cond, {}, /*withElse=*/!isLast);
        Op *after = b_.insertionPoint();
        Block *cont = b_.insertionBlock();
        {
          ScopeGuard g(*this);
          b_.setInsertionPointToEnd(&ifOp.thenBlock());
          genBody(*s->stmts[0], /*dropTrailingReturn=*/true);
          b_.yield({});
        }
        if (!isLast) {
          ScopeGuard g(*this);
          b_.setInsertionPointToEnd(&ifOp.elseBlock());
          genStmts(stmts, i + 1, fnLevel);
          b_.yield({});
        }
        b_.setInsertionPointToEnd(cont);
        if (after)
          b_.setInsertionPoint(after);
        return;
      }
      if (s->kind == StmtKind::Return) {
        if (!fnLevel || i + 1 != stmts.size())
          diag_.error(s->loc, "return before end of function is only "
                              "supported as `if (cond) return;` at "
                              "function top level");
        if (!s->exprs.empty()) {
          if (!retValMem_) {
            diag_.error(s->loc, "value returned from void function");
            return;
          }
          EV v = genExpr(*s->exprs[0]);
          b_.store(convert(v.scalar, v.ty.scalar, retElem_), retValMem_, {});
        }
        return;
      }
      genStmt(*s);
    }
  }

  static bool endsWithReturn(Stmt *s) {
    if (!s)
      return false;
    if (s->kind == StmtKind::Return)
      return true;
    if (s->kind == StmtKind::Block && !s->stmts.empty())
      return endsWithReturn(s->stmts.back().get());
    return false;
  }

  /// Generates a statement body, optionally dropping a trailing bare
  /// return (used by the guard-return normalization). `return expr` in
  /// that position still stores to the return slot.
  void genBody(Stmt &s, bool dropTrailingReturn) {
    if (s.kind == StmtKind::Block) {
      for (size_t i = 0; i < s.stmts.size(); ++i) {
        Stmt *inner = s.stmts[i].get();
        if (dropTrailingReturn && i + 1 == s.stmts.size() && inner &&
            inner->kind == StmtKind::Return) {
          if (!inner->exprs.empty() && retValMem_) {
            EV v = genExpr(*inner->exprs[0]);
            b_.store(convert(v.scalar, v.ty.scalar, retElem_), retValMem_,
                     {});
          }
          return;
        }
        if (inner)
          genStmt(*inner);
      }
      return;
    }
    if (s.kind == StmtKind::Return) {
      if (!s.exprs.empty() && retValMem_) {
        EV v = genExpr(*s.exprs[0]);
        b_.store(convert(v.scalar, v.ty.scalar, retElem_), retValMem_, {});
      }
      return;
    }
    genStmt(s);
  }

  void genStmt(Stmt &s) {
    if (diag_.hasErrors())
      return;
    switch (s.kind) {
    case StmtKind::Block: {
      if (s.text == "#decl-group") {
        for (auto &inner : s.stmts)
          genStmt(*inner);
        return;
      }
      ScopeGuard g(*this);
      genStmts(s.stmts, 0, /*fnLevel=*/false);
      return;
    }
    case StmtKind::Decl:
      genDecl(s);
      return;
    case StmtKind::ExprStmt:
      genExpr(*s.exprs[0]);
      return;
    case StmtKind::If: {
      Value cond = genCondition(*s.exprs[0]);
      bool hasElse = s.stmts.size() > 1;
      IfOp ifOp = IfOp::create(b_, cond, {}, hasElse);
      Op *afterOp = ifOp.op->next();
      Block *cont = ifOp.op->parent();
      {
        ScopeGuard g(*this);
        b_.setInsertionPointToEnd(&ifOp.thenBlock());
        genBody(*s.stmts[0], false);
        b_.yield({});
      }
      if (hasElse) {
        ScopeGuard g(*this);
        b_.setInsertionPointToEnd(&ifOp.elseBlock());
        genBody(*s.stmts[1], false);
        b_.yield({});
      }
      b_.setInsertionPointToEnd(cont);
      if (afterOp)
        b_.setInsertionPoint(afterOp);
      return;
    }
    case StmtKind::For:
      genFor(s);
      return;
    case StmtKind::While:
      genWhileLike(/*cond=*/s.exprs[0].get(), /*body=*/s.stmts[0].get(),
                   /*inc=*/nullptr, /*doWhile=*/false);
      return;
    case StmtKind::DoWhile:
      genWhileLike(s.exprs[0].get(), s.stmts[0].get(), nullptr, true);
      return;
    case StmtKind::Return:
      diag_.error(s.loc, "return in unsupported position");
      return;
    case StmtKind::Launch:
      genLaunch(s);
      return;
    case StmtKind::Pragma:
      genParallelFor(s);
      return;
    }
  }

  void genDecl(Stmt &s) {
    ScalarTy elem = s.declTy.scalar;
    if (s.declTy.isArray()) {
      Type t = Type::memref(scalarKind(elem), s.declTy.arrayDims);
      Value mem;
      if (s.isShared && sharedBuilder_) {
        // __shared__: allocate at block (grid-body) scope.
        mem = sharedBuilder_->allocaMem(t);
      } else {
        mem = b_.allocaMem(t);
      }
      define(s.text, {Sym::ArrayVar, s.declTy, mem, Value()});
      return;
    }
    if (s.declTy.isPointer()) {
      if (s.exprs.empty()) {
        diag_.error(s.loc, "pointer variables must be initialized");
        return;
      }
      EV init = genExpr(*s.exprs[0]);
      if (!init.isMem()) {
        diag_.error(s.loc, "pointer initializer must be a pointer value");
        return;
      }
      define(s.text, {Sym::PointerVar, s.declTy, init.mem, init.offset});
      return;
    }
    // Scalar local (possibly __shared__).
    Value mem;
    if (s.isShared && sharedBuilder_)
      mem = sharedBuilder_->allocaMem(Type::memrefScalar(scalarKind(elem)));
    else
      mem = b_.allocaMem(Type::memrefScalar(scalarKind(elem)));
    define(s.text, {Sym::ScalarVar, s.declTy, mem, Value()});
    if (!s.exprs.empty()) {
      EV init = genExpr(*s.exprs[0]);
      b_.store(convert(init.scalar, init.ty.scalar, elem), mem, {});
    }
  }

  /// Detects the canonical pattern `for (i = a; i < b; i += c)` with the
  /// loop variable unmodified in the body; otherwise falls back to the
  /// while lowering. In the canonical case the loop variable binds as a
  /// read-only SSA value inside the body (no alloca round-trip), keeping
  /// bounds and uses block-uniform for barrier interchange even with all
  /// optimizations disabled.
  void genFor(Stmt &s) {
    Stmt *init = s.stmts[0].get();
    Expr *cond = s.exprs[0].get();
    Expr *inc = s.exprs[1].get();
    Stmt *body = s.stmts[1].get();

    ScopeGuard g(*this);
    std::string ivName;
    Expr *initExpr = nullptr;
    if (init) {
      if (init->kind == StmtKind::Decl) {
        ivName = init->text;
        initExpr = init->exprs.empty() ? nullptr : init->exprs[0].get();
      } else if (init->kind == StmtKind::ExprStmt &&
                 init->exprs[0]->kind == ExprKind::Assign &&
                 init->exprs[0]->text == "=" &&
                 init->exprs[0]->children[0]->kind == ExprKind::VarRef) {
        ivName = init->exprs[0]->children[0]->text;
        initExpr = init->exprs[0]->children[1].get();
      }
    }

    auto canonical = analyzeCanonical(ivName, cond, inc, body);
    if (!canonical.ok || !initExpr) {
      if (init)
        genStmt(*init);
      genWhileLike(cond, body, inc, false);
      return;
    }
    // Declare the variable (without storing the init: the loop provides
    // its value; the exit value is stored after the loop).
    if (init->kind == StmtKind::Decl) {
      Stmt declOnly(StmtKind::Decl, init->loc);
      declOnly.declTy = init->declTy;
      declOnly.text = init->text;
      genDecl(declOnly);
    }
    Sym *ivSym = lookup(ivName);
    EV initV = genExpr(*initExpr);
    Value lb = b_.toIndex(convert(initV.scalar, initV.ty.scalar,
                                  ivSym->ty.scalar));
    EV ubv = genExpr(*canonical.bound);
    Value ub = b_.toIndex(convert(ubv.scalar, ubv.ty.scalar,
                                  ivSym->ty.scalar));
    if (canonical.inclusive)
      ub = b_.addi(ub, b_.constIndex(1));
    Value step = b_.constIndex(canonical.step);

    ForOp loop = ForOp::create(b_, lb, ub, step, {});
    Op *after = loop.op->next();
    Block *cont = loop.op->parent();
    {
      ScopeGuard gg(*this);
      b_.setInsertionPointToEnd(&loop.body());
      // Shadow-bind the loop variable as read-only SSA.
      Value ivVal = b_.toInt(loop.iv(), irType(ivSym->ty.scalar));
      define(ivName, {Sym::ScalarSSA, ivSym->ty, ivVal, Value()});
      if (body)
        genBody(*body, false);
      b_.yield({});
    }
    b_.setInsertionPointToEnd(cont);
    if (after)
      b_.setInsertionPoint(after);
    // After the loop the variable holds its exit value:
    // lb + ceil((ub-lb)/step) * step (and at least lb).
    Value range = b_.subi(ub, lb);
    Value stepm1 = b_.subi(step, b_.constIndex(1));
    Value trips = b_.divsi(b_.addi(range, stepm1), step);
    trips = b_.binary(OpKind::MaxSI, trips, b_.constIndex(0));
    Value finalIv = b_.addi(lb, b_.muli(trips, step));
    b_.store(b_.toInt(finalIv, irType(ivSym->ty.scalar)), ivSym->mem, {});
  }

  struct Canonical {
    bool ok = false;
    Expr *bound = nullptr;
    bool inclusive = false;
    int64_t step = 1;
  };

  Canonical analyzeCanonical(const std::string &ivName, Expr *cond,
                             Expr *inc, Stmt *body) {
    Canonical out;
    if (ivName.empty() || !cond || !inc)
      return out;
    // cond: iv < bound or iv <= bound.
    if (cond->kind != ExprKind::Binary ||
        (cond->text != "<" && cond->text != "<="))
      return out;
    if (cond->children[0]->kind != ExprKind::VarRef ||
        cond->children[0]->text != ivName)
      return out;
    out.bound = cond->children[1].get();
    out.inclusive = cond->text == "<=";
    // inc: iv++ / ++iv / iv += c / iv = iv + c.
    if (inc->kind == ExprKind::PostIncDec && inc->text == "++" &&
        inc->children[0]->kind == ExprKind::VarRef &&
        inc->children[0]->text == ivName) {
      out.step = 1;
    } else if (inc->kind == ExprKind::Unary && inc->text == "++" &&
               inc->children[0]->kind == ExprKind::VarRef &&
               inc->children[0]->text == ivName) {
      out.step = 1;
    } else if (inc->kind == ExprKind::Assign && inc->text == "+=" &&
               inc->children[0]->kind == ExprKind::VarRef &&
               inc->children[0]->text == ivName &&
               inc->children[1]->kind == ExprKind::IntLit) {
      out.step = inc->children[1]->intVal;
    } else {
      return out;
    }
    if (out.step <= 0)
      return out;
    // The body must not modify the loop variable, and the bound must not
    // depend on variables the body modifies (conservative: bound is a
    // literal, or a variable/expression over variables not assigned in
    // the body).
    if (body && (stmtModifies(*body, ivName) ||
                 boundMutated(*out.bound, *body)))
      return out;
    out.ok = true;
    return out;
  }

  bool boundMutated(Expr &bound, Stmt &body) {
    std::vector<std::string> vars;
    collectVars(bound, vars);
    for (auto &v : vars)
      if (stmtModifies(body, v))
        return true;
    return false;
  }

  void collectVars(Expr &e, std::vector<std::string> &out) {
    if (e.kind == ExprKind::VarRef)
      out.push_back(e.text);
    for (auto &c : e.children)
      if (c)
        collectVars(*c, out);
  }

  bool exprModifies(Expr &e, const std::string &name) {
    if ((e.kind == ExprKind::Assign || e.kind == ExprKind::PostIncDec ||
         (e.kind == ExprKind::Unary &&
          (e.text == "++" || e.text == "--"))) &&
        e.children[0]->kind == ExprKind::VarRef &&
        e.children[0]->text == name)
      return true;
    for (auto &c : e.children)
      if (c && exprModifies(*c, name))
        return true;
    return false;
  }

  bool stmtModifies(Stmt &s, const std::string &name) {
    for (auto &e : s.exprs)
      if (e && exprModifies(*e, name))
        return true;
    for (auto &inner : s.stmts)
      if (inner && stmtModifies(*inner, name))
        return true;
    // Shadowing declaration means inner assignments do not touch ours;
    // conservatively ignore that subtlety (rare in benchmarks).
    return false;
  }

  /// while / do-while / non-canonical for via scf.while.
  void genWhileLike(Expr *cond, Stmt *body, Expr *inc, bool doWhile) {
    WhileOp loop = WhileOp::create(b_, {}, {});
    Op *after = loop.op->next();
    Block *cont = loop.op->parent();
    if (doWhile) {
      ScopeGuard g(*this);
      b_.setInsertionPointToEnd(&loop.before());
      if (body)
        genBody(*body, false);
      Value c = cond ? genCondition(*cond) : b_.constBool(true);
      b_.condition(c, {});
      Builder ab(&loop.after());
      ab.yield({});
    } else {
      {
        b_.setInsertionPointToEnd(&loop.before());
        Value c = cond ? genCondition(*cond) : b_.constBool(true);
        b_.condition(c, {});
      }
      ScopeGuard g(*this);
      b_.setInsertionPointToEnd(&loop.after());
      if (body)
        genBody(*body, false);
      if (inc)
        genExpr(*inc);
      b_.yield({});
    }
    b_.setInsertionPointToEnd(cont);
    if (after)
      b_.setInsertionPoint(after);
  }

  /// #pragma omp parallel for (collapse(n)): canonical for nest ->
  /// scf.parallel.
  void genParallelFor(Stmt &s) {
    Stmt *loop = s.stmts[0].get();
    std::vector<Value> lbs, ubs, steps;
    std::vector<std::string> ivNames;
    std::vector<Sym *> ivSyms;
    Stmt *body = loop;
    ScopeGuard g(*this);
    for (int d = 0; d < s.collapse; ++d) {
      // Unwrap single-statement blocks between collapsed loops.
      while (body && body->kind == StmtKind::Block && body->stmts.size() == 1)
        body = body->stmts[0].get();
      if (!body || body->kind != StmtKind::For) {
        diag_.error(s.loc, "collapse depth exceeds loop nest");
        return;
      }
      Stmt *init = body->stmts[0].get();
      Expr *cond = body->exprs[0].get();
      Expr *inc = body->exprs[1].get();
      if (init)
        genStmt(*init);
      std::string ivName =
          init && init->kind == StmtKind::Decl ? init->text
          : (init && init->kind == StmtKind::ExprStmt &&
             init->exprs[0]->kind == ExprKind::Assign)
              ? init->exprs[0]->children[0]->text
              : "";
      auto canonical = analyzeCanonical(ivName, cond, inc,
                                        body->stmts[1].get());
      if (!canonical.ok) {
        diag_.error(body->loc,
                    "omp parallel for requires a canonical loop");
        return;
      }
      Sym *ivSym = lookup(ivName);
      lbs.push_back(b_.toIndex(b_.load(ivSym->mem, {})));
      EV ubv = genExpr(*canonical.bound);
      Value ub = b_.toIndex(convert(ubv.scalar, ubv.ty.scalar,
                                    ivSym->ty.scalar));
      if (canonical.inclusive)
        ub = b_.addi(ub, b_.constIndex(1));
      ubs.push_back(ub);
      steps.push_back(b_.constIndex(canonical.step));
      ivNames.push_back(ivName);
      ivSyms.push_back(ivSym);
      body = body->stmts[1].get();
    }
    ir::ParallelOp par =
        ir::ParallelOp::create(b_, OpKind::ScfParallel, lbs, ubs, steps);
    par.op->attrs().set("omp.source", true);
    Op *after = par.op->next();
    Block *cont = par.op->parent();
    {
      ScopeGuard gg(*this);
      b_.setInsertionPointToEnd(&par.body());
      // Each iteration binds private copies of the loop variables.
      for (size_t d = 0; d < ivNames.size(); ++d) {
        Value mem = b_.allocaMem(
            Type::memrefScalar(scalarKind(ivSyms[d]->ty.scalar)));
        b_.store(b_.toInt(par.iv(static_cast<unsigned>(d)),
                          irType(ivSyms[d]->ty.scalar)),
                 mem, {});
        define(ivNames[d], {Sym::ScalarVar, ivSyms[d]->ty, mem, Value()});
      }
      if (body)
        genBody(*body, false);
      b_.yield({});
    }
    b_.setInsertionPointToEnd(cont);
    if (after)
      b_.setInsertionPoint(after);
  }

  //===------------------------------------------------------------------===//
  // Kernel launches (§III representation)
  //===------------------------------------------------------------------===//

  void genLaunch(Stmt &s) {
    FuncDecl *kernel = prog_.find(s.text);
    if (!kernel || kernel->qual != FnQual::Global) {
      diag_.error(s.loc, "launch of unknown kernel " + s.text);
      return;
    }
    Stmt &gridCfg = *s.stmts[0];
    Stmt &blockCfg = *s.stmts[1];

    auto evalCfg = [&](Stmt &cfg, std::vector<Value> &dims) {
      for (auto &e : cfg.exprs) {
        EV v = genExpr(*e);
        dims.push_back(b_.toIndex(convert(v.scalar, v.ty.scalar,
                                          ScalarTy::Long)));
      }
    };
    std::vector<Value> gridDims, blockDims;
    evalCfg(gridCfg, gridDims);
    evalCfg(blockCfg, blockDims);

    // Evaluate kernel arguments in the host scope.
    std::vector<EV> args;
    for (auto &e : s.exprs)
      args.push_back(genExpr(*e));
    if (args.size() != kernel->params.size()) {
      diag_.error(s.loc, "kernel argument count mismatch");
      return;
    }

    Value zero = b_.constIndex(0);
    Value one = b_.constIndex(1);
    std::vector<Value> zeros(gridDims.size(), zero);
    std::vector<Value> ones(gridDims.size(), one);
    ir::ParallelOp grid = ir::ParallelOp::create(
        b_, OpKind::ScfParallel, zeros, gridDims, ones);
    grid.op->attrs().set("gpu.grid", true);
    grid.op->attrs().set("kernel", s.text);
    Op *after = grid.op->next();
    Block *cont = grid.op->parent();

    Builder gb(&grid.body());
    std::vector<Value> tzeros(blockDims.size(), zero);
    std::vector<Value> tones(blockDims.size(), one);
    ir::ParallelOp threads = ir::ParallelOp::create(
        gb, OpKind::ScfParallel, tzeros, blockDims, tones);
    threads.op->attrs().set("gpu.block", true);
    gb.yield({});
    Builder tb(&threads.body());
    tb.yield({});

    // Save generation state and generate the kernel body inline.
    Builder savedB = b_;
    Builder sharedB;
    sharedB.setInsertionPoint(threads.op);
    Builder *savedShared = sharedBuilder_;
    KernelCtx savedCtx = kernelCtx_;
    Value savedRet = retValMem_;

    sharedBuilder_ = &sharedB;
    retValMem_ = Value(); // kernels return void
    b_.setInsertionPoint(threads.body().terminator());

    // Builtins.
    kernelCtx_ = KernelCtx();
    kernelCtx_.active = true;
    for (int i = 0; i < 3; ++i) {
      bool hasT = i < static_cast<int>(blockDims.size());
      bool hasG = i < static_cast<int>(gridDims.size());
      kernelCtx_.tIdx[i] =
          hasT ? b_.toInt(threads.iv(i), Type::i32()) : b_.constI32(0);
      kernelCtx_.bIdx[i] =
          hasG ? b_.toInt(grid.iv(i), Type::i32()) : b_.constI32(0);
      kernelCtx_.bDim[i] =
          hasT ? b_.toInt(blockDims[i], Type::i32()) : b_.constI32(1);
      kernelCtx_.gDim[i] =
          hasG ? b_.toInt(gridDims[i], Type::i32()) : b_.constI32(1);
    }

    pushScope();
    for (size_t i = 0; i < args.size(); ++i) {
      const Param &p = kernel->params[i];
      if (p.type.isPointer()) {
        if (!args[i].isMem()) {
          diag_.error(s.loc, "expected pointer argument");
          break;
        }
        define(p.name,
               {Sym::PointerVar, p.type, args[i].mem, args[i].offset});
      } else if (!stmtModifies(*kernel->body, p.name)) {
        // Never-assigned scalar params bind directly as SSA: the launch
        // argument value (defined outside the parallel nest) stays
        // trivially block-uniform, which barrier interchange relies on.
        Value v = convert(args[i].scalar, args[i].ty.scalar, p.type.scalar);
        define(p.name, {Sym::ScalarSSA, p.type, v, Value()});
      } else {
        Value mem =
            b_.allocaMem(Type::memrefScalar(scalarKind(p.type.scalar)));
        b_.store(convert(args[i].scalar, args[i].ty.scalar, p.type.scalar),
                 mem, {});
        define(p.name, {Sym::ScalarVar, p.type, mem, Value()});
      }
    }
    if (!diag_.hasErrors()) {
      if (kernel->body->kind == StmtKind::Block)
        genStmts(kernel->body->stmts, 0, /*fnLevel=*/true);
      else
        genStmt(*kernel->body);
    }
    popScope();

    kernelCtx_ = savedCtx;
    sharedBuilder_ = savedShared;
    retValMem_ = savedRet;
    b_ = savedB;
    b_.setInsertionPointToEnd(cont);
    if (after)
      b_.setInsertionPoint(after);
  }

  //===------------------------------------------------------------------===//
  // Expressions
  //===------------------------------------------------------------------===//

  Value genCondition(Expr &e) {
    EV v = genExpr(e);
    if (v.ty.scalar == ScalarTy::Bool)
      return v.scalar;
    if (v.ty.isFloating())
      return b_.cmpf(CmpFPred::one, v.scalar, zeroOf(v.ty.scalar));
    return b_.cmpi(CmpIPred::ne, v.scalar, zeroOf(v.ty.scalar));
  }

  EV makeScalar(Value v, ScalarTy t) {
    EV e;
    e.ty.scalar = t;
    e.scalar = v;
    return e;
  }

  EV genExpr(Expr &e) {
    if (diag_.hasErrors())
      return makeScalar(b_.constI32(0), ScalarTy::Int);
    switch (e.kind) {
    case ExprKind::IntLit:
      return makeScalar(b_.constI32(static_cast<int32_t>(e.intVal)),
                        ScalarTy::Int);
    case ExprKind::FloatLit:
      if (e.isFloat32)
        return makeScalar(b_.constF32(e.floatVal), ScalarTy::Float);
      return makeScalar(b_.constF64(e.floatVal), ScalarTy::Double);
    case ExprKind::BoolLit:
      return makeScalar(b_.constBool(e.intVal != 0), ScalarTy::Bool);
    case ExprKind::VarRef:
      return genVarRef(e);
    case ExprKind::Member:
      return genMember(e);
    case ExprKind::Unary:
      return genUnary(e);
    case ExprKind::Binary:
      return genBinary(e);
    case ExprKind::Assign:
      return genAssign(e);
    case ExprKind::PostIncDec:
      return genPostIncDec(e);
    case ExprKind::Ternary:
      return genTernary(e);
    case ExprKind::Index:
      return genIndexLoad(e);
    case ExprKind::Call:
      return genCall(e);
    case ExprKind::Cast: {
      EV v = genExpr(*e.children[0]);
      if (e.castTy.isPointer()) {
        if (!v.isMem())
          diag_.error(e.loc, "cannot cast scalar to pointer");
        return v;
      }
      return makeScalar(convert(v.scalar, v.ty.scalar, e.castTy.scalar),
                        e.castTy.scalar);
    }
    }
    diag_.error(e.loc, "unsupported expression");
    return makeScalar(b_.constI32(0), ScalarTy::Int);
  }

  EV genVarRef(Expr &e) {
    Sym *sym = lookup(e.text);
    if (!sym) {
      diag_.error(e.loc, "use of undeclared identifier " + e.text);
      return makeScalar(b_.constI32(0), ScalarTy::Int);
    }
    switch (sym->kind) {
    case Sym::ScalarVar:
      return makeScalar(b_.load(sym->mem, {}), sym->ty.scalar);
    case Sym::ScalarSSA:
      return makeScalar(sym->mem, sym->ty.scalar);
    case Sym::ArrayVar: {
      EV v;
      v.ty = sym->ty;
      v.mem = sym->mem;
      return v;
    }
    case Sym::PointerVar: {
      EV v;
      v.ty = sym->ty;
      v.mem = sym->mem;
      v.offset = sym->offset;
      return v;
    }
    }
    return makeScalar(b_.constI32(0), ScalarTy::Int);
  }

  EV genMember(Expr &e) {
    // Only threadIdx/blockIdx/blockDim/gridDim members are supported.
    Expr &base = *e.children[0];
    if (base.kind != ExprKind::VarRef || !kernelCtx_.active) {
      diag_.error(e.loc, "member access is only supported on CUDA builtin "
                         "index variables");
      return makeScalar(b_.constI32(0), ScalarTy::Int);
    }
    int comp = e.text == "x" ? 0 : e.text == "y" ? 1 : e.text == "z" ? 2 : -1;
    if (comp < 0) {
      diag_.error(e.loc, "unknown member ." + e.text);
      return makeScalar(b_.constI32(0), ScalarTy::Int);
    }
    Value v;
    if (base.text == "threadIdx")
      v = kernelCtx_.tIdx[comp];
    else if (base.text == "blockIdx")
      v = kernelCtx_.bIdx[comp];
    else if (base.text == "blockDim")
      v = kernelCtx_.bDim[comp];
    else if (base.text == "gridDim")
      v = kernelCtx_.gDim[comp];
    else {
      diag_.error(e.loc, "unknown builtin " + base.text);
      return makeScalar(b_.constI32(0), ScalarTy::Int);
    }
    return makeScalar(v, ScalarTy::Int);
  }

  /// Resolves an lvalue (assignable location).
  bool genLValue(Expr &e, LV &out) {
    if (e.kind == ExprKind::VarRef) {
      Sym *sym = lookup(e.text);
      if (!sym || sym->kind != Sym::ScalarVar) {
        diag_.error(e.loc, "cannot assign to " + e.text);
        return false;
      }
      out.mem = sym->mem;
      out.elem = sym->ty.scalar;
      return true;
    }
    if (e.kind == ExprKind::Index) {
      // Collect the full index chain.
      std::vector<Expr *> idxExprs;
      Expr *base = &e;
      while (base->kind == ExprKind::Index) {
        idxExprs.insert(idxExprs.begin(), base->children[1].get());
        base = base->children[0].get();
      }
      EV baseV = genExpr(*base);
      if (!baseV.isMem()) {
        diag_.error(e.loc, "indexing a non-pointer value");
        return false;
      }
      out.elem = baseV.ty.scalar;
      if (baseV.ty.isArray()) {
        if (idxExprs.size() != baseV.ty.arrayDims.size()) {
          diag_.error(e.loc, "array index rank mismatch");
          return false;
        }
        out.mem = baseV.mem;
        for (Expr *ie : idxExprs)
          out.idxs.push_back(toIndexV(genExpr(*ie)));
        return true;
      }
      // Pointer: single linear index plus carried offset.
      if (idxExprs.size() != 1) {
        diag_.error(e.loc, "multi-dimensional indexing of a pointer");
        return false;
      }
      Value idx = toIndexV(genExpr(*idxExprs[0]));
      if (baseV.offset)
        idx = b_.addi(idx, baseV.offset);
      out.mem = baseV.mem;
      out.idxs.push_back(idx);
      return true;
    }
    if (e.kind == ExprKind::Unary && e.text == "*") {
      EV v = genExpr(*e.children[0]);
      if (!v.isMem()) {
        diag_.error(e.loc, "dereferencing a non-pointer");
        return false;
      }
      out.mem = v.mem;
      out.idxs.push_back(v.offset ? v.offset : b_.constIndex(0));
      out.elem = v.ty.scalar;
      return true;
    }
    diag_.error(e.loc, "expression is not assignable");
    return false;
  }

  EV genIndexLoad(Expr &e) {
    // Partial indexing of an array yields a pointer (decay), e.g.
    // `shared2d[ty]` passed around as float*.
    std::vector<Expr *> idxExprs;
    Expr *base = &e;
    while (base->kind == ExprKind::Index) {
      idxExprs.insert(idxExprs.begin(), base->children[1].get());
      base = base->children[0].get();
    }
    EV baseV = genExpr(*base);
    if (!baseV.isMem()) {
      diag_.error(e.loc, "indexing a non-pointer value");
      return makeScalar(b_.constI32(0), ScalarTy::Int);
    }
    if (baseV.ty.isArray() && idxExprs.size() < baseV.ty.arrayDims.size()) {
      std::vector<Value> leading;
      for (Expr *ie : idxExprs)
        leading.push_back(toIndexV(genExpr(*ie)));
      EV out;
      out.ty.scalar = baseV.ty.scalar;
      out.ty.pointerDepth = 1;
      out.ty.arrayDims.assign(baseV.ty.arrayDims.begin() + idxExprs.size(),
                              baseV.ty.arrayDims.end());
      // Remaining dims kept as array type so further indexing works.
      if (out.ty.arrayDims.size() > 1)
        out.ty.pointerDepth = 0;
      out.mem = b_.subview(baseV.mem, leading);
      return out;
    }
    LV lv;
    if (!genLValue(e, lv))
      return makeScalar(b_.constI32(0), ScalarTy::Int);
    return makeScalar(b_.load(lv.mem, lv.idxs), lv.elem);
  }

  EV genUnary(Expr &e) {
    if (e.text == "*") {
      LV lv;
      if (!genLValue(e, lv))
        return makeScalar(b_.constI32(0), ScalarTy::Int);
      return makeScalar(b_.load(lv.mem, lv.idxs), lv.elem);
    }
    if (e.text == "++" || e.text == "--") {
      LV lv;
      if (!genLValue(*e.children[0], lv))
        return makeScalar(b_.constI32(0), ScalarTy::Int);
      Value old = b_.load(lv.mem, lv.idxs);
      Value one = lv.elem == ScalarTy::Float || lv.elem == ScalarTy::Double
                      ? b_.constFloat(1.0, irType(lv.elem))
                      : b_.constInt(1, irType(lv.elem));
      Value next = e.text == "++"
                       ? (irType(lv.elem).isFloat() ? b_.addf(old, one)
                                                    : b_.addi(old, one))
                       : (irType(lv.elem).isFloat() ? b_.subf(old, one)
                                                    : b_.subi(old, one));
      b_.store(next, lv.mem, lv.idxs);
      return makeScalar(next, lv.elem);
    }
    EV v = genExpr(*e.children[0]);
    if (e.text == "-") {
      if (v.ty.isFloating())
        return makeScalar(b_.unary(OpKind::NegF, v.scalar), v.ty.scalar);
      return makeScalar(b_.subi(zeroOf(v.ty.scalar), v.scalar), v.ty.scalar);
    }
    if (e.text == "!") {
      Value c = v.ty.scalar == ScalarTy::Bool
                    ? v.scalar
                    : convert(v.scalar, v.ty.scalar, ScalarTy::Bool);
      return makeScalar(b_.cmpi(CmpIPred::eq, c, b_.constBool(false)),
                        ScalarTy::Bool);
    }
    if (e.text == "~") {
      Value minusOne = b_.constInt(-1, irType(v.ty.scalar));
      return makeScalar(b_.binary(OpKind::XOrI, v.scalar, minusOne),
                        v.ty.scalar);
    }
    diag_.error(e.loc, "unsupported unary operator " + e.text);
    return makeScalar(b_.constI32(0), ScalarTy::Int);
  }

  EV genBinary(Expr &e) {
    const std::string &op = e.text;
    // Short-circuit logical operators.
    if (op == "&&" || op == "||") {
      Value lhs = genCondition(*e.children[0]);
      IfOp ifOp = IfOp::create(b_, lhs, {Type::i1()}, true);
      Op *afterOp = ifOp.op->next();
      Block *cont = ifOp.op->parent();
      {
        b_.setInsertionPointToEnd(&ifOp.thenBlock());
        Value r = op == "&&" ? genCondition(*e.children[1])
                             : b_.constBool(true);
        b_.yield({r});
      }
      {
        b_.setInsertionPointToEnd(&ifOp.elseBlock());
        Value r = op == "&&" ? b_.constBool(false)
                             : genCondition(*e.children[1]);
        b_.yield({r});
      }
      b_.setInsertionPointToEnd(cont);
      if (afterOp)
        b_.setInsertionPoint(afterOp);
      return makeScalar(ifOp.op->result(0), ScalarTy::Bool);
    }

    EV lhs = genExpr(*e.children[0]);
    EV rhs = genExpr(*e.children[1]);

    // Pointer arithmetic: p + i / p - i.
    if (lhs.isMem() && !rhs.isMem() && (op == "+" || op == "-")) {
      Value delta = b_.toIndex(rhs.scalar);
      if (op == "-")
        delta = b_.subi(b_.constIndex(0), delta);
      EV out = lhs;
      out.offset = lhs.offset ? b_.addi(lhs.offset, delta) : delta;
      return out;
    }

    ScalarTy common = promote(lhs.ty.scalar, rhs.ty.scalar);
    bool isCmp = op == "<" || op == "<=" || op == ">" || op == ">=" ||
                 op == "==" || op == "!=";
    Value a = convert(lhs.scalar, lhs.ty.scalar, common);
    Value c = convert(rhs.scalar, rhs.ty.scalar, common);
    bool isF = common == ScalarTy::Float || common == ScalarTy::Double;

    if (isCmp) {
      if (isF) {
        CmpFPred pred = op == "<"    ? CmpFPred::olt
                        : op == "<=" ? CmpFPred::ole
                        : op == ">"  ? CmpFPred::ogt
                        : op == ">=" ? CmpFPred::oge
                        : op == "==" ? CmpFPred::oeq
                                     : CmpFPred::one;
        return makeScalar(b_.cmpf(pred, a, c), ScalarTy::Bool);
      }
      CmpIPred pred = op == "<"    ? CmpIPred::slt
                      : op == "<=" ? CmpIPred::sle
                      : op == ">"  ? CmpIPred::sgt
                      : op == ">=" ? CmpIPred::sge
                      : op == "==" ? CmpIPred::eq
                                   : CmpIPred::ne;
      return makeScalar(b_.cmpi(pred, a, c), ScalarTy::Bool);
    }

    OpKind kind;
    if (op == "+") kind = isF ? OpKind::AddF : OpKind::AddI;
    else if (op == "-") kind = isF ? OpKind::SubF : OpKind::SubI;
    else if (op == "*") kind = isF ? OpKind::MulF : OpKind::MulI;
    else if (op == "/") kind = isF ? OpKind::DivF : OpKind::DivSI;
    else if (op == "%") kind = isF ? OpKind::RemF : OpKind::RemSI;
    else if (op == "&") kind = OpKind::AndI;
    else if (op == "|") kind = OpKind::OrI;
    else if (op == "^") kind = OpKind::XOrI;
    else if (op == "<<") kind = OpKind::ShLI;
    else if (op == ">>") kind = OpKind::ShRSI;
    else {
      diag_.error(e.loc, "unsupported binary operator " + op);
      return makeScalar(b_.constI32(0), ScalarTy::Int);
    }
    // Bitwise/shift on bools promote to int.
    if (!isF && common == ScalarTy::Bool) {
      common = ScalarTy::Int;
      a = convert(a, ScalarTy::Bool, common);
      c = convert(c, ScalarTy::Bool, common);
    }
    return makeScalar(b_.binary(kind, a, c), common);
  }

  EV genAssign(Expr &e) {
    LV lv;
    if (!genLValue(*e.children[0], lv))
      return makeScalar(b_.constI32(0), ScalarTy::Int);
    EV rhs = genExpr(*e.children[1]);
    Value value = convert(rhs.scalar, rhs.ty.scalar, lv.elem);
    if (e.text != "=") {
      const std::string op = e.text.substr(0, e.text.size() - 1);
      bool isF = lv.elem == ScalarTy::Float || lv.elem == ScalarTy::Double;
      bool intOnly = op != "+" && op != "-" && op != "*" && op != "/";
      if (intOnly && (isF || rhs.ty.scalar == ScalarTy::Float ||
                      rhs.ty.scalar == ScalarTy::Double)) {
        diag_.error(e.loc,
                    "operator " + e.text + " requires integer operands");
        return makeScalar(b_.constI32(0), ScalarTy::Int);
      }
      Value old = b_.load(lv.mem, lv.idxs);
      OpKind kind = op == "+"    ? (isF ? OpKind::AddF : OpKind::AddI)
                    : op == "-"  ? (isF ? OpKind::SubF : OpKind::SubI)
                    : op == "*"  ? (isF ? OpKind::MulF : OpKind::MulI)
                    : op == "/"  ? (isF ? OpKind::DivF : OpKind::DivSI)
                    : op == "%"  ? OpKind::RemSI
                    : op == "<<" ? OpKind::ShLI
                    : op == ">>" ? OpKind::ShRSI
                    : op == "&"  ? OpKind::AndI
                    : op == "|"  ? OpKind::OrI
                                 : OpKind::XOrI;
      value = b_.binary(kind, old, value);
    }
    b_.store(value, lv.mem, lv.idxs);
    return makeScalar(value, lv.elem);
  }

  EV genPostIncDec(Expr &e) {
    LV lv;
    if (!genLValue(*e.children[0], lv))
      return makeScalar(b_.constI32(0), ScalarTy::Int);
    Value old = b_.load(lv.mem, lv.idxs);
    bool isF = lv.elem == ScalarTy::Float || lv.elem == ScalarTy::Double;
    Value one = isF ? b_.constFloat(1.0, irType(lv.elem))
                    : b_.constInt(1, irType(lv.elem));
    Value next = e.text == "++"
                     ? (isF ? b_.addf(old, one) : b_.addi(old, one))
                     : (isF ? b_.subf(old, one) : b_.subi(old, one));
    b_.store(next, lv.mem, lv.idxs);
    return makeScalar(old, lv.elem);
  }

  EV genTernary(Expr &e) {
    Value cond = genCondition(*e.children[0]);
    // Generate both branches in an scf.if so that side effects stay
    // conditional; unify the result type.
    // A pre-pass evaluates types by generating into a throwaway spot is
    // overkill: generate then-value first, convert else to its type.
    IfOp ifOp = IfOp::create(b_, cond, {Type::i32()}, true);
    // We do not know the result type yet; rebuild once known. Simpler:
    // generate both branches into the regions, then retype.
    Op *afterOp = ifOp.op->next();
    Block *cont = ifOp.op->parent();
    b_.setInsertionPointToEnd(&ifOp.thenBlock());
    EV tv = genExpr(*e.children[1]);
    b_.setInsertionPointToEnd(&ifOp.elseBlock());
    EV ev = genExpr(*e.children[2]);
    ScalarTy common = promote(tv.ty.scalar, ev.ty.scalar);
    b_.setInsertionPointToEnd(&ifOp.thenBlock());
    b_.yield({convert(tv.scalar, tv.ty.scalar, common)});
    b_.setInsertionPointToEnd(&ifOp.elseBlock());
    b_.yield({convert(ev.scalar, ev.ty.scalar, common)});
    // Rebuild the if with the right result type.
    std::vector<Value> operands = {ifOp.cond()};
    Op *newIf = Op::create(ifOp.op->arena(), OpKind::ScfIf, e.loc,
                           {irType(common)}, operands, 2);
    ifOp.op->parent()->insertBefore(ifOp.op, newIf);
    newIf->region(0).takeBlocks(ifOp.op->region(0));
    newIf->region(1).takeBlocks(ifOp.op->region(1));
    ifOp.op->erase();
    b_.setInsertionPointToEnd(cont);
    if (afterOp)
      b_.setInsertionPoint(afterOp);
    return makeScalar(newIf->result(0), common);
  }

  EV genCall(Expr &e) {
    const std::string &name = e.text;
    if (name == "__syncthreads") {
      b_.barrier();
      return makeScalar(b_.constI32(0), ScalarTy::Int);
    }
    // Math builtins.
    static const std::unordered_map<std::string, OpKind> kUnary32 = {
        {"sqrtf", OpKind::Sqrt}, {"expf", OpKind::Exp},
        {"logf", OpKind::Log},   {"fabsf", OpKind::Abs},
        {"sinf", OpKind::Sin},   {"cosf", OpKind::Cos},
        {"tanhf", OpKind::Tanh}, {"floorf", OpKind::Floor},
        {"ceilf", OpKind::Ceil}, {"__expf", OpKind::Exp},
        {"__logf", OpKind::Log},
    };
    static const std::unordered_map<std::string, OpKind> kUnary64 = {
        {"sqrt", OpKind::Sqrt}, {"exp", OpKind::Exp},
        {"log", OpKind::Log},   {"fabs", OpKind::Abs},
        {"sin", OpKind::Sin},   {"cos", OpKind::Cos},
        {"tanh", OpKind::Tanh}, {"floor", OpKind::Floor},
        {"ceil", OpKind::Ceil},
    };
    auto it32 = kUnary32.find(name);
    if (it32 != kUnary32.end() && e.children.size() == 1) {
      EV a = genExpr(*e.children[0]);
      Value v = convert(a.scalar, a.ty.scalar, ScalarTy::Float);
      return makeScalar(b_.unary(it32->second, v), ScalarTy::Float);
    }
    auto it64 = kUnary64.find(name);
    if (it64 != kUnary64.end() && e.children.size() == 1) {
      EV a = genExpr(*e.children[0]);
      Value v = convert(a.scalar, a.ty.scalar, ScalarTy::Double);
      return makeScalar(b_.unary(it64->second, v), ScalarTy::Double);
    }
    if ((name == "powf" || name == "__powf" || name == "pow") &&
        e.children.size() == 2) {
      ScalarTy t = name == "pow" ? ScalarTy::Double : ScalarTy::Float;
      EV a = genExpr(*e.children[0]);
      EV c = genExpr(*e.children[1]);
      return makeScalar(b_.binary(OpKind::Pow,
                                  convert(a.scalar, a.ty.scalar, t),
                                  convert(c.scalar, c.ty.scalar, t)),
                        t);
    }
    if (name == "log2f" && e.children.size() == 1) {
      EV a = genExpr(*e.children[0]);
      Value v = convert(a.scalar, a.ty.scalar, ScalarTy::Float);
      Value ln = b_.unary(OpKind::Log, v);
      Value ln2 = b_.constF32(0.6931471805599453);
      return makeScalar(b_.divf(ln, ln2), ScalarTy::Float);
    }
    if ((name == "min" || name == "max" || name == "fminf" ||
         name == "fmaxf" || name == "fmin" || name == "fmax") &&
        e.children.size() == 2) {
      EV a = genExpr(*e.children[0]);
      EV c = genExpr(*e.children[1]);
      ScalarTy common = promote(a.ty.scalar, c.ty.scalar);
      if (name == "fminf" || name == "fmaxf")
        common = ScalarTy::Float;
      if (name == "fmin" || name == "fmax")
        common = ScalarTy::Double;
      bool isF = common == ScalarTy::Float || common == ScalarTy::Double;
      bool isMin = name == "min" || name == "fminf" || name == "fmin";
      OpKind kind = isF ? (isMin ? OpKind::MinF : OpKind::MaxF)
                        : (isMin ? OpKind::MinSI : OpKind::MaxSI);
      return makeScalar(b_.binary(kind, convert(a.scalar, a.ty.scalar, common),
                                  convert(c.scalar, c.ty.scalar, common)),
                        common);
    }
    if (name == "abs" && e.children.size() == 1) {
      EV a = genExpr(*e.children[0]);
      if (a.ty.isFloating())
        return makeScalar(b_.unary(OpKind::Abs, a.scalar), a.ty.scalar);
      Value neg = b_.subi(zeroOf(a.ty.scalar), a.scalar);
      return makeScalar(
          b_.binary(OpKind::MaxSI, a.scalar, neg), a.ty.scalar);
    }

    // User function call.
    FuncDecl *callee = prog_.find(name);
    if (!callee) {
      diag_.error(e.loc, "call to unknown function " + name);
      return makeScalar(b_.constI32(0), ScalarTy::Int);
    }
    if (callee->qual == FnQual::Global) {
      diag_.error(e.loc, "kernels must be launched with <<<...>>>");
      return makeScalar(b_.constI32(0), ScalarTy::Int);
    }
    if (e.children.size() != callee->params.size()) {
      diag_.error(e.loc, "argument count mismatch calling " + name);
      return makeScalar(b_.constI32(0), ScalarTy::Int);
    }
    std::vector<Value> args;
    for (size_t i = 0; i < e.children.size(); ++i) {
      EV a = genExpr(*e.children[i]);
      const Ty &pty = callee->params[i].type;
      if (pty.isPointer()) {
        if (!a.isMem()) {
          diag_.error(e.loc, "expected pointer argument");
          return makeScalar(b_.constI32(0), ScalarTy::Int);
        }
        if (a.offset) {
          diag_.error(e.loc,
                      "passing an offset pointer to a call is unsupported");
          return makeScalar(b_.constI32(0), ScalarTy::Int);
        }
        Value mem = a.mem;
        // Arrays decay: flatten multi-dim local arrays via subview-free
        // reinterpretation is unsupported; require rank-1 here.
        if (mem.type().rank() != 1) {
          diag_.error(e.loc, "only 1-D buffers may be passed to calls");
          return makeScalar(b_.constI32(0), ScalarTy::Int);
        }
        args.push_back(mem);
      } else {
        args.push_back(convert(a.scalar, a.ty.scalar, pty.scalar));
      }
    }
    std::vector<Type> resultTypes;
    if (!callee->retTy.isVoid())
      resultTypes.push_back(irType(callee->retTy.scalar));
    CallOp call = CallOp::create(b_, name, args, resultTypes);
    if (resultTypes.empty())
      return makeScalar(b_.constI32(0), ScalarTy::Int);
    return makeScalar(call.op->result(0), callee->retTy.scalar);
  }

  Program &prog_;
  DiagnosticEngine &diag_;
  Op *moduleOp_ = nullptr;
  Builder b_;
  std::vector<std::unordered_map<std::string, Sym>> scopes_;
  Builder *sharedBuilder_ = nullptr;
  KernelCtx kernelCtx_;
  Value retValMem_;
  ScalarTy retElem_ = ScalarTy::Void;
};

} // namespace

ir::OwnedModule compileToIR(const std::string &source,
                            DiagnosticEngine &diag) {
  Program prog = parse(source, diag);
  ir::OwnedModule module;
  if (diag.hasErrors())
    return module;
  IRGen gen(prog, diag);
  gen.run(module.get());
  return module;
}

} // namespace paralift::frontend
