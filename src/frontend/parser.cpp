#include "frontend/parser.h"

#include "ir/intmath.h"

namespace paralift::frontend {

namespace {

class Parser {
public:
  Parser(std::vector<Token> toks, DiagnosticEngine &diag)
      : toks_(std::move(toks)), diag_(diag) {}

  Program run() {
    Program prog;
    while (!at(Tok::Eof) && !diag_.hasErrors()) {
      auto fn = parseFunc();
      if (fn)
        prog.funcs.push_back(std::move(fn));
      else
        break;
    }
    return prog;
  }

private:
  const Token &cur() const { return toks_[pos_]; }
  const Token &peek(size_t k = 1) const {
    return toks_[std::min(pos_ + k, toks_.size() - 1)];
  }
  bool at(Tok k) const { return cur().kind == k; }
  Token advance() { return toks_[pos_++]; }
  bool accept(Tok k) {
    if (at(k)) {
      ++pos_;
      return true;
    }
    return false;
  }
  Token expect(Tok k, const char *what) {
    if (!at(k)) {
      diag_.error(cur().loc, std::string("expected ") + what);
      return cur();
    }
    return advance();
  }

  bool atTypeStart() const {
    switch (cur().kind) {
    case Tok::KwVoid: case Tok::KwBool: case Tok::KwInt: case Tok::KwLong:
    case Tok::KwFloat: case Tok::KwDouble: case Tok::KwUnsigned:
    case Tok::KwConst:
      return true;
    default:
      return false;
    }
  }

  Ty parseType() {
    Ty ty;
    accept(Tok::KwConst);
    bool isUnsigned = accept(Tok::KwUnsigned);
    switch (cur().kind) {
    case Tok::KwVoid: ty.scalar = ScalarTy::Void; advance(); break;
    case Tok::KwBool: ty.scalar = ScalarTy::Bool; advance(); break;
    case Tok::KwInt: ty.scalar = ScalarTy::Int; advance(); break;
    case Tok::KwLong:
      ty.scalar = ScalarTy::Long;
      advance();
      accept(Tok::KwInt); // long int
      break;
    case Tok::KwFloat: ty.scalar = ScalarTy::Float; advance(); break;
    case Tok::KwDouble: ty.scalar = ScalarTy::Double; advance(); break;
    default:
      if (isUnsigned) {
        ty.scalar = ScalarTy::Int; // bare `unsigned`
        break;
      }
      diag_.error(cur().loc, "expected type");
      break;
    }
    accept(Tok::KwConst);
    while (at(Tok::Star)) {
      advance();
      ++ty.pointerDepth;
      accept(Tok::KwConst);
      accept(Tok::KwRestrict);
    }
    return ty;
  }

  std::unique_ptr<FuncDecl> parseFunc() {
    auto fn = std::make_unique<FuncDecl>();
    fn->loc = cur().loc;
    // Qualifiers.
    while (true) {
      if (accept(Tok::KwGlobal)) {
        fn->qual = FnQual::Global;
        continue;
      }
      if (accept(Tok::KwDevice)) {
        fn->qual = FnQual::Device;
        continue;
      }
      if (accept(Tok::KwHost) || accept(Tok::KwStatic) ||
          accept(Tok::KwInline))
        continue;
      break;
    }
    fn->retTy = parseType();
    fn->name = expect(Tok::Ident, "function name").text;
    expect(Tok::LParen, "(");
    if (!at(Tok::RParen)) {
      do {
        Param p;
        p.type = parseType();
        p.name = expect(Tok::Ident, "parameter name").text;
        fn->params.push_back(std::move(p));
      } while (accept(Tok::Comma));
    }
    expect(Tok::RParen, ")");
    fn->body = parseBlock();
    return fn;
  }

  StmtPtr parseBlock() {
    auto block = std::make_unique<Stmt>(StmtKind::Block, cur().loc);
    expect(Tok::LBrace, "{");
    while (!at(Tok::RBrace) && !at(Tok::Eof) && !diag_.hasErrors())
      block->stmts.push_back(parseStmt());
    expect(Tok::RBrace, "}");
    return block;
  }

  StmtPtr parseStmt() {
    SourceLoc loc = cur().loc;
    switch (cur().kind) {
    case Tok::LBrace:
      return parseBlock();
    case Tok::KwIf: {
      advance();
      auto s = std::make_unique<Stmt>(StmtKind::If, loc);
      expect(Tok::LParen, "(");
      s->exprs.push_back(parseExpr());
      expect(Tok::RParen, ")");
      s->stmts.push_back(parseStmt());
      if (accept(Tok::KwElse))
        s->stmts.push_back(parseStmt());
      return s;
    }
    case Tok::KwFor: {
      advance();
      auto s = std::make_unique<Stmt>(StmtKind::For, loc);
      expect(Tok::LParen, "(");
      if (at(Tok::Semi)) {
        advance();
        s->stmts.push_back(nullptr);
      } else if (atTypeStart()) {
        s->stmts.push_back(parseDecl(false));
      } else {
        auto init = std::make_unique<Stmt>(StmtKind::ExprStmt, cur().loc);
        init->exprs.push_back(parseExpr());
        expect(Tok::Semi, ";");
        s->stmts.push_back(std::move(init));
      }
      if (!at(Tok::Semi))
        s->exprs.push_back(parseExpr());
      else
        s->exprs.push_back(nullptr);
      expect(Tok::Semi, ";");
      if (!at(Tok::RParen))
        s->exprs.push_back(parseExpr());
      else
        s->exprs.push_back(nullptr);
      expect(Tok::RParen, ")");
      s->stmts.push_back(parseStmt());
      return s;
    }
    case Tok::KwWhile: {
      advance();
      auto s = std::make_unique<Stmt>(StmtKind::While, loc);
      expect(Tok::LParen, "(");
      s->exprs.push_back(parseExpr());
      expect(Tok::RParen, ")");
      s->stmts.push_back(parseStmt());
      return s;
    }
    case Tok::KwDo: {
      advance();
      auto s = std::make_unique<Stmt>(StmtKind::DoWhile, loc);
      s->stmts.push_back(parseStmt());
      expect(Tok::KwWhile, "while");
      expect(Tok::LParen, "(");
      s->exprs.push_back(parseExpr());
      expect(Tok::RParen, ")");
      expect(Tok::Semi, ";");
      return s;
    }
    case Tok::KwReturn: {
      advance();
      auto s = std::make_unique<Stmt>(StmtKind::Return, loc);
      if (!at(Tok::Semi))
        s->exprs.push_back(parseExpr());
      expect(Tok::Semi, ";");
      return s;
    }
    case Tok::PragmaOmpParallelFor: {
      Token pragma = advance();
      auto s = std::make_unique<Stmt>(StmtKind::Pragma, loc);
      s->collapse = pragma.collapse;
      if (!at(Tok::KwFor)) {
        diag_.error(cur().loc, "expected for loop after pragma");
        return s;
      }
      s->stmts.push_back(parseStmt());
      return s;
    }
    case Tok::KwShared: {
      advance();
      auto s = parseDecl(true);
      return s;
    }
    default:
      break;
    }
    if (atTypeStart())
      return parseDecl(false);
    // Kernel launch: ident <<< ... >>> ( args ) ;
    if (at(Tok::Ident) && peek().kind == Tok::LaunchOpen)
      return parseLaunch();
    auto s = std::make_unique<Stmt>(StmtKind::ExprStmt, loc);
    s->exprs.push_back(parseExpr());
    expect(Tok::Semi, ";");
    return s;
  }

  /// Parses `type name[dims] (= init)? (, name2 ...)? ;` producing a Block
  /// of Decl statements when multiple declarators are present.
  StmtPtr parseDecl(bool shared) {
    SourceLoc loc = cur().loc;
    Ty base = parseType();
    std::vector<StmtPtr> decls;
    do {
      auto d = std::make_unique<Stmt>(StmtKind::Decl, loc);
      d->isShared = shared;
      d->declTy = base;
      d->text = expect(Tok::Ident, "variable name").text;
      while (accept(Tok::LBracket)) {
        ExprPtr dim = parseExpr();
        int64_t value = 0;
        if (!evalConstInt(*dim, value))
          diag_.error(dim->loc, "array dimension must be a constant");
        d->declTy.arrayDims.push_back(value);
        expect(Tok::RBracket, "]");
      }
      if (accept(Tok::Assign))
        d->exprs.push_back(parseAssignment());
      decls.push_back(std::move(d));
    } while (accept(Tok::Comma));
    expect(Tok::Semi, ";");
    if (decls.size() == 1)
      return std::move(decls.front());
    auto block = std::make_unique<Stmt>(StmtKind::Block, loc);
    block->text = "#decl-group"; // transparent scope
    block->stmts = std::move(decls);
    return block;
  }

  StmtPtr parseLaunch() {
    SourceLoc loc = cur().loc;
    auto s = std::make_unique<Stmt>(StmtKind::Launch, loc);
    s->text = advance().text; // kernel name
    expect(Tok::LaunchOpen, "<<<");
    // Grid config: expr or dim3(x[,y[,z]]).
    parseLaunchConfig(*s);
    expect(Tok::Comma, ",");
    parseLaunchConfig(*s);
    expect(Tok::LaunchClose, ">>>");
    expect(Tok::LParen, "(");
    if (!at(Tok::RParen)) {
      do
        s->exprs.push_back(parseExpr());
      while (accept(Tok::Comma));
    }
    expect(Tok::RParen, ")");
    expect(Tok::Semi, ";");
    return s;
  }

  /// Appends 1-3 config expressions plus a count marker into s.stmts as a
  /// pseudo-Block holding the dimensionality in `collapse`.
  void parseLaunchConfig(Stmt &s) {
    auto cfg = std::make_unique<Stmt>(StmtKind::Block, cur().loc);
    if (accept(Tok::KwDim3)) {
      expect(Tok::LParen, "(");
      do
        cfg->exprs.push_back(parseExpr());
      while (accept(Tok::Comma));
      expect(Tok::RParen, ")");
    } else {
      cfg->exprs.push_back(parseExpr());
    }
    cfg->collapse = static_cast<int>(cfg->exprs.size());
    s.stmts.push_back(std::move(cfg));
  }

  /// Evaluates integer constant expressions (array dimensions) with the
  /// IR's integer semantics (ir/intmath.h). A division by zero is not a
  /// constant.
  bool evalConstInt(const Expr &e, int64_t &out) {
    switch (e.kind) {
    case ExprKind::IntLit:
      out = e.intVal;
      return true;
    case ExprKind::Unary:
      if (e.text == "-" && evalConstInt(*e.children[0], out)) {
        out = ir::intmath::sub(0, out);
        return true;
      }
      return false;
    case ExprKind::Binary: {
      int64_t a, b;
      if (!evalConstInt(*e.children[0], a) ||
          !evalConstInt(*e.children[1], b))
        return false;
      ir::OpKind k;
      if (e.text == "+") k = ir::OpKind::AddI;
      else if (e.text == "-") k = ir::OpKind::SubI;
      else if (e.text == "*") k = ir::OpKind::MulI;
      else if (e.text == "/" && b != 0) k = ir::OpKind::DivSI;
      else if (e.text == "%" && b != 0) k = ir::OpKind::RemSI;
      else if (e.text == "<<") k = ir::OpKind::ShLI;
      else if (e.text == ">>") k = ir::OpKind::ShRSI;
      else return false;
      out = ir::intmath::binary(k, a, b);
      return true;
    }
    default:
      return false;
    }
  }

  //===------------------------------------------------------------------===//
  // Expressions
  //===------------------------------------------------------------------===//

  ExprPtr parseExpr() { return parseAssignment(); }

  ExprPtr parseAssignment() {
    ExprPtr lhs = parseTernary();
    switch (cur().kind) {
    case Tok::Assign: case Tok::PlusAssign: case Tok::MinusAssign:
    case Tok::StarAssign: case Tok::SlashAssign: case Tok::PercentAssign:
    case Tok::ShlAssign: case Tok::ShrAssign: case Tok::AmpAssign:
    case Tok::PipeAssign: case Tok::CaretAssign: {
      Token op = advance();
      auto e = std::make_unique<Expr>(ExprKind::Assign, op.loc);
      e->text = assignSpelling(op.kind);
      e->children.push_back(std::move(lhs));
      e->children.push_back(parseAssignment());
      return e;
    }
    default:
      return lhs;
    }
  }

  static const char *assignSpelling(Tok k) {
    switch (k) {
    case Tok::PlusAssign: return "+=";
    case Tok::MinusAssign: return "-=";
    case Tok::StarAssign: return "*=";
    case Tok::SlashAssign: return "/=";
    case Tok::PercentAssign: return "%=";
    case Tok::ShlAssign: return "<<=";
    case Tok::ShrAssign: return ">>=";
    case Tok::AmpAssign: return "&=";
    case Tok::PipeAssign: return "|=";
    case Tok::CaretAssign: return "^=";
    default: return "=";
    }
  }

  ExprPtr parseTernary() {
    ExprPtr cond = parseBinary(0);
    if (!accept(Tok::Question))
      return cond;
    auto e = std::make_unique<Expr>(ExprKind::Ternary, cond->loc);
    e->children.push_back(std::move(cond));
    e->children.push_back(parseExpr());
    expect(Tok::Colon, ":");
    e->children.push_back(parseTernary());
    return e;
  }

  /// Precedence-climbing over binary operators.
  static int precOf(Tok k) {
    switch (k) {
    case Tok::OrOr: return 1;
    case Tok::AndAnd: return 2;
    case Tok::Pipe: return 3;
    case Tok::Caret: return 4;
    case Tok::Amp: return 5;
    case Tok::EqEq: case Tok::NotEq: return 6;
    case Tok::Lt: case Tok::Le: case Tok::Gt: case Tok::Ge: return 7;
    case Tok::Shl: case Tok::Shr: return 8;
    case Tok::Plus: case Tok::Minus: return 9;
    case Tok::Star: case Tok::Slash: case Tok::Percent: return 10;
    default: return -1;
    }
  }
  static const char *spellingOf(Tok k) {
    switch (k) {
    case Tok::OrOr: return "||";
    case Tok::AndAnd: return "&&";
    case Tok::Pipe: return "|";
    case Tok::Caret: return "^";
    case Tok::Amp: return "&";
    case Tok::EqEq: return "==";
    case Tok::NotEq: return "!=";
    case Tok::Lt: return "<";
    case Tok::Le: return "<=";
    case Tok::Gt: return ">";
    case Tok::Ge: return ">=";
    case Tok::Shl: return "<<";
    case Tok::Shr: return ">>";
    case Tok::Plus: return "+";
    case Tok::Minus: return "-";
    case Tok::Star: return "*";
    case Tok::Slash: return "/";
    case Tok::Percent: return "%";
    default: return "?";
    }
  }

  ExprPtr parseBinary(int minPrec) {
    ExprPtr lhs = parseUnary();
    while (true) {
      int prec = precOf(cur().kind);
      if (prec < 0 || prec < minPrec)
        return lhs;
      Token op = advance();
      ExprPtr rhs = parseBinary(prec + 1);
      auto e = std::make_unique<Expr>(ExprKind::Binary, op.loc);
      e->text = spellingOf(op.kind);
      e->children.push_back(std::move(lhs));
      e->children.push_back(std::move(rhs));
      lhs = std::move(e);
    }
  }

  ExprPtr parseUnary() {
    SourceLoc loc = cur().loc;
    switch (cur().kind) {
    case Tok::Minus: case Tok::Not: case Tok::Tilde: case Tok::Star: {
      Token op = advance();
      auto e = std::make_unique<Expr>(ExprKind::Unary, loc);
      e->text = op.kind == Tok::Minus ? "-"
                : op.kind == Tok::Not ? "!"
                : op.kind == Tok::Tilde ? "~"
                                        : "*";
      e->children.push_back(parseUnary());
      return e;
    }
    case Tok::PlusPlus: case Tok::MinusMinus: {
      Token op = advance();
      auto e = std::make_unique<Expr>(ExprKind::Unary, loc);
      e->text = op.kind == Tok::PlusPlus ? "++" : "--";
      e->children.push_back(parseUnary());
      return e;
    }
    case Tok::LParen:
      // Cast: '(' type ')' unary.
      if (atTypeStartAt(pos_ + 1)) {
        advance();
        Ty ty = parseType();
        expect(Tok::RParen, ")");
        auto e = std::make_unique<Expr>(ExprKind::Cast, loc);
        e->castTy = ty;
        e->children.push_back(parseUnary());
        return e;
      }
      break;
    default:
      break;
    }
    return parsePostfix();
  }

  bool atTypeStartAt(size_t p) const {
    switch (toks_[std::min(p, toks_.size() - 1)].kind) {
    case Tok::KwVoid: case Tok::KwBool: case Tok::KwInt: case Tok::KwLong:
    case Tok::KwFloat: case Tok::KwDouble: case Tok::KwUnsigned:
    case Tok::KwConst:
      return true;
    default:
      return false;
    }
  }

  ExprPtr parsePostfix() {
    ExprPtr e = parsePrimary();
    while (true) {
      SourceLoc loc = cur().loc;
      if (accept(Tok::LBracket)) {
        auto idx = std::make_unique<Expr>(ExprKind::Index, loc);
        idx->children.push_back(std::move(e));
        idx->children.push_back(parseExpr());
        expect(Tok::RBracket, "]");
        e = std::move(idx);
      } else if (accept(Tok::Dot)) {
        auto mem = std::make_unique<Expr>(ExprKind::Member, loc);
        mem->text = expect(Tok::Ident, "member name").text;
        mem->children.push_back(std::move(e));
        e = std::move(mem);
      } else if (at(Tok::PlusPlus) || at(Tok::MinusMinus)) {
        Token op = advance();
        auto inc = std::make_unique<Expr>(ExprKind::PostIncDec, loc);
        inc->text = op.kind == Tok::PlusPlus ? "++" : "--";
        inc->children.push_back(std::move(e));
        e = std::move(inc);
      } else {
        return e;
      }
    }
  }

  ExprPtr parsePrimary() {
    Token t = advance();
    switch (t.kind) {
    case Tok::IntLit: {
      auto e = std::make_unique<Expr>(ExprKind::IntLit, t.loc);
      e->intVal = t.intVal;
      return e;
    }
    case Tok::FloatLit: {
      auto e = std::make_unique<Expr>(ExprKind::FloatLit, t.loc);
      e->floatVal = t.floatVal;
      e->isFloat32 = t.isFloat32;
      return e;
    }
    case Tok::KwTrue: case Tok::KwFalse: {
      auto e = std::make_unique<Expr>(ExprKind::BoolLit, t.loc);
      e->intVal = t.kind == Tok::KwTrue;
      return e;
    }
    case Tok::Ident: {
      if (at(Tok::LParen)) {
        advance();
        auto call = std::make_unique<Expr>(ExprKind::Call, t.loc);
        call->text = t.text;
        if (!at(Tok::RParen)) {
          do
            call->children.push_back(parseExpr());
          while (accept(Tok::Comma));
        }
        expect(Tok::RParen, ")");
        return call;
      }
      auto e = std::make_unique<Expr>(ExprKind::VarRef, t.loc);
      e->text = t.text;
      return e;
    }
    case Tok::LParen: {
      ExprPtr e = parseExpr();
      expect(Tok::RParen, ")");
      return e;
    }
    default:
      diag_.error(t.loc, "expected expression");
      return std::make_unique<Expr>(ExprKind::IntLit, t.loc);
    }
  }

  std::vector<Token> toks_;
  DiagnosticEngine &diag_;
  size_t pos_ = 0;
};

} // namespace

Program parse(const std::string &source, DiagnosticEngine &diag) {
  auto toks = tokenize(source, diag);
  if (diag.hasErrors())
    return {};
  Parser p(std::move(toks), diag);
  return p.run();
}

} // namespace paralift::frontend
