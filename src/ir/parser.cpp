#include "ir/parser.h"

#include "support/trace.h"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cstdlib>
#include <string_view>
#include <unordered_map>

namespace paralift::ir {

namespace {

//===----------------------------------------------------------------------===//
// Numeric literal parsing
//===----------------------------------------------------------------------===//
// std::stod/std::stoll throw (std::stod even for *valid* printer output:
// subnormal spellings like 4.9e-324 raise out_of_range via ERANGE, which
// would crash a pass-cache replay re-parsing a cached attribute). These
// wrappers never throw; float parsing keeps strtod's clamped result for
// out-of-range magnitudes (denormals, ±HUGE_VAL) since the printer only
// emits spellings of representable doubles, and inf/nan spellings parse
// through strtod directly.

bool parseFloatText(std::string_view s, double &out) {
  if (s.empty())
    return false;
  // strtod needs a terminator; float literals are short, so a local copy
  // is cheap and keeps the clamping/inf/nan semantics exactly.
  std::string buf(s);
  char *end = nullptr;
  out = std::strtod(buf.c_str(), &end);
  return end == buf.c_str() + buf.size();
}

bool parseIntText(std::string_view s, int64_t &out) {
  if (s.empty())
    return false;
  auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  return ec == std::errc() && p == s.data() + s.size();
}

//===----------------------------------------------------------------------===//
// Small-buffer vector
//===----------------------------------------------------------------------===//

/// Stack-buffered vector for parseOp's per-op lists (operands, result
/// ids/types, attrs, regions): typical ops fit in the inline buffer, so
/// parsing an op performs no heap allocation for them. Grows to the heap
/// only past N elements.
template <typename T, unsigned N> class SmallVec {
public:
  SmallVec() : data_(reinterpret_cast<T *>(inline_)) {}
  ~SmallVec() {
    for (uint32_t i = 0; i < size_; ++i)
      data_[i].~T();
    if (data_ != reinterpret_cast<T *>(inline_))
      ::operator delete(data_);
  }
  SmallVec(const SmallVec &) = delete;
  SmallVec &operator=(const SmallVec &) = delete;

  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }
  const T *data() const { return data_; }
  T *begin() { return data_; }
  T *end() { return data_ + size_; }
  T &operator[](size_t i) { return data_[i]; }

  void push_back(T v) {
    if (size_ == cap_)
      grow();
    new (data_ + size_++) T(std::move(v));
  }

private:
  void grow() {
    uint32_t cap = cap_ * 2;
    T *fresh = static_cast<T *>(::operator new(cap * sizeof(T)));
    for (uint32_t i = 0; i < size_; ++i) {
      new (fresh + i) T(std::move(data_[i]));
      data_[i].~T();
    }
    if (data_ != reinterpret_cast<T *>(inline_))
      ::operator delete(data_);
    data_ = fresh;
    cap_ = cap;
  }

  alignas(T) unsigned char inline_[N * sizeof(T)];
  T *data_;
  uint32_t size_ = 0, cap_ = N;
};

//===----------------------------------------------------------------------===//
// Token stream
//===----------------------------------------------------------------------===//

enum class Tok {
  Eof,
  SsaId,   ///< %N            (text = digits)
  Ident,   ///< op/attr names (may contain '.')
  Integer, ///< [-]digits
  Float,   ///< [-]digits with '.' and/or exponent
  Str,     ///< "..." (no escapes; symbol names only)
  MemRef,  ///< memref<...> captured as one token (text = contents of <>)
  LParen,
  RParen,
  LBrace,
  RBrace,
  LBracket,
  RBracket,
  Comma,
  Colon,
  Equal,
};

struct Token {
  Tok kind = Tok::Eof;
  std::string_view text; ///< slice of the source buffer (no escapes)
  SourceLoc loc;
};

/// Splits IR text into tokens. `memref<...>` is lexed as a single token so
/// the shape grammar (10x?xf32) never collides with identifier lexing.
class Lexer {
public:
  Lexer(const std::string &src, DiagnosticEngine &diag)
      : src_(src), diag_(diag) {
    advance();
    advance(); // fill cur_ and peek_
  }

  const Token &cur() const { return cur_; }
  const Token &peek() const { return peek_; }

  void advance() {
    cur_ = peek_;
    peek_ = lexOne();
  }

private:
  SourceLoc here() const { return {line_, col_}; }

  char at(size_t i) const { return i < src_.size() ? src_[i] : '\0'; }

  void bump() {
    if (at(pos_) == '\n') {
      ++line_;
      col_ = 1;
    } else {
      ++col_;
    }
    ++pos_;
  }

  /// The token text is always a contiguous slice of the source (the
  /// grammar has no escapes), so tokens carry string_views into src_ —
  /// no per-token allocation, and Token copies are trivial.
  std::string_view slice(size_t from) const {
    return std::string_view(src_).substr(from, pos_ - from);
  }

  Token lexOne() {
    while (pos_ < src_.size() && std::isspace(static_cast<unsigned char>(
                                     src_[pos_])))
      bump();
    Token t;
    t.loc = here();
    if (pos_ >= src_.size())
      return t;

    char c = src_[pos_];
    auto single = [&](Tok k) {
      t.kind = k;
      t.text = std::string_view(src_).substr(pos_, 1);
      bump();
      return t;
    };
    switch (c) {
    case '(': return single(Tok::LParen);
    case ')': return single(Tok::RParen);
    case '{': return single(Tok::LBrace);
    case '}': return single(Tok::RBrace);
    case '[': return single(Tok::LBracket);
    case ']': return single(Tok::RBracket);
    case ',': return single(Tok::Comma);
    case ':': return single(Tok::Colon);
    case '=': return single(Tok::Equal);
    default: break;
    }

    if (c == '%') {
      bump();
      size_t start = pos_;
      while (std::isdigit(static_cast<unsigned char>(at(pos_))))
        bump();
      if (pos_ == start) {
        diag_.error(t.loc, "expected value number after '%'");
        return t; // Eof ends parsing
      }
      t.kind = Tok::SsaId;
      t.text = slice(start);
      return t;
    }

    if (c == '"') {
      bump();
      size_t start = pos_;
      while (at(pos_) != '"' && pos_ < src_.size())
        bump();
      if (at(pos_) != '"') {
        diag_.error(t.loc, "unterminated string");
        return t;
      }
      t.kind = Tok::Str;
      t.text = slice(start);
      bump();
      return t;
    }

    if (c == '-' || std::isdigit(static_cast<unsigned char>(c))) {
      size_t start = pos_;
      bool isFloat = false;
      if (c == '-') {
        bump();
        // "-inf" / "-nan"
        if (std::isalpha(static_cast<unsigned char>(at(pos_)))) {
          while (std::isalpha(static_cast<unsigned char>(at(pos_))))
            bump();
          t.kind = Tok::Float;
          t.text = slice(start);
          return t;
        }
      }
      while (std::isdigit(static_cast<unsigned char>(at(pos_))))
        bump();
      if (at(pos_) == '.') {
        isFloat = true;
        bump();
        while (std::isdigit(static_cast<unsigned char>(at(pos_))))
          bump();
      }
      if (at(pos_) == 'e' || at(pos_) == 'E') {
        isFloat = true;
        bump();
        if (at(pos_) == '+' || at(pos_) == '-')
          bump();
        while (std::isdigit(static_cast<unsigned char>(at(pos_))))
          bump();
      }
      t.kind = isFloat ? Tok::Float : Tok::Integer;
      t.text = slice(start);
      return t;
    }

    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t start = pos_;
      while (std::isalnum(static_cast<unsigned char>(at(pos_))) ||
             at(pos_) == '_' || at(pos_) == '.')
        bump();
      std::string_view id = slice(start);
      if (id == "memref" && at(pos_) == '<') {
        bump();
        size_t inner = pos_;
        while (at(pos_) != '>' && pos_ < src_.size())
          bump();
        if (at(pos_) != '>') {
          diag_.error(t.loc, "unterminated memref type");
          return t;
        }
        t.kind = Tok::MemRef;
        t.text = slice(inner);
        bump();
        return t;
      }
      if (id == "inf" || id == "nan") {
        t.kind = Tok::Float;
        t.text = id;
        return t;
      }
      t.kind = Tok::Ident;
      t.text = id;
      return t;
    }

    diag_.error(t.loc, std::string("unexpected character '") + c + "'");
    bump();
    return t;
  }

  const std::string &src_;
  DiagnosticEngine &diag_;
  size_t pos_ = 0;
  uint32_t line_ = 1, col_ = 1;
  Token cur_, peek_;
};

//===----------------------------------------------------------------------===//
// Type parsing
//===----------------------------------------------------------------------===//

TypeKind scalarKindFromName(std::string_view s) {
  if (s == "i1") return TypeKind::I1;
  if (s == "i32") return TypeKind::I32;
  if (s == "i64") return TypeKind::I64;
  if (s == "f32") return TypeKind::F32;
  if (s == "f64") return TypeKind::F64;
  if (s == "index") return TypeKind::Index;
  if (s == "none") return TypeKind::None;
  return TypeKind::MemRef; // sentinel for "not a scalar name"
}

/// Parses the inside of memref<...>: DIMx...xELEM where DIM is an integer
/// or '?'. Returns Type() on malformed input. The remainder is probed as
/// an element name before splitting on 'x' because "index" itself
/// contains one.
Type parseMemRefBody(std::string_view body) {
  std::vector<int64_t> shape;
  size_t pos = 0;
  while (pos <= body.size()) {
    std::string_view rest = body.substr(pos);
    TypeKind elem = scalarKindFromName(rest);
    if (elem != TypeKind::MemRef) {
      if (elem == TypeKind::None)
        return Type();
      return Type::memref(elem, std::move(shape));
    }
    size_t x = body.find('x', pos);
    if (x == std::string_view::npos)
      return Type(); // trailing component is not a scalar type
    std::string_view part = body.substr(pos, x - pos);
    if (part == "?") {
      shape.push_back(Type::kDynamic);
    } else {
      int64_t dim = 0;
      if (part.empty() ||
          part.find_first_not_of("0123456789") != std::string_view::npos ||
          !parseIntText(part, dim))
        return Type();
      shape.push_back(dim);
    }
    pos = x + 1;
  }
  return Type();
}

//===----------------------------------------------------------------------===//
// Parser
//===----------------------------------------------------------------------===//

/// Heterogeneous hashing so string_view tokens look up without a
/// temporary std::string.
struct SvHash {
  using is_transparent = void;
  size_t operator()(std::string_view s) const {
    return std::hash<std::string_view>{}(s);
  }
};

using OpNameMap =
    std::unordered_map<std::string, OpKind, SvHash, std::equal_to<>>;

const OpNameMap &opNameTable() {
  static const OpNameMap table = [] {
    OpNameMap t;
    for (unsigned k = 0; k < static_cast<unsigned>(OpKind::kNumOpKinds); ++k)
      t.emplace(opKindName(static_cast<OpKind>(k)), static_cast<OpKind>(k));
    return t;
  }();
  return table;
}

class Parser {
public:
  /// All parsed IR is allocated from `arena` — the destination module's,
  /// so parsed ops can be spliced into it without crossing arenas.
  Parser(IRArena &arena, const std::string &src, DiagnosticEngine &diag)
      : arena_(arena), lex_(src, diag), diag_(diag) {}

  /// Parses exactly one top-level op (the module) followed by EOF.
  Op *parseTopLevel() {
    Op *op = parseOp();
    if (!op)
      return nullptr;
    if (lex_.cur().kind != Tok::Eof) {
      error("expected end of input after top-level op");
      Op::destroy(op);
      return nullptr;
    }
    return op;
  }

private:
  void error(const std::string &msg) { diag_.error(lex_.cur().loc, msg); }

  bool expect(Tok kind, const char *what) {
    if (lex_.cur().kind != kind) {
      error(std::string("expected ") + what);
      return false;
    }
    lex_.advance();
    return true;
  }

  /// SsaId token text is pure digits (the lexer guarantees it), so the
  /// value table keys on the numeric id — no per-lookup string hashing
  /// or allocation. %07 and %7 deliberately alias (the printer never
  /// emits leading zeros).
  static uint64_t idKey(std::string_view id) {
    uint64_t key = 0;
    std::from_chars(id.data(), id.data() + id.size(), key);
    return key;
  }

  Value lookup(std::string_view id) {
    auto it = values_.find(idKey(id));
    if (it == values_.end()) {
      error("use of undefined value %" + std::string(id));
      return Value();
    }
    return it->second;
  }

  void define(std::string_view id, Value v) {
    if (!values_.emplace(idKey(id), v).second)
      error("redefinition of value %" + std::string(id));
  }

  Type parseTypeTok() {
    const Token &t = lex_.cur();
    if (t.kind == Tok::MemRef) {
      Type ty = parseMemRefBody(t.text);
      if (ty.isNone())
        error("malformed memref type");
      lex_.advance();
      return ty;
    }
    if (t.kind == Tok::Ident) {
      TypeKind k = scalarKindFromName(t.text);
      if (k != TypeKind::MemRef) {
        lex_.advance();
        return k == TypeKind::None ? Type::none() : Type(k);
      }
    }
    error("expected type");
    return Type();
  }

  std::optional<AttrValue> parseAttrValue() {
    const Token &t = lex_.cur();
    switch (t.kind) {
    case Tok::Integer: {
      int64_t v = 0;
      if (!parseIntText(t.text, v)) {
        error("integer literal '" + std::string(t.text) + "' out of range");
        return std::nullopt;
      }
      lex_.advance();
      return AttrValue(v);
    }
    case Tok::Float: {
      double v = 0;
      if (!parseFloatText(t.text, v)) {
        error("malformed float literal '" + std::string(t.text) + "'");
        return std::nullopt;
      }
      lex_.advance();
      return AttrValue(v);
    }
    case Tok::Str: {
      std::string v(t.text);
      lex_.advance();
      return AttrValue(v);
    }
    case Tok::Ident: {
      if (t.text == "true" || t.text == "false") {
        bool v = t.text == "true";
        lex_.advance();
        return AttrValue(v);
      }
      error("unknown attribute value '" + std::string(t.text) + "'");
      return std::nullopt;
    }
    case Tok::LBracket: {
      lex_.advance();
      std::vector<int64_t> vec;
      if (lex_.cur().kind != Tok::RBracket) {
        while (true) {
          if (lex_.cur().kind != Tok::Integer) {
            error("expected integer in attribute array");
            return std::nullopt;
          }
          int64_t elem = 0;
          if (!parseIntText(lex_.cur().text, elem)) {
            error("integer literal '" + std::string(lex_.cur().text) + "' out of range");
            return std::nullopt;
          }
          vec.push_back(elem);
          lex_.advance();
          if (lex_.cur().kind != Tok::Comma)
            break;
          lex_.advance();
        }
      }
      if (!expect(Tok::RBracket, "']'"))
        return std::nullopt;
      return AttrValue(std::move(vec));
    }
    default:
      error("expected attribute value");
      return std::nullopt;
    }
  }

  /// Parses `ident = value, ...}` — the opening '{' has been consumed.
  /// Entries are collected into a plain vector (the op does not exist
  /// yet; its AttrMap lives in the arena) and applied after Op::create.
  bool parseAttrDict(SmallVec<std::pair<const char *, AttrValue>, 8> &attrs) {
    while (true) {
      if (lex_.cur().kind != Tok::Ident) {
        error("expected attribute name");
        return false;
      }
      const char *name =
          internAttrName(lex_.cur().text.data(), lex_.cur().text.size());
      lex_.advance();
      if (!expect(Tok::Equal, "'=' after attribute name"))
        return false;
      auto v = parseAttrValue();
      if (!v)
        return false;
      attrs.push_back({name, std::move(*v)});
      if (lex_.cur().kind == Tok::Comma) {
        lex_.advance();
        continue;
      }
      break;
    }
    return expect(Tok::RBrace, "'}' after attributes");
  }

  /// Parses a region body up to and including '}' — the opening '{' has
  /// been consumed.
  bool parseRegion(Region &region) {
    if (lex_.cur().kind == Tok::RBrace) {
      lex_.advance();
      return true; // empty region: no blocks
    }
    Block &block = region.emplaceBlock();
    if (lex_.cur().kind == Tok::LBracket) {
      lex_.advance();
      while (true) {
        if (lex_.cur().kind != Tok::SsaId) {
          error("expected block argument %id");
          return false;
        }
        std::string_view id = lex_.cur().text;
        lex_.advance();
        if (!expect(Tok::Colon, "':' after block argument"))
          return false;
        Type ty = parseTypeTok();
        if (ty.isNone() && !ty.isMemRef())
          return false;
        define(id, block.addArg(ty));
        if (lex_.cur().kind == Tok::Comma) {
          lex_.advance();
          continue;
        }
        break;
      }
      if (!expect(Tok::RBracket, "']' after block arguments") ||
          !expect(Tok::Colon, "':' after block argument list"))
        return false;
    }
    while (lex_.cur().kind != Tok::RBrace) {
      if (lex_.cur().kind == Tok::Eof) {
        error("unterminated region");
        return false;
      }
      Op *op = parseOp();
      if (!op)
        return false;
      block.push_back(op);
    }
    lex_.advance(); // consume '}'
    return true;
  }

  /// Parses one op; returns a detached op (caller inserts), or nullptr.
  Op *parseOp() {
    SourceLoc loc = lex_.cur().loc;

    // Optional result list.
    SmallVec<std::string_view, 4> resultIds;
    if (lex_.cur().kind == Tok::SsaId) {
      while (lex_.cur().kind == Tok::SsaId) {
        resultIds.push_back(lex_.cur().text);
        lex_.advance();
        if (lex_.cur().kind == Tok::Comma) {
          lex_.advance();
          continue;
        }
        break;
      }
      if (!expect(Tok::Equal, "'=' after result list"))
        return nullptr;
    }

    // Op name.
    if (lex_.cur().kind != Tok::Ident) {
      error("expected op name");
      return nullptr;
    }
    auto it = opNameTable().find(lex_.cur().text);
    if (it == opNameTable().end()) {
      error("unknown op '" + std::string(lex_.cur().text) + "'");
      return nullptr;
    }
    OpKind kind = it->second;
    lex_.advance();

    // Operands.
    SmallVec<Value, 8> operands;
    if (lex_.cur().kind == Tok::LParen) {
      lex_.advance();
      if (lex_.cur().kind != Tok::RParen) {
        while (true) {
          if (lex_.cur().kind != Tok::SsaId) {
            error("expected operand %id");
            return nullptr;
          }
          Value v = lookup(lex_.cur().text);
          if (!v)
            return nullptr;
          operands.push_back(v);
          lex_.advance();
          if (lex_.cur().kind == Tok::Comma) {
            lex_.advance();
            continue;
          }
          break;
        }
      }
      if (!expect(Tok::RParen, "')' after operands"))
        return nullptr;
    }

    // An attribute dict and a region both open with '{'. After consuming
    // the brace, `Ident '='` can only start a dict entry (op results are
    // %N tokens, and no op name is followed by '='), so one extra token
    // of lookahead disambiguates. If the brace opened a region, the op
    // has no attrs and no result types (types print before regions).
    SmallVec<std::pair<const char *, AttrValue>, 8> attrs;
    SmallVec<Region *, 2> regions;
    if (lex_.cur().kind == Tok::LBrace) {
      lex_.advance();
      if (lex_.cur().kind == Tok::Ident && lex_.peek().kind == Tok::Equal) {
        if (!parseAttrDict(attrs))
          return nullptr;
      } else {
        Region *region = arena_.create<Region>(&arena_);
        if (!parseRegion(*region))
          return nullptr;
        regions.push_back(region);
      }
    }

    // Result types (only before any region).
    SmallVec<Type, 4> resultTypes;
    if (regions.empty() && lex_.cur().kind == Tok::Colon) {
      lex_.advance();
      while (true) {
        Type ty = parseTypeTok();
        if (ty.isNone() && !ty.isMemRef())
          return nullptr;
        resultTypes.push_back(ty);
        if (lex_.cur().kind == Tok::Comma) {
          lex_.advance();
          continue;
        }
        break;
      }
    }
    if (resultTypes.size() != resultIds.size()) {
      diag_.error(loc, "op has " + std::to_string(resultIds.size()) +
                           " results but " +
                           std::to_string(resultTypes.size()) + " types");
      return nullptr;
    }

    // Remaining regions. The count is only known after parsing, so they
    // are built freestanding (in the same arena) and moved into the op
    // below.
    while (lex_.cur().kind == Tok::LBrace) {
      lex_.advance();
      Region *region = arena_.create<Region>(&arena_);
      if (!parseRegion(*region))
        return nullptr;
      regions.push_back(region);
    }

    Op *op = Op::create(arena_, kind, loc, resultTypes.data(),
                        resultTypes.size(), operands.data(), operands.size(),
                        static_cast<unsigned>(regions.size()));
    for (auto &a : attrs)
      op->attrs().setInterned(a.first, std::move(a.second));
    for (unsigned i = 0; i < regions.size(); ++i)
      op->region(i).takeBlocks(*regions[i]);
    for (unsigned i = 0; i < resultIds.size(); ++i)
      define(resultIds[i], op->result(i));
    return op;
  }

  IRArena &arena_;
  Lexer lex_;
  DiagnosticEngine &diag_;
  std::unordered_map<uint64_t, Value> values_;
};

} // namespace

Type parseType(const std::string &text) {
  // Scalars first.
  TypeKind k = scalarKindFromName(text);
  if (k != TypeKind::MemRef)
    return k == TypeKind::None ? Type::none() : Type(k);
  constexpr const char *prefix = "memref<";
  if (text.rfind(prefix, 0) == 0 && text.back() == '>')
    return parseMemRefBody(text.substr(7, text.size() - 8));
  return Type();
}

Op *parseModuleInto(IRArena &arena, const std::string &text,
                    DiagnosticEngine &diag) {
  Parser parser(arena, text, diag);
  Op *top = parser.parseTopLevel();
  if (!top || diag.hasErrors()) {
    if (top)
      Op::destroy(top); // detach only; memory stays in the arena
    return nullptr;
  }
  if (top->kind() != OpKind::Module) {
    diag.error(top->loc(), "top-level op must be a module");
    Op::destroy(top);
    return nullptr;
  }
  return top;
}

std::optional<OwnedModule> parseModule(const std::string &text,
                                       DiagnosticEngine &diag) {
  // Spans only the top-level entry point: one span per module, e.g. per
  // cache replay.
  trace::TraceSpan span("ir:parse", "parse");
  // Parse directly into the fresh module's arena; on failure the arena
  // (with any partially-parsed IR) dies with `owned`.
  OwnedModule owned;
  Op *top = parseModuleInto(owned.arena(), text, diag);
  if (!top)
    return std::nullopt;
  // Move the parsed funcs into the canonical module op (same arena).
  Block &dst = owned.get().body();
  if (!top->region(0).empty()) {
    Block &src = top->region(0).front();
    for (Op *op = src.front(), *next = nullptr; op; op = next) {
      next = op->next();
      src.unlink(op);
      dst.push_back(op);
    }
  }
  Op::destroy(top);
  return owned;
}

} // namespace paralift::ir
