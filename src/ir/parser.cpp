#include "ir/parser.h"

#include "support/trace.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstdlib>
#include <cstring>
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
// wrappers never throw. Floats parse with from_chars, which reads every
// spelling the printer emits, correctly rounded like strtod; the rest
// (out-of-range magnitudes, which strtod clamps to 0 or ±HUGE_VAL, and
// spellings from_chars does not take) go to strtod, so every spelling
// means what strtod makes of it.

bool parseFloatText(std::string_view s, double &out) {
  if (s.empty())
    return false;
  auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  if (ec == std::errc() && p == s.data() + s.size())
    return true;
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

/// Character classes of the C locale's isspace, isdigit, isalpha and
/// identifier continuations (isalnum, '_', '.'), one table load per test.
enum CharClass : uint8_t { kSpace = 1, kDigit = 2, kAlpha = 4, kIdent = 8 };

constexpr std::array<uint8_t, 256> kCharClass = [] {
  std::array<uint8_t, 256> t{};
  for (unsigned char c : {' ', '\t', '\n', '\v', '\f', '\r'})
    t[c] = kSpace;
  for (unsigned c = '0'; c <= '9'; ++c)
    t[c] = kDigit | kIdent;
  for (unsigned c = 'a'; c <= 'z'; ++c)
    t[c] = t[c - 'a' + 'A'] = kAlpha | kIdent;
  t['_'] = t['.'] = kIdent;
  return t;
}();

bool is(char c, CharClass cls) {
  return kCharClass[static_cast<unsigned char>(c)] & cls;
}

/// Splits IR text into tokens. `memref<...>` is lexed as a single token so
/// the shape grammar (10x?xf32) never collides with identifier lexing.
///
/// The lexer counts lines and keeps where the current one starts; a
/// token's column is its byte distance from there, so advancing over a
/// character costs no bookkeeping.
class Lexer {
public:
  Lexer(const std::string &src, DiagnosticEngine &diag)
      : end_(src.data() + src.size()), p_(src.data()),
        lineStart_(src.data()), diag_(diag) {
    advance();
    advance(); // fill cur and peek
  }

  const Token &cur() const { return toks_[cur_]; }
  const Token &peek() const { return toks_[cur_ ^ 1]; }

  /// The token after peek goes into cur's slot, which becomes peek's:
  /// no token is copied.
  void advance() {
    unsigned old = cur_;
    cur_ ^= 1;
    lexInto(toks_[old]);
  }

private:
  /// Advances p to the next `stop` at or after it, or to the end, and
  /// counts the lines passed on the way.
  const char *skipTo(const char *p, char stop) {
    const void *hit = std::memchr(p, stop, static_cast<size_t>(end_ - p));
    const char *to = hit ? static_cast<const char *>(hit) : end_;
    while ((hit = std::memchr(p, '\n', static_cast<size_t>(to - p)))) {
      p = static_cast<const char *>(hit) + 1;
      ++line_;
      lineStart_ = p;
    }
    return to;
  }

  /// Lexes the token at p_ into t. The text is always a contiguous slice
  /// of the source (the grammar has no escapes), so tokens carry
  /// string_views into it: no per-token allocation.
  /// Reading *p at the end is safe: std::string keeps a '\0' there, and
  /// no test below accepts it.
  void lexInto(Token &t) {
    const char *p = p_;
    for (; is(*p, kSpace); ++p)
      if (*p == '\n') {
        ++line_;
        lineStart_ = p + 1;
      }
    t.kind = Tok::Eof;
    t.text = {};
    t.loc = {line_, static_cast<uint32_t>(p - lineStart_ + 1)};
    const char *start = p;
    auto finish = [&](Tok k, const char *from, const char *to) {
      t.kind = k;
      t.text = std::string_view(from, static_cast<size_t>(to - from));
      p_ = p;
    };
    if (p == end_) {
      p_ = p;
      return;
    }

    char c = *p;
    switch (c) {
    case '(': ++p; return finish(Tok::LParen, start, p);
    case ')': ++p; return finish(Tok::RParen, start, p);
    case '{': ++p; return finish(Tok::LBrace, start, p);
    case '}': ++p; return finish(Tok::RBrace, start, p);
    case '[': ++p; return finish(Tok::LBracket, start, p);
    case ']': ++p; return finish(Tok::RBracket, start, p);
    case ',': ++p; return finish(Tok::Comma, start, p);
    case ':': ++p; return finish(Tok::Colon, start, p);
    case '=': ++p; return finish(Tok::Equal, start, p);
    default: break;
    }

    if (c == '%') {
      const char *digits = ++p;
      while (is(*p, kDigit))
        ++p;
      if (p == digits) {
        diag_.error(t.loc, "expected value number after '%'");
        p_ = p;
        return; // Eof ends parsing
      }
      return finish(Tok::SsaId, digits, p);
    }

    if (c == '"') {
      const char *body = ++p;
      p = skipTo(p, '"');
      if (p == end_) {
        diag_.error(t.loc, "unterminated string");
        p_ = p;
        return;
      }
      ++p;
      return finish(Tok::Str, body, p - 1);
    }

    if (c == '-' || is(c, kDigit)) {
      bool isFloat = false;
      if (c == '-') {
        ++p;
        // "-inf" / "-nan"
        if (is(*p, kAlpha)) {
          while (is(*p, kAlpha))
            ++p;
          return finish(Tok::Float, start, p);
        }
      }
      while (is(*p, kDigit))
        ++p;
      if (*p == '.') {
        isFloat = true;
        ++p;
        while (is(*p, kDigit))
          ++p;
      }
      if (*p == 'e' || *p == 'E') {
        isFloat = true;
        ++p;
        if (*p == '+' || *p == '-')
          ++p;
        while (is(*p, kDigit))
          ++p;
      }
      return finish(isFloat ? Tok::Float : Tok::Integer, start, p);
    }

    if (is(c, kAlpha) || c == '_') {
      while (is(*p, kIdent))
        ++p;
      std::string_view id(start, static_cast<size_t>(p - start));
      if (id == "memref" && *p == '<') {
        const char *body = ++p;
        p = skipTo(p, '>');
        if (p == end_) {
          diag_.error(t.loc, "unterminated memref type");
          p_ = p;
          return;
        }
        ++p;
        return finish(Tok::MemRef, body, p - 1);
      }
      if (id == "inf" || id == "nan")
        return finish(Tok::Float, start, p);
      return finish(Tok::Ident, start, p);
    }

    diag_.error(t.loc, std::string("unexpected character '") + c + "'");
    p_ = p + 1;
    return;
  }

  /// The end of the source, and where lexing resumes.
  const char *const end_;
  const char *p_;
  /// The current line's number, and where it starts.
  uint32_t line_ = 1;
  const char *lineStart_;
  DiagnosticEngine &diag_;
  /// cur and peek, in the slots cur_ and cur_ ^ 1.
  Token toks_[2];
  unsigned cur_ = 0;
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

/// What a parse learned from a spelling it may meet again: a printed
/// module spells a handful of attribute names and memref types over and
/// over, and each would otherwise take a shared lock to intern (and a
/// memref its shape vector). Keys are views into the parsed text. Linear
/// and capped, so text with many distinct spellings costs at most a scan
/// of the cap more per spelling.
template <typename T> class SpellingMemo {
public:
  const T *find(std::string_view spelling) const {
    for (const auto &[key, value] : entries_)
      if (key == spelling)
        return &value;
    return nullptr;
  }
  void add(std::string_view spelling, T value) {
    if (entries_.size() < kCap)
      entries_.emplace_back(spelling, value);
  }

private:
  static constexpr size_t kCap = 32;
  std::vector<std::pair<std::string_view, T>> entries_;
};

class Parser {
public:
  /// All parsed IR is allocated from `arena` — the destination module's,
  /// so parsed ops can be spliced into it without crossing arenas.
  Parser(IRArena &arena, const std::string &src, DiagnosticEngine &diag)
      : arena_(arena), lex_(src, diag), diag_(diag), denseLimit_(src.size()) {}

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

  /// The number of the SsaId token at the cursor, whose text is pure
  /// digits (the lexer guarantees it). %07 and %7 deliberately alias (the
  /// printer never emits leading zeros). False after reporting a number
  /// that does not fit 64 bits.
  bool valueId(uint64_t &id) {
    std::string_view text = lex_.cur().text;
    auto [p, ec] = std::from_chars(text.data(), text.data() + text.size(), id);
    if (ec == std::errc())
      return true;
    error("value number out of range: %" + std::string(text));
    return false;
  }

  /// The value numbered `id`; `text` is its spelling, for the diagnostic.
  Value lookup(uint64_t id, std::string_view text) {
    Value v;
    if (id < denseLimit_) {
      if (id < dense_.size())
        v = dense_[id];
    } else if (auto it = sparse_.find(id); it != sparse_.end()) {
      v = it->second;
    }
    if (!v)
      error("use of undefined value %" + std::string(text));
    return v;
  }

  void define(uint64_t id, std::string_view text, Value v) {
    Value *slot;
    if (id < denseLimit_) {
      if (id >= dense_.size())
        dense_.resize(std::max<size_t>(id + 1, 2 * dense_.size()));
      slot = &dense_[id];
    } else {
      slot = &sparse_[id];
    }
    if (*slot)
      error("redefinition of value %" + std::string(text));
    else
      *slot = v;
  }

  Type parseTypeTok() {
    const Token &t = lex_.cur();
    if (t.kind == Tok::MemRef) {
      const Type *memo = memrefs_.find(t.text);
      Type ty = memo ? *memo : parseMemRefBody(t.text);
      if (!memo)
        memrefs_.add(t.text, ty);
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
      std::string_view spelling = lex_.cur().text;
      const char *const *memo = attrNames_.find(spelling);
      const char *name =
          memo ? *memo : internAttrName(spelling.data(), spelling.size());
      if (!memo)
        attrNames_.add(spelling, name);
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
        std::string_view text = lex_.cur().text;
        uint64_t id;
        if (!valueId(id))
          return false;
        lex_.advance();
        if (!expect(Tok::Colon, "':' after block argument"))
          return false;
        Type ty = parseTypeTok();
        if (ty.isNone() && !ty.isMemRef())
          return false;
        define(id, text, block.addArg(ty));
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
    SmallVec<std::pair<uint64_t, std::string_view>, 4> resultIds;
    if (lex_.cur().kind == Tok::SsaId) {
      while (lex_.cur().kind == Tok::SsaId) {
        uint64_t id;
        if (!valueId(id))
          return nullptr;
        resultIds.push_back({id, lex_.cur().text});
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
          uint64_t id;
          if (!valueId(id))
            return nullptr;
          Value v = lookup(id, lex_.cur().text);
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
      define(resultIds[i].first, resultIds[i].second, op->result(i));
    return op;
  }

  IRArena &arena_;
  Lexer lex_;
  DiagnosticEngine &diag_;
  /// Values by number. The printer numbers from 0 with no gaps, and a
  /// text of n bytes defines fewer than n values, so numbers below n
  /// index dense_; larger ones, which no printed module holds, go to
  /// sparse_.
  const uint64_t denseLimit_;
  std::vector<Value> dense_;
  std::unordered_map<uint64_t, Value> sparse_;
  SpellingMemo<const char *> attrNames_;
  SpellingMemo<Type> memrefs_;
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
  // parseModule moves the funcs out of region 0; any other region would
  // be dropped unseen.
  if (top->numRegions() != 1) {
    diag.error(top->loc(), "module must have one region");
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
