#include "frontend/lexer.h"

#include <cctype>
#include <cstdlib>

namespace paralift::frontend {

namespace {

const std::unordered_map<std::string, Tok> kKeywords = {
    {"void", Tok::KwVoid},         {"bool", Tok::KwBool},
    {"int", Tok::KwInt},           {"long", Tok::KwLong},
    {"float", Tok::KwFloat},       {"double", Tok::KwDouble},
    {"unsigned", Tok::KwUnsigned}, {"const", Tok::KwConst},
    {"if", Tok::KwIf},             {"else", Tok::KwElse},
    {"for", Tok::KwFor},           {"while", Tok::KwWhile},
    {"do", Tok::KwDo},             {"return", Tok::KwReturn},
    {"true", Tok::KwTrue},         {"false", Tok::KwFalse},
    {"__global__", Tok::KwGlobal}, {"__device__", Tok::KwDevice},
    {"__host__", Tok::KwHost},     {"__shared__", Tok::KwShared},
    {"static", Tok::KwStatic},     {"inline", Tok::KwInline},
    {"__restrict__", Tok::KwRestrict},
    {"dim3", Tok::KwDim3},
};

class Lexer {
public:
  Lexer(const std::string &src, DiagnosticEngine &diag)
      : src_(src), diag_(diag) {}

  std::vector<Token> run() {
    std::vector<Token> out;
    while (true) {
      skipWhitespaceAndComments();
      if (atEnd()) {
        out.push_back(make(Tok::Eof));
        return out;
      }
      if (peek() == '#') {
        handleDirective(out);
        continue;
      }
      Token t = next();
      // Apply #define substitution to identifiers.
      if (t.kind == Tok::Ident) {
        auto it = defines_.find(t.text);
        if (it != defines_.end()) {
          out.push_back(it->second);
          continue;
        }
      }
      out.push_back(t);
    }
  }

private:
  bool atEnd() const { return pos_ >= src_.size(); }
  char peek(size_t k = 0) const {
    return pos_ + k < src_.size() ? src_[pos_ + k] : '\0';
  }
  char advance() {
    char c = src_[pos_++];
    if (c == '\n') {
      ++line_;
      col_ = 1;
    } else {
      ++col_;
    }
    return c;
  }
  bool match(char c) {
    if (peek() == c) {
      advance();
      return true;
    }
    return false;
  }
  SourceLoc loc() const { return {line_, col_}; }
  Token make(Tok k) {
    Token t;
    t.kind = k;
    t.loc = loc();
    return t;
  }

  void skipWhitespaceAndComments() {
    while (!atEnd()) {
      char c = peek();
      if (std::isspace(static_cast<unsigned char>(c))) {
        advance();
      } else if (c == '/' && peek(1) == '/') {
        while (!atEnd() && peek() != '\n')
          advance();
      } else if (c == '/' && peek(1) == '*') {
        advance();
        advance();
        while (!atEnd() && !(peek() == '*' && peek(1) == '/'))
          advance();
        if (!atEnd()) {
          advance();
          advance();
        }
      } else {
        break;
      }
    }
  }

  /// Handles #define and #pragma lines.
  void handleDirective(std::vector<Token> &out) {
    SourceLoc start = loc();
    std::string lineText;
    while (!atEnd() && peek() != '\n')
      lineText.push_back(advance());
    // #define NAME value
    if (lineText.rfind("#define", 0) == 0) {
      size_t p = 7;
      while (p < lineText.size() &&
             std::isspace(static_cast<unsigned char>(lineText[p])))
        ++p;
      size_t nameStart = p;
      while (p < lineText.size() &&
             (std::isalnum(static_cast<unsigned char>(lineText[p])) ||
              lineText[p] == '_'))
        ++p;
      std::string name = lineText.substr(nameStart, p - nameStart);
      while (p < lineText.size() &&
             std::isspace(static_cast<unsigned char>(lineText[p])))
        ++p;
      std::string value = lineText.substr(p);
      // Tokenize the value in a sub-lexer; only single-token values are
      // supported (numbers or identifiers).
      Lexer sub(value, diag_);
      auto toks = sub.run();
      if (toks.size() != 2) { // value + Eof
        diag_.error(start, "#define supports single-token values only");
        return;
      }
      defines_[name] = toks[0];
      return;
    }
    if (lineText.find("pragma") != std::string::npos &&
        lineText.find("omp") != std::string::npos &&
        lineText.find("parallel") != std::string::npos &&
        lineText.find("for") != std::string::npos) {
      Token t = make(Tok::PragmaOmpParallelFor);
      t.loc = start;
      size_t c = lineText.find("collapse(");
      if (c != std::string::npos)
        t.collapse = std::atoi(lineText.c_str() + c + 9);
      out.push_back(t);
      return;
    }
    diag_.error(start, "unsupported preprocessor directive: " + lineText);
  }

  Token next() {
    Token t;
    t.loc = loc();
    char c = advance();
    switch (c) {
    case '(': t.kind = Tok::LParen; return t;
    case ')': t.kind = Tok::RParen; return t;
    case '{': t.kind = Tok::LBrace; return t;
    case '}': t.kind = Tok::RBrace; return t;
    case '[': t.kind = Tok::LBracket; return t;
    case ']': t.kind = Tok::RBracket; return t;
    case ',': t.kind = Tok::Comma; return t;
    case ';': t.kind = Tok::Semi; return t;
    case '.': t.kind = Tok::Dot; return t;
    case '?': t.kind = Tok::Question; return t;
    case ':': t.kind = Tok::Colon; return t;
    case '~': t.kind = Tok::Tilde; return t;
    case '^': t.kind = match('=') ? Tok::CaretAssign : Tok::Caret; return t;
    case '+':
      t.kind = match('+') ? Tok::PlusPlus
               : match('=') ? Tok::PlusAssign
                            : Tok::Plus;
      return t;
    case '-':
      t.kind = match('-') ? Tok::MinusMinus
               : match('=') ? Tok::MinusAssign
                            : Tok::Minus;
      return t;
    case '*': t.kind = match('=') ? Tok::StarAssign : Tok::Star; return t;
    case '/': t.kind = match('=') ? Tok::SlashAssign : Tok::Slash; return t;
    case '%':
      t.kind = match('=') ? Tok::PercentAssign : Tok::Percent;
      return t;
    case '&':
      t.kind = match('&')   ? Tok::AndAnd
               : match('=') ? Tok::AmpAssign
                            : Tok::Amp;
      return t;
    case '|':
      t.kind = match('|')   ? Tok::OrOr
               : match('=') ? Tok::PipeAssign
                            : Tok::Pipe;
      return t;
    case '!': t.kind = match('=') ? Tok::NotEq : Tok::Not; return t;
    case '=': t.kind = match('=') ? Tok::EqEq : Tok::Assign; return t;
    case '<':
      if (peek() == '<' && peek(1) == '<') {
        advance();
        advance();
        t.kind = Tok::LaunchOpen;
        return t;
      }
      if (match('<'))
        t.kind = match('=') ? Tok::ShlAssign : Tok::Shl;
      else
        t.kind = match('=') ? Tok::Le : Tok::Lt;
      return t;
    case '>':
      if (peek() == '>' && peek(1) == '>') {
        advance();
        advance();
        t.kind = Tok::LaunchClose;
        return t;
      }
      if (match('>'))
        t.kind = match('=') ? Tok::ShrAssign : Tok::Shr;
      else
        t.kind = match('=') ? Tok::Ge : Tok::Gt;
      return t;
    default:
      break;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      std::string num(1, c);
      bool isFloat = false;
      while (std::isdigit(static_cast<unsigned char>(peek())) ||
             peek() == '.' || peek() == 'e' || peek() == 'E' ||
             ((peek() == '+' || peek() == '-') &&
              (num.back() == 'e' || num.back() == 'E'))) {
        if (peek() == '.' || peek() == 'e' || peek() == 'E')
          isFloat = true;
        num.push_back(advance());
      }
      if (peek() == 'f' || peek() == 'F') {
        advance();
        t.kind = Tok::FloatLit;
        t.floatVal = std::strtod(num.c_str(), nullptr);
        t.isFloat32 = true;
        return t;
      }
      if (peek() == 'u' || peek() == 'U' || peek() == 'l' || peek() == 'L')
        advance(); // suffixes ignored
      if (isFloat) {
        t.kind = Tok::FloatLit;
        t.floatVal = std::strtod(num.c_str(), nullptr);
        return t;
      }
      t.kind = Tok::IntLit;
      t.intVal = std::strtoll(num.c_str(), nullptr, 0);
      return t;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::string ident(1, c);
      while (std::isalnum(static_cast<unsigned char>(peek())) ||
             peek() == '_')
        ident.push_back(advance());
      auto it = kKeywords.find(ident);
      if (it != kKeywords.end()) {
        t.kind = it->second;
        t.text = ident;
        return t;
      }
      t.kind = Tok::Ident;
      t.text = ident;
      return t;
    }
    diag_.error(t.loc, std::string("unexpected character '") + c + "'");
    t.kind = Tok::Eof;
    return t;
  }

  const std::string &src_;
  DiagnosticEngine &diag_;
  size_t pos_ = 0;
  uint32_t line_ = 1, col_ = 1;
  std::unordered_map<std::string, Token> defines_;
};

} // namespace

std::vector<Token> tokenize(const std::string &source,
                            DiagnosticEngine &diag) {
  Lexer lexer(source, diag);
  return lexer.run();
}

} // namespace paralift::frontend
