#include "ir/printer.h"

#include "ir/value_table.h"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string_view>

namespace paralift::ir {

namespace {

/// Output of a print: appends write through a cursor into spare
/// capacity, so a piece costs a bounds check and a short copy; only
/// growth (doubling) leaves that path.
class Writer {
public:
  Writer() { grow(0); }

  void put(char c) {
    if (cur_ == end_)
      grow(1);
    *cur_++ = c;
  }
  void put(std::string_view s) {
    if (static_cast<size_t>(end_ - cur_) < s.size())
      grow(s.size());
    std::memcpy(cur_, s.data(), s.size());
    cur_ += s.size();
  }
  void put(const char *s) { put(std::string_view(s)); }
  void fill(size_t n, char c) {
    if (static_cast<size_t>(end_ - cur_) < n)
      grow(n);
    std::memset(cur_, c, n);
    cur_ += n;
  }
  void putInt(int64_t v) {
    if (end_ - cur_ < 20)
      grow(20);
    cur_ = std::to_chars(cur_, end_, v).ptr;
  }

  std::string take() {
    buf_.resize(static_cast<size_t>(cur_ - buf_.data()));
    return std::move(buf_);
  }

private:
  void grow(size_t n) {
    size_t used = static_cast<size_t>(cur_ - buf_.data());
    buf_.resize(std::max(2 * buf_.size(), used + n + 4096));
    cur_ = buf_.data() + used;
    end_ = buf_.data() + buf_.size();
  }

  std::string buf_;
  char *cur_ = buf_.data(), *end_ = cur_;
};

/// Writes a double so that it (a) survives a print->parse round trip
/// exactly and (b) is lexically distinguishable from an integer (always
/// contains '.', 'e', or a non-finite spelling). The spelling is printf's
/// %.6g, %.15g or %.17g, the first that reads back exactly (to_chars with
/// a precision is specified as printf's). The round-trip probe uses
/// strtod, the IR parser's fallback, because it accepts exactly the
/// spellings that need probing most (inf/nan and out-of-range magnitudes
/// like denormals).
void putDouble(Writer &out, double d) {
  char buf[64];
  std::string_view s;
  for (int prec : {6, 15, 17}) {
    auto [end, ec] = std::to_chars(buf, buf + sizeof buf - 1, d,
                                   std::chars_format::general, prec);
    *end = '\0';
    s = std::string_view(buf, static_cast<size_t>(end - buf));
    if (std::strtod(buf, nullptr) == d || d != d) // NaN never equals itself
      break;
  }
  out.put(s);
  if (s.find_first_of(".eE") == std::string_view::npos &&
      s.find("inf") == std::string_view::npos &&
      s.find("nan") == std::string_view::npos)
    out.put(".0");
}

/// Renders an op tree into one string, values named %N by the shared
/// pre-order numbering (value_table.h).
class Printer {
public:
  std::string print(Op *op) {
    numberValues(op, ids_);
    printOpRec(op, 0);
    return out_.take();
  }

private:
  void name(Value v) {
    const uint32_t *id = ids_.find(v.impl());
    if (!id) {
      out_.put("%<invalid>");
      return;
    }
    out_.put('%');
    out_.putInt(*id);
  }

  void type(Type t) {
    t.spell([&](std::string_view piece) { out_.put(piece); });
  }

  void indent(int depth) { out_.fill(2 * static_cast<size_t>(depth), ' '); }

  void printAttrValue(const AttrValue &v) {
    if (auto *b = std::get_if<bool>(&v)) {
      out_.put(*b ? "true" : "false");
    } else if (auto *i = std::get_if<int64_t>(&v)) {
      out_.putInt(*i);
    } else if (auto *f = std::get_if<double>(&v)) {
      putDouble(out_, *f);
    } else if (auto *s = std::get_if<std::string>(&v)) {
      out_.put('"');
      out_.put(*s);
      out_.put('"');
    } else if (auto *vec = std::get_if<std::vector<int64_t>>(&v)) {
      out_.put('[');
      for (size_t i = 0; i < vec->size(); ++i) {
        if (i)
          out_.put(", ");
        out_.putInt((*vec)[i]);
      }
      out_.put(']');
    }
  }

  void printOpRec(Op *op, int depth) {
    indent(depth);
    // Results
    if (op->numResults() > 0) {
      for (unsigned i = 0; i < op->numResults(); ++i) {
        if (i)
          out_.put(", ");
        name(op->result(i));
      }
      out_.put(" = ");
    }
    out_.put(opKindName(op->kind()));
    // Operands
    if (op->numOperands() > 0) {
      out_.put('(');
      for (unsigned i = 0; i < op->numOperands(); ++i) {
        if (i)
          out_.put(", ");
        name(op->operand(i));
      }
      out_.put(')');
    }
    // Attributes
    if (!op->attrs().entries().empty()) {
      out_.put(" {");
      bool first = true;
      for (auto &[k, v] : op->attrs().entries()) {
        if (!first)
          out_.put(", ");
        first = false;
        out_.put(k);
        out_.put(" = ");
        printAttrValue(v);
      }
      out_.put('}');
    }
    // Result types
    if (op->numResults() > 0) {
      out_.put(" : ");
      for (unsigned i = 0; i < op->numResults(); ++i) {
        if (i)
          out_.put(", ");
        type(op->result(i).type());
      }
    }
    // Regions
    for (unsigned r = 0; r < op->numRegions(); ++r) {
      if (op->region(r).empty()) {
        out_.put(" {}");
        continue;
      }
      out_.put(" {\n");
      for (Block *block : op->region(r).blocks()) {
        if (block->numArgs() > 0) {
          indent(depth + 1);
          out_.put('[');
          for (unsigned a = 0; a < block->numArgs(); ++a) {
            if (a)
              out_.put(", ");
            name(block->arg(a));
            out_.put(": ");
            type(block->arg(a).type());
          }
          out_.put("]:\n");
        }
        for (Op *inner = block->front(); inner; inner = inner->next()) {
          printOpRec(inner, depth + 1);
          out_.put('\n');
        }
      }
      indent(depth);
      out_.put('}');
    }
  }

  Writer out_;
  ValueTable<uint32_t> ids_;
};

} // namespace

std::string printOp(Op *op) { return Printer().print(op); }

std::string printOpSignature(Op *op) {
  std::ostringstream os;
  os << opKindName(op->kind()) << " (" << op->numOperands() << " operands, "
     << op->numResults() << " results, " << op->numRegions() << " regions)";
  return os.str();
}

} // namespace paralift::ir
