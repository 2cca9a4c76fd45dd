// The ParaLift IR type system: a small, value-semantic analogue of MLIR's
// builtin types. Scalars (i1/i32/i64/f32/f64/index) plus ranked memrefs
// with static or dynamic dimensions. Types are cheap to copy and compare.
#pragma once

#include <cassert>
#include <charconv>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace paralift::ir {

enum class TypeKind : uint8_t {
  None, ///< absence of a type (e.g. void results)
  I1,
  I32,
  I64,
  F32,
  F64,
  Index, ///< pointer-width integer used for loop induction and indexing
  MemRef,
};

/// Returns the byte width of a scalar kind (used by min-cut weighting and
/// the VM); memrefs report pointer width.
unsigned byteWidth(TypeKind k);

/// Returns true for the integer-like scalar kinds (i1/i32/i64/index).
bool isIntLike(TypeKind k);
/// Returns true for f32/f64.
bool isFloatLike(TypeKind k);

const char *typeKindName(TypeKind k);

/// A type. Scalar types carry only their kind; memref types additionally
/// carry an element kind and a shape where kDynamic (-1) marks dimensions
/// whose extent is an SSA operand of the allocating op.
///
/// Shapes are interned in a process-wide table (equal shapes share one
/// immortal vector), which makes Type a trivially-destructible,
/// trivially-copyable value — a requirement of the arena-backed IR nodes
/// (ir/arena.h), and a copy-speed win since types ride on every ValueImpl.
class Type {
public:
  static constexpr int64_t kDynamic = -1;

  Type() : kind_(TypeKind::None), elem_(TypeKind::None) {}
  /*implicit*/ Type(TypeKind k) : kind_(k), elem_(TypeKind::None) {
    assert(k != TypeKind::MemRef && "memref requires element type and shape");
  }

  static Type none() { return Type(TypeKind::None); }
  static Type i1() { return Type(TypeKind::I1); }
  static Type i32() { return Type(TypeKind::I32); }
  static Type i64() { return Type(TypeKind::I64); }
  static Type f32() { return Type(TypeKind::F32); }
  static Type f64() { return Type(TypeKind::F64); }
  static Type index() { return Type(TypeKind::Index); }

  static Type memref(TypeKind elem, std::vector<int64_t> shape) {
    assert(elem != TypeKind::MemRef && elem != TypeKind::None);
    Type t;
    t.kind_ = TypeKind::MemRef;
    t.elem_ = elem;
    t.shape_ = internShape(std::move(shape));
    return t;
  }
  /// Rank-0 memref holding a single scalar (the representation of a local
  /// variable before mem2reg).
  static Type memrefScalar(TypeKind elem) { return memref(elem, {}); }

  TypeKind kind() const { return kind_; }
  bool isNone() const { return kind_ == TypeKind::None; }
  bool isMemRef() const { return kind_ == TypeKind::MemRef; }
  bool isScalar() const { return !isMemRef() && !isNone(); }
  bool isIndex() const { return kind_ == TypeKind::Index; }
  bool isInteger() const { return isIntLike(kind_) && !isMemRef(); }
  bool isFloat() const { return isFloatLike(kind_); }

  TypeKind elemKind() const {
    assert(isMemRef());
    return elem_;
  }
  const std::vector<int64_t> &shape() const {
    assert(isMemRef());
    return *shape_;
  }
  unsigned rank() const {
    assert(isMemRef());
    return static_cast<unsigned>(shape_->size());
  }
  unsigned numDynamicDims() const;
  bool hasStaticShape() const;
  /// Total element count; only valid for static shapes.
  int64_t staticNumElements() const;

  bool operator==(const Type &o) const {
    // Interning makes equal shapes pointer-identical.
    return kind_ == o.kind_ && elem_ == o.elem_ && shape_ == o.shape_;
  }
  bool operator!=(const Type &o) const { return !(*this == o); }

  /// The type's spelling: "f32", or "memref<?x4xf32>" (each dimension,
  /// or '?' for a dynamic one, followed by 'x', then the element kind).
  std::string str() const;
  /// Passes str()'s spelling to `out` piece by piece, as string_views,
  /// with no temporary string; the printer writes types through it.
  template <typename Out> void spell(Out &&out) const {
    if (!isMemRef()) {
      out(std::string_view(typeKindName(kind_)));
      return;
    }
    out(std::string_view("memref<"));
    for (int64_t d : *shape_) {
      char buf[20]; // "-9223372036854775808"
      out(d == kDynamic ? std::string_view("?")
                        : std::string_view(buf, static_cast<size_t>(
                              std::to_chars(buf, buf + sizeof buf, d).ptr - buf)));
      out(std::string_view("x"));
    }
    out(std::string_view(typeKindName(elem_)));
    out(std::string_view(">"));
  }

private:
  /// Canonicalizes a shape into the immortal intern table. Thread-safe.
  static const std::vector<int64_t> *internShape(std::vector<int64_t> shape);

  TypeKind kind_;
  TypeKind elem_;
  /// Interned; null for non-memref types.
  const std::vector<int64_t> *shape_ = nullptr;
};

static_assert(std::is_trivially_destructible_v<Type> &&
                  std::is_trivially_copyable_v<Type>,
              "Type must stay trivial for arena-backed IR nodes");

} // namespace paralift::ir
