#include "ir/type.h"

#include <mutex>
#include <shared_mutex>
#include <unordered_set>

namespace paralift::ir {

namespace {

struct ShapeHash {
  size_t operator()(const std::vector<int64_t> &shape) const {
    size_t h = 0x9e3779b97f4a7c15ull;
    for (int64_t d : shape)
      h = (h ^ static_cast<size_t>(d)) * 0x100000001b3ull;
    return h;
  }
};

struct ShapeTable {
  std::shared_mutex mutex;
  // Node-based set: element addresses are stable across rehashing.
  std::unordered_set<std::vector<int64_t>, ShapeHash> shapes;
};

ShapeTable &shapeTable() {
  static ShapeTable table;
  return table;
}

} // namespace

const std::vector<int64_t> *Type::internShape(std::vector<int64_t> shape) {
  ShapeTable &t = shapeTable();
  {
    std::shared_lock<std::shared_mutex> lock(t.mutex);
    auto it = t.shapes.find(shape);
    if (it != t.shapes.end())
      return &*it;
  }
  std::unique_lock<std::shared_mutex> lock(t.mutex);
  return &*t.shapes.emplace(std::move(shape)).first;
}

unsigned byteWidth(TypeKind k) {
  switch (k) {
  case TypeKind::I1:
    return 1;
  case TypeKind::I32:
    return 4;
  case TypeKind::F32:
    return 4;
  case TypeKind::I64:
  case TypeKind::F64:
  case TypeKind::Index:
  case TypeKind::MemRef:
    return 8;
  case TypeKind::None:
    return 0;
  }
  return 0;
}

bool isIntLike(TypeKind k) {
  return k == TypeKind::I1 || k == TypeKind::I32 || k == TypeKind::I64 ||
         k == TypeKind::Index;
}

bool isFloatLike(TypeKind k) {
  return k == TypeKind::F32 || k == TypeKind::F64;
}

const char *typeKindName(TypeKind k) {
  switch (k) {
  case TypeKind::None:
    return "none";
  case TypeKind::I1:
    return "i1";
  case TypeKind::I32:
    return "i32";
  case TypeKind::I64:
    return "i64";
  case TypeKind::F32:
    return "f32";
  case TypeKind::F64:
    return "f64";
  case TypeKind::Index:
    return "index";
  case TypeKind::MemRef:
    return "memref";
  }
  return "?";
}

unsigned Type::numDynamicDims() const {
  if (!shape_)
    return 0;
  unsigned n = 0;
  for (int64_t d : *shape_)
    if (d == kDynamic)
      ++n;
  return n;
}

bool Type::hasStaticShape() const { return numDynamicDims() == 0; }

int64_t Type::staticNumElements() const {
  assert(hasStaticShape());
  int64_t n = 1;
  for (int64_t d : *shape_)
    n *= d;
  return n;
}

std::string Type::str() const {
  std::string s;
  spell([&](std::string_view piece) { s += piece; });
  return s;
}

} // namespace paralift::ir
