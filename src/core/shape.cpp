#include "core/shape.h"

#include <cassert>
#include <sstream>
#include <stdexcept>

namespace ccovid {

Shape::Shape(std::initializer_list<index_t> dims)
    : Shape(dims.begin(), static_cast<int>(dims.size())) {}

Shape::Shape(const index_t* dims, int rank) {
  if (rank < 0 || rank > kMaxRank) {
    throw std::invalid_argument("Shape: bad rank");
  }
  rank_ = rank;
  // The product of the non-zero extents bounds numel() and every
  // stride(), so checking it once keeps all of them from wrapping.
  index_t product = 1;
  for (int i = 0; i < rank; ++i) {
    const index_t d = dims[i];
    if (d < 0) throw std::invalid_argument("Shape: negative extent");
    if (d > 0 && __builtin_mul_overflow(product, d, &product)) {
      throw std::invalid_argument("Shape: element count overflows index_t");
    }
    dims_[i] = d;
  }
}

index_t Shape::operator[](int i) const {
  assert(i >= 0 && i < rank_);
  return dims_[i];
}

index_t& Shape::operator[](int i) {
  assert(i >= 0 && i < rank_);
  return dims_[i];
}

index_t Shape::numel() const {
  index_t n = 1;
  for (int i = 0; i < rank_; ++i) n *= dims_[i];
  return n;
}

index_t Shape::stride(int i) const {
  assert(i >= 0 && i < rank_);
  index_t s = 1;
  for (int j = i + 1; j < rank_; ++j) s *= dims_[j];
  return s;
}

index_t Shape::offset_impl(const index_t* idx, int n) const {
  assert(n == rank_);
  index_t off = 0;
  for (int i = 0; i < n; ++i) {
    assert(idx[i] >= 0 && idx[i] < dims_[i]);
    off = off * dims_[i] + idx[i];
  }
  return off;
}

bool Shape::operator==(const Shape& o) const {
  if (rank_ != o.rank_) return false;
  for (int i = 0; i < rank_; ++i) {
    if (dims_[i] != o.dims_[i]) return false;
  }
  return true;
}

std::string Shape::str() const {
  std::ostringstream os;
  os << '[';
  for (int i = 0; i < rank_; ++i) {
    if (i) os << ", ";
    os << dims_[i];
  }
  os << ']';
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const Shape& s) {
  return os << s.str();
}

}  // namespace ccovid
