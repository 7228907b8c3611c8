// Shape: a small fixed-capacity dimension vector with row-major stride
// math. Tensors in this library are at most 5-D (N, C, D, H, W).
#pragma once

#include <array>
#include <initializer_list>
#include <ostream>
#include <string>

#include "core/types.h"

namespace ccovid {

class Shape {
 public:
  static constexpr int kMaxRank = 5;

  /// Both constructors throw std::invalid_argument on a rank above
  /// kMaxRank, a negative extent, or an element count that overflows
  /// index_t.
  Shape() = default;
  Shape(std::initializer_list<index_t> dims);
  Shape(const index_t* dims, int rank);

  int rank() const { return rank_; }
  index_t operator[](int i) const;
  index_t& operator[](int i);

  /// Product of all extents; 1 for a rank-0 shape (scalar).
  index_t numel() const;

  /// Row-major stride of dimension `i` (elements, not bytes).
  index_t stride(int i) const;

  /// Flat row-major offset of a coordinate tuple. The number of indices
  /// must equal rank(); checked in debug builds.
  template <typename... Ix>
  index_t offset(Ix... ix) const {
    static_assert(sizeof...(Ix) <= kMaxRank);
    const index_t idx[] = {static_cast<index_t>(ix)...};
    return offset_impl(idx, static_cast<int>(sizeof...(Ix)));
  }

  bool operator==(const Shape& o) const;
  bool operator!=(const Shape& o) const { return !(*this == o); }

  /// Human-readable form, e.g. "[1, 16, 512, 512]".
  std::string str() const;

 private:
  index_t offset_impl(const index_t* idx, int n) const;

  std::array<index_t, kMaxRank> dims_{};
  int rank_ = 0;
};

std::ostream& operator<<(std::ostream& os, const Shape& s);

}  // namespace ccovid
