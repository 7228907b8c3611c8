#include "core/tensor.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <new>
#include <stdexcept>

#include "core/alloc_cache.h"

namespace ccovid {

namespace {

std::shared_ptr<real_t[]> allocate_aligned(index_t n) {
  if (n == 0) n = 1;  // keep a valid pointer for rank-0 / empty extents
  const std::size_t bytes =
      static_cast<std::size_t>(n) * sizeof(real_t);
  const std::size_t padded =
      (bytes + kTensorAlignment - 1) / kTensorAlignment * kTensorAlignment;
  // Exact-size block pool: steady-state inference cycles through the
  // same tensor shapes, so after warm-up this recycles a parked block
  // instead of taking a fresh one from the system heap. Recycled blocks
  // hold stale data — the memset preserves the constructor's zero-init
  // contract.
  void* p = cache_aligned_alloc(padded);
  std::memset(p, 0, padded);
  return std::shared_ptr<real_t[]>(static_cast<real_t*>(p),
                                   [](real_t* q) { cache_aligned_free(q); });
}

void check_same_shape(const Tensor& a, const Tensor& b, const char* op) {
  if (a.shape() != b.shape()) {
    throw std::invalid_argument(std::string(op) + ": shape mismatch " +
                                a.shape().str() + " vs " + b.shape().str());
  }
}

}  // namespace

Tensor::Tensor(Shape shape)
    : shape_(std::move(shape)), storage_(allocate_aligned(shape_.numel())) {}

Tensor Tensor::full(Shape shape, real_t value) {
  Tensor t(std::move(shape));
  t.fill(value);
  return t;
}

Tensor Tensor::from_vector(Shape shape, const std::vector<real_t>& v) {
  Tensor t(std::move(shape));
  if (static_cast<index_t>(v.size()) != t.numel()) {
    throw std::invalid_argument("Tensor::from_vector: size mismatch");
  }
  std::copy(v.begin(), v.end(), t.data());
  return t;
}

Tensor Tensor::clone() const {
  Tensor t(shape_);
  if (defined()) {
    std::memcpy(t.data(), data(),
                static_cast<std::size_t>(numel()) * sizeof(real_t));
  }
  return t;
}

Tensor Tensor::reshape(Shape new_shape) const {
  if (new_shape.numel() != numel()) {
    throw std::invalid_argument("Tensor::reshape: numel mismatch " +
                                shape_.str() + " -> " + new_shape.str());
  }
  Tensor t;
  t.shape_ = std::move(new_shape);
  t.storage_ = storage_;
  return t;
}

void Tensor::fill(real_t value) {
  std::fill_n(data(), numel(), value);
}

Tensor& Tensor::add_(const Tensor& other, real_t alpha) {
  check_same_shape(*this, other, "add_");
  real_t* CCOVID_RESTRICT a = data();
  const real_t* CCOVID_RESTRICT b = other.data();
  const index_t n = numel();
  for (index_t i = 0; i < n; ++i) a[i] += alpha * b[i];
  return *this;
}

Tensor& Tensor::mul_(real_t scalar) {
  real_t* a = data();
  const index_t n = numel();
  for (index_t i = 0; i < n; ++i) a[i] *= scalar;
  return *this;
}

Tensor& Tensor::mul_(const Tensor& other) {
  check_same_shape(*this, other, "mul_");
  real_t* CCOVID_RESTRICT a = data();
  const real_t* CCOVID_RESTRICT b = other.data();
  const index_t n = numel();
  for (index_t i = 0; i < n; ++i) a[i] *= b[i];
  return *this;
}

Tensor Tensor::add(const Tensor& other) const {
  Tensor out = clone();
  out.add_(other);
  return out;
}

Tensor Tensor::sub(const Tensor& other) const {
  Tensor out = clone();
  out.add_(other, -1.0f);
  return out;
}

Tensor Tensor::mul(const Tensor& other) const {
  Tensor out = clone();
  out.mul_(other);
  return out;
}

real_t Tensor::sum() const {
  // Accumulate in double: test images have ~1e6 elements and float
  // accumulation would lose ~3 digits.
  double s = 0.0;
  const real_t* a = data();
  const index_t n = numel();
  for (index_t i = 0; i < n; ++i) s += a[i];
  return static_cast<real_t>(s);
}

real_t Tensor::mean() const {
  const index_t n = numel();
  return n > 0 ? sum() / static_cast<real_t>(n) : 0.0f;
}

real_t Tensor::min() const {
  const real_t* a = data();
  return *std::min_element(a, a + numel());
}

real_t Tensor::max() const {
  const real_t* a = data();
  return *std::max_element(a, a + numel());
}

real_t Tensor::abs_max() const {
  const real_t* a = data();
  const index_t n = numel();
  real_t m = 0.0f;
  for (index_t i = 0; i < n; ++i) m = std::max(m, std::fabs(a[i]));
  return m;
}

std::vector<real_t> Tensor::to_vector() const {
  return std::vector<real_t>(data(), data() + numel());
}

bool allclose(const Tensor& a, const Tensor& b, real_t rtol, real_t atol) {
  if (a.shape() != b.shape()) return false;
  const real_t* pa = a.data();
  const real_t* pb = b.data();
  const index_t n = a.numel();
  for (index_t i = 0; i < n; ++i) {
    const real_t tol = atol + rtol * std::fabs(pb[i]);
    if (std::fabs(pa[i] - pb[i]) > tol) return false;
  }
  return true;
}

real_t max_abs_diff(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) {
    throw std::invalid_argument("max_abs_diff: shape mismatch");
  }
  const real_t* pa = a.data();
  const real_t* pb = b.data();
  const index_t n = a.numel();
  real_t m = 0.0f;
  for (index_t i = 0; i < n; ++i) {
    m = std::max(m, std::fabs(pa[i] - pb[i]));
  }
  return m;
}

}  // namespace ccovid
