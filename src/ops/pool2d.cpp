#include "ops/pool2d.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "core/parallel.h"
#include "trace/trace.h"

namespace ccovid::ops {

namespace {

void check_pool_args(const Tensor& input, const Pool2dParams& p) {
  if (input.rank() != 4) {
    throw std::invalid_argument("pool2d: input must be NCHW");
  }
  if (p.ksize < 1 || p.stride < 1 || p.pad < 0 || p.pad >= p.ksize) {
    throw std::invalid_argument("pool2d: bad params");
  }
}

}  // namespace

index_t pool_out_extent(index_t in, const Pool2dParams& p) {
  return (in + 2 * p.pad - p.ksize) / p.stride + 1;
}

void max_pool2d_plane(const real_t* in_p, real_t* out_p, index_t* arg_p,
                      index_t h, index_t w, index_t ho, index_t wo,
                      const Pool2dParams& p) {
  // Taps visit the in-range window in ascending (ky, kx) order and keep
  // the first strict maximum: a NaN never wins, and an all-NaN window
  // yields -inf at flat index 0. The in-range tap bounds are hoisted out
  // of the tap loops and the running max / argmax update is written as
  // two selects on one comparison, so random activations cost no
  // mispredicted branch. The eval callers (arg_p == nullptr) run the
  // same loop; the argmax select is one cmov.
  const index_t k = p.ksize;
  for (index_t oy = 0; oy < ho; ++oy) {
    const index_t y0 = oy * p.stride - p.pad;
    const index_t ky0 = std::max<index_t>(0, -y0);
    const index_t ky1 = std::min<index_t>(k, h - y0);
    for (index_t ox = 0; ox < wo; ++ox) {
      const index_t x0 = ox * p.stride - p.pad;
      const index_t kx0 = std::max<index_t>(0, -x0);
      const index_t kx1 = std::min<index_t>(k, w - x0);
      real_t best = -std::numeric_limits<real_t>::infinity();
      index_t best_ix = 0;
      for (index_t ky = ky0; ky < ky1; ++ky) {
        const index_t row = (y0 + ky) * w + x0;
        for (index_t kx = kx0; kx < kx1; ++kx) {
          const real_t v = in_p[row + kx];
          const bool gt = v > best;
          best = gt ? v : best;
          best_ix = gt ? row + kx : best_ix;
        }
      }
      out_p[oy * wo + ox] = best;
      if (arg_p) arg_p[oy * wo + ox] = best_ix;
    }
  }
}

MaxPool2dResult max_pool2d(const Tensor& input, Pool2dParams p,
                           bool with_argmax) {
  TRACE_SPAN("ops.max_pool2d");
  check_pool_args(input, p);
  const index_t n = input.dim(0), c = input.dim(1), h = input.dim(2),
                w = input.dim(3);
  const index_t ho = pool_out_extent(h, p);
  const index_t wo = pool_out_extent(w, p);
  MaxPool2dResult res{Tensor({n, c, ho, wo}), {}};
  if (with_argmax) {
    res.argmax.resize(static_cast<std::size_t>(n * c * ho * wo));
  }
  const real_t* ip = input.data();
  real_t* op = res.output.data();
  index_t* ap = with_argmax ? res.argmax.data() : nullptr;

  parallel_for(
      0, n * c,
      [&](index_t plane) {
        max_pool2d_plane(ip + plane * h * w, op + plane * ho * wo,
                         ap ? ap + plane * ho * wo : nullptr, h, w, ho, wo,
                         p);
      },
      /*grain=*/1);
  return res;
}

Tensor max_pool2d_backward(const Tensor& grad_out,
                           const std::vector<index_t>& argmax,
                           index_t input_h, index_t input_w) {
  const index_t n = grad_out.dim(0), c = grad_out.dim(1),
                ho = grad_out.dim(2), wo = grad_out.dim(3);
  if (static_cast<index_t>(argmax.size()) != n * c * ho * wo) {
    throw std::invalid_argument("max_pool2d_backward: argmax size mismatch");
  }
  Tensor gin({n, c, input_h, input_w});
  const real_t* gp = grad_out.data();
  real_t* op = gin.data();
  const index_t* ap = argmax.data();
  // Scatter per (n, c) plane: windows can overlap (ksize > stride), so
  // accumulate rather than assign.
  parallel_for(
      0, n * c,
      [&](index_t plane) {
        const real_t* g = gp + plane * ho * wo;
        const index_t* a = ap + plane * ho * wo;
        real_t* out = op + plane * input_h * input_w;
        for (index_t i = 0; i < ho * wo; ++i) out[a[i]] += g[i];
      },
      /*grain=*/1);
  return gin;
}

Tensor avg_pool2d(const Tensor& input, Pool2dParams p) {
  TRACE_SPAN("ops.avg_pool2d");
  check_pool_args(input, p);
  const index_t n = input.dim(0), c = input.dim(1), h = input.dim(2),
                w = input.dim(3);
  const index_t ho = pool_out_extent(h, p);
  const index_t wo = pool_out_extent(w, p);
  Tensor out({n, c, ho, wo});
  const real_t* ip = input.data();
  real_t* op = out.data();
  // Divisor is the full kernel area (count_include_pad), keeping the
  // backward pass a uniform redistribute.
  const real_t inv_area =
      1.0f / static_cast<real_t>(p.ksize * p.ksize);
  parallel_for(
      0, n * c,
      [&](index_t plane) {
        const real_t* in_p = ip + plane * h * w;
        real_t* out_p = op + plane * ho * wo;
        for (index_t oy = 0; oy < ho; ++oy) {
          for (index_t ox = 0; ox < wo; ++ox) {
            real_t acc = 0.0f;
            for (index_t ky = 0; ky < p.ksize; ++ky) {
              const index_t iy = oy * p.stride - p.pad + ky;
              if (iy < 0 || iy >= h) continue;
              for (index_t kx = 0; kx < p.ksize; ++kx) {
                const index_t ix = ox * p.stride - p.pad + kx;
                if (ix < 0 || ix >= w) continue;
                acc += in_p[iy * w + ix];
              }
            }
            out_p[oy * wo + ox] = acc * inv_area;
          }
        }
      },
      /*grain=*/1);
  return out;
}

Tensor avg_pool2d_backward(const Tensor& grad_out, Pool2dParams p,
                           index_t input_h, index_t input_w) {
  const index_t n = grad_out.dim(0), c = grad_out.dim(1),
                ho = grad_out.dim(2), wo = grad_out.dim(3);
  Tensor gin({n, c, input_h, input_w});
  const real_t* gp = grad_out.data();
  real_t* op = gin.data();
  const real_t inv_area =
      1.0f / static_cast<real_t>(p.ksize * p.ksize);
  parallel_for(
      0, n * c,
      [&](index_t plane) {
        const real_t* g = gp + plane * ho * wo;
        real_t* out = op + plane * input_h * input_w;
        for (index_t oy = 0; oy < ho; ++oy) {
          for (index_t ox = 0; ox < wo; ++ox) {
            const real_t v = g[oy * wo + ox] * inv_area;
            for (index_t ky = 0; ky < p.ksize; ++ky) {
              const index_t iy = oy * p.stride - p.pad + ky;
              if (iy < 0 || iy >= input_h) continue;
              for (index_t kx = 0; kx < p.ksize; ++kx) {
                const index_t ix = ox * p.stride - p.pad + kx;
                if (ix < 0 || ix >= input_w) continue;
                out[iy * input_w + ix] += v;
              }
            }
          }
        }
      },
      /*grain=*/1);
  return gin;
}

}  // namespace ccovid::ops
