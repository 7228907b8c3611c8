#include "ops/pool2d.h"

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
  for (index_t oy = 0; oy < ho; ++oy) {
    for (index_t ox = 0; ox < wo; ++ox) {
      real_t best = -std::numeric_limits<real_t>::infinity();
      index_t best_ix = 0;
      for (index_t ky = 0; ky < p.ksize; ++ky) {
        const index_t iy = oy * p.stride - p.pad + ky;
        if (iy < 0 || iy >= h) continue;
        for (index_t kx = 0; kx < p.ksize; ++kx) {
          const index_t ix = ox * p.stride - p.pad + kx;
          if (ix < 0 || ix >= w) continue;
          const real_t v = in_p[iy * w + ix];
          if (v > best) {
            best = v;
            best_ix = iy * w + ix;
          }
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
