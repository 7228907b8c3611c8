#include "ops/pool3d.h"

#include <limits>
#include <stdexcept>

#include "core/parallel.h"
#include "trace/trace.h"

namespace ccovid::ops {

namespace {

index_t out_extent(index_t in, const Pool3dParams& p) {
  return (in + 2 * p.pad - p.ksize) / p.stride + 1;
}

void check_args(const Tensor& input, const Pool3dParams& p) {
  if (input.rank() != 5) {
    throw std::invalid_argument("pool3d: input must be NCDHW");
  }
  if (p.ksize < 1 || p.stride < 1 || p.pad < 0 || p.pad >= p.ksize) {
    throw std::invalid_argument("pool3d: bad params");
  }
}

}  // namespace

MaxPool3dResult max_pool3d(const Tensor& input, Pool3dParams p,
                           bool with_argmax) {
  TRACE_SPAN("ops.max_pool3d");
  check_args(input, p);
  const index_t n = input.dim(0), c = input.dim(1), d = input.dim(2),
                h = input.dim(3), w = input.dim(4);
  const index_t od = out_extent(d, p), oh = out_extent(h, p),
                ow = out_extent(w, p);
  MaxPool3dResult res{Tensor({n, c, od, oh, ow}), {}};
  if (with_argmax) {
    res.argmax.resize(static_cast<std::size_t>(n * c * od * oh * ow));
  }
  const real_t* ip = input.data();
  real_t* op = res.output.data();
  index_t* ap = with_argmax ? res.argmax.data() : nullptr;

  // One job per (n, c, output depth plane), as in conv3d.
  parallel_for(
      0, n * c * od,
      [&](index_t job) {
        const index_t plane = job / od, oz = job % od;
        const real_t* in_p = ip + plane * d * h * w;
        real_t* out_p = op + plane * od * oh * ow;
        index_t* arg_p = ap ? ap + plane * od * oh * ow : nullptr;
        for (index_t oy = 0; oy < oh; ++oy) {
          for (index_t ox = 0; ox < ow; ++ox) {
            real_t best = -std::numeric_limits<real_t>::infinity();
            index_t best_ix = 0;
            for (index_t kz = 0; kz < p.ksize; ++kz) {
              const index_t iz = oz * p.stride - p.pad + kz;
              if (iz < 0 || iz >= d) continue;
              for (index_t ky = 0; ky < p.ksize; ++ky) {
                const index_t iy = oy * p.stride - p.pad + ky;
                if (iy < 0 || iy >= h) continue;
                for (index_t kx = 0; kx < p.ksize; ++kx) {
                  const index_t ix = ox * p.stride - p.pad + kx;
                  if (ix < 0 || ix >= w) continue;
                  const real_t v = in_p[(iz * h + iy) * w + ix];
                  if (v > best) {
                    best = v;
                    best_ix = (iz * h + iy) * w + ix;
                  }
                }
              }
            }
            out_p[(oz * oh + oy) * ow + ox] = best;
            if (arg_p) arg_p[(oz * oh + oy) * ow + ox] = best_ix;
          }
        }
      },
      /*grain=*/1);
  return res;
}

Tensor max_pool3d_backward(const Tensor& grad_out,
                           const std::vector<index_t>& argmax, index_t in_d,
                           index_t in_h, index_t in_w) {
  const index_t n = grad_out.dim(0), c = grad_out.dim(1),
                sp = grad_out.dim(2) * grad_out.dim(3) * grad_out.dim(4);
  if (static_cast<index_t>(argmax.size()) != n * c * sp) {
    throw std::invalid_argument("max_pool3d_backward: argmax mismatch");
  }
  Tensor gin({n, c, in_d, in_h, in_w});
  const real_t* gp = grad_out.data();
  real_t* op = gin.data();
  const index_t* ap = argmax.data();
  parallel_for(
      0, n * c,
      [&](index_t plane) {
        const real_t* g = gp + plane * sp;
        const index_t* a = ap + plane * sp;
        real_t* out = op + plane * in_d * in_h * in_w;
        for (index_t i = 0; i < sp; ++i) out[a[i]] += g[i];
      },
      /*grain=*/1);
  return gin;
}

Tensor avg_pool3d(const Tensor& input, Pool3dParams p) {
  TRACE_SPAN("ops.avg_pool3d");
  check_args(input, p);
  const index_t n = input.dim(0), c = input.dim(1), d = input.dim(2),
                h = input.dim(3), w = input.dim(4);
  const index_t od = out_extent(d, p), oh = out_extent(h, p),
                ow = out_extent(w, p);
  Tensor out({n, c, od, oh, ow});
  const real_t* ip = input.data();
  real_t* op = out.data();
  const real_t inv = 1.0f / static_cast<real_t>(p.ksize * p.ksize * p.ksize);
  parallel_for(
      0, n * c * od,
      [&](index_t job) {
        const index_t plane = job / od, oz = job % od;
        const real_t* in_p = ip + plane * d * h * w;
        real_t* out_p = op + plane * od * oh * ow;
        for (index_t oy = 0; oy < oh; ++oy) {
          for (index_t ox = 0; ox < ow; ++ox) {
            real_t acc = 0.0f;
            for (index_t kz = 0; kz < p.ksize; ++kz) {
              const index_t iz = oz * p.stride - p.pad + kz;
              if (iz < 0 || iz >= d) continue;
              for (index_t ky = 0; ky < p.ksize; ++ky) {
                const index_t iy = oy * p.stride - p.pad + ky;
                if (iy < 0 || iy >= h) continue;
                for (index_t kx = 0; kx < p.ksize; ++kx) {
                  const index_t ix = ox * p.stride - p.pad + kx;
                  if (ix < 0 || ix >= w) continue;
                  acc += in_p[(iz * h + iy) * w + ix];
                }
              }
            }
            out_p[(oz * oh + oy) * ow + ox] = acc * inv;
          }
        }
      },
      /*grain=*/1);
  return out;
}

Tensor avg_pool3d_backward(const Tensor& grad_out, Pool3dParams p,
                           index_t in_d, index_t in_h, index_t in_w) {
  const index_t n = grad_out.dim(0), c = grad_out.dim(1),
                od = grad_out.dim(2), oh = grad_out.dim(3),
                ow = grad_out.dim(4);
  Tensor gin({n, c, in_d, in_h, in_w});
  const real_t* gp = grad_out.data();
  real_t* op = gin.data();
  const real_t inv = 1.0f / static_cast<real_t>(p.ksize * p.ksize * p.ksize);
  parallel_for(
      0, n * c,
      [&](index_t plane) {
        const real_t* g = gp + plane * od * oh * ow;
        real_t* out = op + plane * in_d * in_h * in_w;
        for (index_t oz = 0; oz < od; ++oz) {
          for (index_t oy = 0; oy < oh; ++oy) {
            for (index_t ox = 0; ox < ow; ++ox) {
              const real_t v = g[(oz * oh + oy) * ow + ox] * inv;
              for (index_t kz = 0; kz < p.ksize; ++kz) {
                const index_t iz = oz * p.stride - p.pad + kz;
                if (iz < 0 || iz >= in_d) continue;
                for (index_t ky = 0; ky < p.ksize; ++ky) {
                  const index_t iy = oy * p.stride - p.pad + ky;
                  if (iy < 0 || iy >= in_h) continue;
                  for (index_t kx = 0; kx < p.ksize; ++kx) {
                    const index_t ix = ox * p.stride - p.pad + kx;
                    if (ix < 0 || ix >= in_w) continue;
                    out[(iz * in_h + iy) * in_w + ix] += v;
                  }
                }
              }
            }
          }
        }
      },
      /*grain=*/1);
  return gin;
}

Tensor global_avg_pool3d(const Tensor& input) {
  TRACE_SPAN("ops.global_avg_pool3d");
  if (input.rank() != 5) {
    throw std::invalid_argument("global_avg_pool3d: input must be NCDHW");
  }
  const index_t n = input.dim(0), c = input.dim(1),
                sp = input.dim(2) * input.dim(3) * input.dim(4);
  Tensor out({n, c});
  const real_t* ip = input.data();
  real_t* op = out.data();
  for (index_t plane = 0; plane < n * c; ++plane) {
    double acc = 0.0;
    const real_t* x = ip + plane * sp;
    for (index_t i = 0; i < sp; ++i) acc += x[i];
    op[plane] = static_cast<real_t>(acc / static_cast<double>(sp));
  }
  return out;
}

Tensor global_avg_pool3d_backward(const Tensor& grad_out, index_t in_d,
                                  index_t in_h, index_t in_w) {
  const index_t n = grad_out.dim(0), c = grad_out.dim(1);
  const index_t sp = in_d * in_h * in_w;
  Tensor gin({n, c, in_d, in_h, in_w});
  const real_t* gp = grad_out.data();
  real_t* op = gin.data();
  const real_t inv = 1.0f / static_cast<real_t>(sp);
  for (index_t plane = 0; plane < n * c; ++plane) {
    const real_t v = gp[plane] * inv;
    real_t* out = op + plane * sp;
    for (index_t i = 0; i < sp; ++i) out[i] = v;
  }
  return gin;
}

}  // namespace ccovid::ops
