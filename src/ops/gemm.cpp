#include "ops/gemm.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "core/arena.h"
#include "core/parallel.h"
#include "core/simd.h"
#include "trace/trace.h"

namespace ccovid::ops {

namespace {

// Cache block sizes: the B panel (kKc x kNc floats) stays L1/L2
// resident while a block row of A streams through.
constexpr index_t kMc = 64;
constexpr index_t kKc = 256;
constexpr index_t kNc = 256;

// The 4x8 register-tiled micro kernel lives in the SIMD layer
// (simd::KernelTable::sgemm_micro_4x8): lane j owns output column j
// and accumulates sequentially over K, so every backend — scalar
// emulation included — produces the bits the historical scalar
// microkernel did.

// Scalar edge kernel for remainder tiles.
void edge_kernel(const real_t* a, index_t lda, const real_t* b,
                 index_t ldb, real_t* c, index_t ldc, index_t mr,
                 index_t nr, index_t kc) {
  for (index_t i = 0; i < mr; ++i) {
    for (index_t j = 0; j < nr; ++j) {
      real_t acc = 0.0f;
      for (index_t p = 0; p < kc; ++p) {
        acc += a[i * lda + p] * b[p * ldb + j];
      }
      c[i * ldc + j] += acc;
    }
  }
}

}  // namespace

void sgemm(const real_t* a, const real_t* b, real_t* c, index_t m,
           index_t k, index_t n) {
  std::fill_n(c, m * n, 0.0f);
  const simd::KernelTable& kt = simd::kernels();
  // Parallelize across independent row blocks of C.
  const index_t row_blocks = (m + kMc - 1) / kMc;
  parallel_for(
      0, row_blocks,
      [&](index_t rb) {
        // Per-thread arena scratch for the packed B panels: each full
        // 8-wide column strip of the (kc x nc) block is copied into a
        // contiguous kc x 8 tile (ldb = 8), so the micro kernel streams
        // B with unit stride instead of jumping n floats per row. The
        // multiply-add order is unchanged — packing moves bytes, not
        // the FP summation — so results stay bitwise identical.
        ArenaScope scope;
        real_t* bpack = scope.alloc_floats(kKc * kNc);
        const index_t i0 = rb * kMc;
        const index_t i1 = std::min(m, i0 + kMc);
        for (index_t p0 = 0; p0 < k; p0 += kKc) {
          const index_t p1 = std::min(k, p0 + kKc);
          const index_t kc = p1 - p0;
          for (index_t j0 = 0; j0 < n; j0 += kNc) {
            const index_t j1 = std::min(n, j0 + kNc);
            const index_t panels = (j1 - j0) / 8;  // full 8-wide strips
            for (index_t t = 0; t < panels; ++t) {
              const real_t* CCOVID_RESTRICT src = b + p0 * n + j0 + t * 8;
              real_t* CCOVID_RESTRICT dst = bpack + t * kc * 8;
              for (index_t p = 0; p < kc; ++p) {
                for (int jj = 0; jj < 8; ++jj) {
                  dst[p * 8 + jj] = src[p * n + jj];
                }
              }
            }
            // Tile the (i0..i1, j0..j1) block with 4x8 micro tiles.
            index_t i = i0;
            for (; i + 4 <= i1; i += 4) {
              index_t j = j0;
              for (; j + 8 <= j1; j += 8) {
                kt.sgemm_micro_4x8(a + i * k + p0, k,
                                   bpack + ((j - j0) / 8) * kc * 8,
                                   c + i * n + j, n, kc);
              }
              if (j < j1) {
                // Narrow edge columns read B unpacked; the scalar edge
                // kernel is not leading-dimension sensitive.
                edge_kernel(a + i * k + p0, k, b + p0 * n + j, n,
                            c + i * n + j, n, 4, j1 - j, kc);
              }
            }
            if (i < i1) {
              edge_kernel(a + i * k + p0, k, b + p0 * n + j0, n,
                          c + i * n + j0, n, i1 - i, j1 - j0, kc);
            }
          }
        }
      },
      /*grain=*/1);
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  TRACE_SPAN("ops.gemm.matmul");
  if (a.rank() != 2 || b.rank() != 2 || a.dim(1) != b.dim(0)) {
    throw std::invalid_argument("matmul: shapes " + a.shape().str() +
                                " x " + b.shape().str());
  }
  Tensor c({a.dim(0), b.dim(1)});
  sgemm(a.data(), b.data(), c.data(), a.dim(0), a.dim(1), b.dim(1));
  return c;
}

namespace {

// Shared implementation of im2col writing into caller-owned storage —
// either a Tensor (public im2col) or arena scratch (conv2d_gemm's hot
// path, which must not touch the heap in steady state).
void im2col_into(const Tensor& input, index_t ksize, Conv2dParams p,
                 real_t* op) {
  const index_t n = input.dim(0), c = input.dim(1), h = input.dim(2),
                w = input.dim(3);
  const index_t ho = conv_out_extent(h, ksize, p.stride, p.pad);
  const index_t wo = conv_out_extent(w, ksize, p.stride, p.pad);
  const real_t* ip = input.data();
  parallel_for(
      0, n * c,
      [&](index_t job) {
        const index_t ni = job / c;
        const index_t ci = job % c;
        const real_t* in_p = ip + (ni * c + ci) * h * w;
        for (index_t ky = 0; ky < ksize; ++ky) {
          for (index_t kx = 0; kx < ksize; ++kx) {
            real_t* row = op + (ni * c * ksize * ksize +
                                (ci * ksize + ky) * ksize + kx) *
                                   ho * wo;
            if (p.stride == 1) {
              // Stride-1 fast path: for a fixed (ky, kx) the source
              // indices ix = ox - pad + kx are contiguous, so each
              // output row is zero padding around one memcpy. This is
              // pure data movement — no FP ops — so it cannot perturb
              // lane determinism, and it keeps the backend-independent
              // share of conv2d_gemm from swamping the GEMM speedup.
              const index_t xlo =
                  std::min(wo, std::max<index_t>(0, p.pad - kx));
              const index_t xhi =
                  std::max(xlo, std::min(wo, w + p.pad - kx));
              for (index_t oy = 0; oy < ho; ++oy) {
                const index_t iy = oy - p.pad + ky;
                real_t* dst = row + oy * wo;
                if (iy < 0 || iy >= h) {
                  std::memset(dst, 0, sizeof(real_t) * wo);
                  continue;
                }
                if (xlo > 0) std::memset(dst, 0, sizeof(real_t) * xlo);
                if (xhi > xlo) {
                  std::memcpy(dst + xlo,
                              in_p + iy * w + (xlo - p.pad + kx),
                              sizeof(real_t) * (xhi - xlo));
                }
                if (wo > xhi) {
                  std::memset(dst + xhi, 0, sizeof(real_t) * (wo - xhi));
                }
              }
              continue;
            }
            for (index_t oy = 0; oy < ho; ++oy) {
              const index_t iy = oy * p.stride - p.pad + ky;
              for (index_t ox = 0; ox < wo; ++ox) {
                const index_t ix = ox * p.stride - p.pad + kx;
                row[oy * wo + ox] =
                    (iy >= 0 && iy < h && ix >= 0 && ix < w)
                        ? in_p[iy * w + ix]
                        : 0.0f;
              }
            }
          }
        }
      },
      /*grain=*/1);
}

}  // namespace

Tensor im2col(const Tensor& input, index_t ksize, Conv2dParams p) {
  if (input.rank() != 4) {
    throw std::invalid_argument("im2col: input must be NCHW");
  }
  const index_t ho =
      conv_out_extent(input.dim(2), ksize, p.stride, p.pad);
  const index_t wo =
      conv_out_extent(input.dim(3), ksize, p.stride, p.pad);
  Tensor cols(
      {input.dim(0), input.dim(1) * ksize * ksize, ho * wo});
  im2col_into(input, ksize, p, cols.data());
  return cols;
}

Tensor col2im(const Tensor& cols, index_t channels, index_t h, index_t w,
              index_t ksize, Conv2dParams p) {
  const index_t n = cols.dim(0);
  const index_t ho = conv_out_extent(h, ksize, p.stride, p.pad);
  const index_t wo = conv_out_extent(w, ksize, p.stride, p.pad);
  if (cols.dim(1) != channels * ksize * ksize ||
      cols.dim(2) != ho * wo) {
    throw std::invalid_argument("col2im: column shape mismatch");
  }
  Tensor img({n, channels, h, w});
  const real_t* ip = cols.data();
  real_t* op = img.data();
  parallel_for(
      0, n * channels,
      [&](index_t job) {
        const index_t ni = job / channels;
        const index_t ci = job % channels;
        real_t* out_p = op + (ni * channels + ci) * h * w;
        for (index_t ky = 0; ky < ksize; ++ky) {
          for (index_t kx = 0; kx < ksize; ++kx) {
            const real_t* row =
                ip + (ni * channels * ksize * ksize +
                      (ci * ksize + ky) * ksize + kx) *
                         ho * wo;
            for (index_t oy = 0; oy < ho; ++oy) {
              const index_t iy = oy * p.stride - p.pad + ky;
              if (iy < 0 || iy >= h) continue;
              for (index_t ox = 0; ox < wo; ++ox) {
                const index_t ix = ox * p.stride - p.pad + kx;
                if (ix < 0 || ix >= w) continue;
                out_p[iy * w + ix] += row[oy * wo + ox];
              }
            }
          }
        }
      },
      /*grain=*/1);
  return img;
}

Tensor conv2d_gemm(const Tensor& input, const Tensor& weight,
                   const Tensor& bias, Conv2dParams p) {
  TRACE_SPAN("ops.conv2d.gemm");
  if (weight.rank() != 4 || weight.dim(1) != input.dim(1)) {
    throw std::invalid_argument("conv2d_gemm: weight shape mismatch");
  }
  const index_t n = input.dim(0), cout = weight.dim(0),
                k = weight.dim(2);
  const index_t ho = conv_out_extent(input.dim(2), k, p.stride, p.pad);
  const index_t wo = conv_out_extent(input.dim(3), k, p.stride, p.pad);
  const index_t patch = input.dim(1) * k * k;

  // The column matrix is pure scratch: stage it in the calling
  // thread's arena (workers inside the parallel loops may read it —
  // the arena only dictates who frees) so steady-state inference never
  // allocates here.
  ArenaScope scope;
  real_t* cols = scope.alloc_floats(n * patch * ho * wo);
  im2col_into(input, k, p, cols);
  Tensor out({n, cout, ho, wo});
  for (index_t ni = 0; ni < n; ++ni) {
    // (Cout x patch) @ (patch x Ho*Wo).
    sgemm(weight.data(), cols + ni * patch * ho * wo,
          out.data() + ni * cout * ho * wo, cout, patch, ho * wo);
  }
  if (bias.defined()) {
    const simd::KernelTable& kt = simd::kernels();
    real_t* op = out.data();
    for (index_t ni = 0; ni < n; ++ni) {
      for (index_t co = 0; co < cout; ++co) {
        kt.add_scalar(op + (ni * cout + co) * ho * wo, ho * wo,
                      bias.at(co));
      }
    }
  }
  return out;
}

}  // namespace ccovid::ops
