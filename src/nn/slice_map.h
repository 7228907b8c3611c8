// Slice-parallel map over a (D, H, W) volume — the one loop behind the
// per-slice networks' volume entry points (DDnet enhancement via
// pipeline::EnhancementAI::enhance_volume, AhNet::segment_volume;
// DESIGN.md §7).
#pragma once

#include <algorithm>
#include <stdexcept>
#include <string>

#include "autograd/variable.h"
#include "core/parallel.h"
#include "core/tensor.h"

namespace ccovid::nn {

/// out[z] = fn(volume[z]) for every slice z. `fn(slice, out_plane)`
/// receives a fresh (H, W) copy of the slice and writes H * W values to
/// `out_plane`; it runs with gradients off. `who` prefixes the error a
/// non-volume input raises.
///
/// Width rule. With `parallel`, slices are spread over the caller's
/// num_threads() lanes, so ParallelPin caps (serve's inner_threads,
/// score_volumes' one lane per volume) still bound the whole map. Each
/// slice pins its own kernels to max(1, lanes / D) lanes: one lane per
/// slice once the volume is at least as deep as the map is wide, and
/// the spare lanes shared out when it is not. A slice computes the same
/// bits on any lane at any width, so the output never depends on the
/// schedule. Without `parallel` — a network in training mode, whose
/// forward updates shared running statistics slice by slice — the
/// slices run in order at the caller's width. Either way an exception
/// thrown by a slice reaches the caller.
template <typename Fn>
Tensor map_slices(const Tensor& volume, const char* who, bool parallel,
                  Fn&& fn) {
  if (volume.rank() != 3) {
    throw std::invalid_argument(std::string(who) +
                                ": expected (D, H, W), got " +
                                volume.shape().str());
  }
  const index_t d = volume.dim(0), hw = volume.dim(1) * volume.dim(2);
  Tensor out(volume.shape());
  const auto run = [&](index_t z) {
    autograd::NoGradGuard no_grad;
    Tensor slice({volume.dim(1), volume.dim(2)});
    std::copy(volume.data() + z * hw, volume.data() + (z + 1) * hw,
              slice.data());
    fn(slice, out.data() + z * hw);
  };
  if (!parallel || d <= 1) {
    for (index_t z = 0; z < d; ++z) run(z);
    return out;
  }
  const int inner = int(std::max<index_t>(1, num_threads() / d));
  parallel_for(
      0, d,
      [&](index_t z) {
        ParallelPin pin(inner);
        run(z);
      },
      /*grain=*/1);
  return out;
}

}  // namespace ccovid::nn
