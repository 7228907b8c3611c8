// Recycling allocation cache backing the zero-allocation inference hot
// path.
//
// Two layers, both defined in alloc_cache.cpp:
//
//  1. A global operator new/delete replacement that services small
//     requests (<= 4 KiB) from power-of-two freelists and larger ones
//     from an exact-size hashed cache. After warm-up every transient
//     allocation the forward pass makes (autograd nodes, shared_ptr
//     control blocks, std::function states, vectors) is a cache hit —
//     the system heap is never entered.
//  2. cache_aligned_alloc/free: 64-byte-aligned block pool used by
//     Tensor storage, exact-size keyed so the steady-state tensor
//     shapes of a model recycle perfectly.
//
// The cache counts *fresh* system allocations (cache misses) separately
// from recycled hits; tests/test_alloc.cpp asserts the fresh count stays
// flat across steady-state inference iterations — the measurable meaning
// of "zero heap allocations after warm-up".
//
// The whole subsystem is compiled out under ASan/TSan/MSan (interposing
// operator new would blind the sanitizers) and can be disabled at
// runtime with CCOVID_DISABLE_ALLOC_CACHE=1; alloc_cache_active()
// reports the effective state so tests can skip rather than fail.
#pragma once

#include <cstddef>
#include <cstdint>

namespace ccovid {

struct AllocCacheStats {
  /// Allocations that had to touch the system heap (cache misses plus
  /// everything before the cache warmed up).
  std::uint64_t fresh_system_allocs = 0;
  /// Allocations served by recycling a previously freed block.
  std::uint64_t cached_allocs = 0;
  /// Blocks returned to the cache instead of the system heap.
  std::uint64_t cached_frees = 0;
};

/// True when the recycling cache is compiled in AND enabled at runtime.
bool alloc_cache_active();

/// Monotonic count of fresh system-heap allocations (see stats).
std::uint64_t fresh_system_allocs();

AllocCacheStats alloc_cache_stats();

/// 64-byte-aligned allocation from the exact-size block pool. `bytes`
/// need not be a multiple of the alignment. Never returns nullptr
/// (throws std::bad_alloc). Pair with cache_aligned_free.
void* cache_aligned_alloc(std::size_t bytes);
void cache_aligned_free(void* p);

/// Frees a cache_aligned_alloc block straight to the system heap,
/// bypassing the pool — for large blocks whose size will not recur.
void cache_aligned_release(void* p);

}  // namespace ccovid
