// Exact-size block pool behind Tensor storage and ScratchArena chunks.
//
// cache_aligned_alloc hands out 64-byte-aligned blocks keyed by their
// padded size. cache_aligned_free parks a block in a per-size freelist,
// so the steady-state tensor shapes of a model recycle their blocks
// instead of going back to the system heap. The pool runs the same code
// in every build, sanitizers included. Under ASan a parked block's
// payload is poisoned (all but its first word, which links the
// freelist), so a use-after-free of tensor storage still aborts.
//
// fresh_system_allocs() counts pool misses: blocks taken from the system
// heap for tensor storage or arena chunks. tests/test_alloc.cpp asserts
// it stays flat across steady-state inference, which is the measurable
// meaning of "zero fresh blocks after warm-up". The rest of the heap
// traffic (Tensor control blocks, std::function states, vectors) goes
// to the system allocator and is not counted.
#pragma once

#include <cstddef>
#include <cstdint>

namespace ccovid {

/// Monotonic count of pool misses (see above).
std::uint64_t fresh_system_allocs();

/// 64-byte-aligned allocation from the exact-size block pool. `bytes`
/// need not be a multiple of the alignment. Never returns nullptr
/// (throws std::bad_alloc). Pair with cache_aligned_free.
void* cache_aligned_alloc(std::size_t bytes);
void cache_aligned_free(void* p);

/// Frees a cache_aligned_alloc block straight to the system heap,
/// bypassing the pool — for large blocks whose size will not recur.
void cache_aligned_release(void* p);

}  // namespace ccovid
