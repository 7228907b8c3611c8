// Per-thread scratch arenas for kernel workspace.
//
// Hot kernels (FBP filtering rows, the low-precision conv jobs' widened
// input bands, compiled-graph slabs) need short-lived buffers whose size
// repeats every call. Allocating
// them from the heap per call costs a lock + page faults; a bump arena
// costs two pointer adjustments and, after the first call warmed the
// chunk up, takes no fresh block. That is the arena's half of the
// steady-state zero-fresh-block guarantee (tests/test_alloc); tensor
// storage recycled through the block pool (core/alloc_cache.h) is the
// other half. Chunks come from that pool and count as its misses.
//
// Usage — strictly LIFO, enforced by RAII:
//
//   ArenaScope scope;                       // marks this thread's arena
//   real_t* buf = scope.alloc_floats(n);    // valid until scope exits
//   ...
//   // scope destructor rewinds the arena; buf is dead.
//
// Lifetime rules (also documented in DESIGN.md):
//  * a pointer obtained from a scope is valid only until that scope's
//    destructor runs — never store it in a structure that outlives the
//    kernel invocation;
//  * scopes nest (inner scopes rewind before outer ones) but must not
//    interleave across threads: each thread has its own arena, and a
//    parallel_for body that needs scratch opens its OWN ArenaScope so
//    the allocation lands in the executing worker's arena;
//  * a buffer allocated by the master BEFORE a parallel_for (e.g. a
//    compiled graph's activation slabs) may be read/written by workers
//    inside the loop — the arena only dictates who frees, not who
//    touches.
//
// While scratch is live, chunks grow geometrically. A request that finds
// the arena EMPTY and fits no chunk instead replaces every chunk with
// one that fits it, handing the old ones back to the system. So a
// thread that alternates whole-run blocks (each compiled graph takes
// its scratch as one block) holds the largest block, not their sum.
// Chunks are otherwise kept while the thread lives, so a fixed workload
// reaches a fixed footprint and stays there.
#pragma once

#include <cstddef>
#include <cstring>
#include <vector>

#include "core/alloc_cache.h"
#include "core/types.h"

namespace ccovid {

class ScratchArena {
 public:
  struct Mark {
    std::size_t chunk;
    std::size_t top;
  };

  ScratchArena() = default;
  ~ScratchArena() { release(); }
  ScratchArena(const ScratchArena&) = delete;
  ScratchArena& operator=(const ScratchArena&) = delete;

  /// 64-byte-aligned scratch block; contents are uninitialized.
  void* alloc(std::size_t bytes) {
    bytes = (bytes + 63) & ~std::size_t{63};
    const bool empty =
        active_ == 0 && (chunks_.empty() || chunks_[0].top == 0);
    while (active_ < chunks_.size()) {
      Chunk& c = chunks_[active_];
      if (c.top + bytes <= c.cap) {
        void* p = c.data + c.top;
        c.top += bytes;
        return p;
      }
      if (active_ + 1 == chunks_.size()) break;
      ++active_;
      chunks_[active_].top = 0;
    }
    // Nothing is live, so no pointer pins the old chunks.
    if (empty) release();
    grow(bytes);
    Chunk& c = chunks_[active_];
    void* p = c.data;
    c.top = bytes;
    return p;
  }

  real_t* alloc_floats(index_t n) {
    return static_cast<real_t*>(
        alloc(static_cast<std::size_t>(n) * sizeof(real_t)));
  }
  double* alloc_doubles(index_t n) {
    return static_cast<double*>(
        alloc(static_cast<std::size_t>(n) * sizeof(double)));
  }

  Mark mark() const {
    return Mark{active_, chunks_.empty() ? 0 : chunks_[active_].top};
  }

  void rewind(Mark m) {
    if (chunks_.empty()) return;
    for (std::size_t i = m.chunk + 1; i < chunks_.size(); ++i) {
      chunks_[i].top = 0;
    }
    active_ = m.chunk;
    chunks_[active_].top = m.top;
  }

  /// Total bytes of chunk capacity this arena holds (tests/metrics).
  std::size_t capacity() const {
    std::size_t c = 0;
    for (const Chunk& ch : chunks_) c += ch.cap;
    return c;
  }

 private:
  struct Chunk {
    char* data;
    std::size_t cap;
    std::size_t top;
  };

  void grow(std::size_t need) {
    std::size_t cap = chunks_.empty() ? kInitialChunk : chunks_.back().cap * 2;
    if (cap < need) cap = need;
    chunks_.push_back(
        Chunk{static_cast<char*>(cache_aligned_alloc(cap)), cap, 0});
    active_ = chunks_.size() - 1;
  }

  /// Returns every chunk to the system heap, not the block pool: an
  /// outgrown chunk's size is unlikely to be requested again.
  void release() {
    for (Chunk& c : chunks_) cache_aligned_release(c.data);
    chunks_.clear();
    active_ = 0;
  }

  static constexpr std::size_t kInitialChunk = 256 * 1024;

  std::vector<Chunk> chunks_;
  std::size_t active_ = 0;
};

/// The calling thread's arena (engine workers, serve workers, and the
/// main thread each get their own lazily).
inline ScratchArena& this_thread_arena() {
  thread_local ScratchArena arena;
  return arena;
}

/// RAII mark/rewind over this thread's arena. All scratch taken through
/// the scope dies when the scope does.
class ArenaScope {
 public:
  ArenaScope() : arena_(this_thread_arena()), mark_(arena_.mark()) {}
  ~ArenaScope() { arena_.rewind(mark_); }
  ArenaScope(const ArenaScope&) = delete;
  ArenaScope& operator=(const ArenaScope&) = delete;

  void* alloc(std::size_t bytes) { return arena_.alloc(bytes); }
  real_t* alloc_floats(index_t n) { return arena_.alloc_floats(n); }
  double* alloc_doubles(index_t n) { return arena_.alloc_doubles(n); }

 private:
  ScratchArena& arena_;
  ScratchArena::Mark mark_;
};

}  // namespace ccovid
