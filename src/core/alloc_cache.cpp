#include "core/alloc_cache.h"

#include <sanitizer/asan_interface.h>

#include <atomic>
#include <cstdlib>
#include <new>

namespace ccovid {

namespace {

// Everything here is constinit and trivially destructible, so a tensor
// freed by a static destructor after main still finds the bins intact.

struct Spinlock {
  std::atomic_flag flag = ATOMIC_FLAG_INIT;
  void lock() {
    while (flag.test_and_set(std::memory_order_acquire)) {
    }
  }
  void unlock() { flag.clear(std::memory_order_release); }
};

// A parked block's first word links to the next parked block.
struct FreeNode {
  FreeNode* next;
};

struct Bin {
  Spinlock lock;
  FreeNode* head = nullptr;
  std::size_t count = 0;
};

constexpr int kBuckets = 256;
constexpr std::size_t kBinCap = 64;  // blocks kept per bucket
// Layout: [64-byte skirt | payload]. The skirt keeps the payload 64-byte
// aligned; its last word holds the padded payload size.
constexpr std::size_t kSkirt = 64;

constinit Bin g_bins[kBuckets];
constinit std::atomic<std::uint64_t> g_fresh{0};

std::size_t& padded_size(void* p) { return static_cast<std::size_t*>(p)[-1]; }

void* base_of(void* p) { return static_cast<char*>(p) - kSkirt; }

Bin& bin_for(std::size_t padded) {
  std::uint64_t h = padded * 0x9e3779b97f4a7c15ULL;
  h ^= h >> 29;
  return g_bins[static_cast<std::size_t>(h) & (kBuckets - 1)];
}

}  // namespace

std::uint64_t fresh_system_allocs() {
  return g_fresh.load(std::memory_order_relaxed);
}

void* cache_aligned_alloc(std::size_t bytes) {
  // Key on the padded size so equal tensor shapes share pool entries.
  // Clamp to one cache line so a zero-byte request still owns a
  // distinct block.
  const std::size_t padded =
      bytes == 0 ? 64 : (bytes + 63) & ~std::size_t{63};
  Bin& bin = bin_for(padded);
  bin.lock.lock();
  FreeNode** link = &bin.head;
  for (int scanned = 0; *link != nullptr && scanned < 16; ++scanned) {
    FreeNode* node = *link;
    if (padded_size(node) == padded) {
      *link = node->next;
      --bin.count;
      bin.lock.unlock();
      ASAN_UNPOISON_MEMORY_REGION(node, padded);
      return node;
    }
    link = &node->next;
  }
  bin.lock.unlock();
  void* base = std::aligned_alloc(64, kSkirt + padded);
  if (base == nullptr) throw std::bad_alloc();
  void* p = static_cast<char*>(base) + kSkirt;
  padded_size(p) = padded;
  g_fresh.fetch_add(1, std::memory_order_relaxed);
  return p;
}

void cache_aligned_free(void* p) {
  if (p == nullptr) return;
  const std::size_t padded = padded_size(p);
  Bin& bin = bin_for(padded);
  bin.lock.lock();
  if (bin.count < kBinCap) {
    auto* node = static_cast<FreeNode*>(p);
    node->next = bin.head;
    bin.head = node;
    ++bin.count;
    // Poison under the lock, before another thread can pop the block.
    ASAN_POISON_MEMORY_REGION(node + 1, padded - sizeof(FreeNode));
    bin.lock.unlock();
    return;
  }
  bin.lock.unlock();
  std::free(base_of(p));
}

void cache_aligned_release(void* p) {
  if (p != nullptr) std::free(base_of(p));
}

}  // namespace ccovid
