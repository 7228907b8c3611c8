#include "core/alloc_cache.h"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>

// Sanitizer builds must see the real allocator: interposing operator
// new/delete would hide heap bugs from ASan and recycled-block reuse
// would look like races to TSan.
#ifndef CCOVID_ALLOC_CACHE_COMPILED
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || \
    defined(__SANITIZE_MEMORY__)
#define CCOVID_ALLOC_CACHE_COMPILED 0
#endif
#endif
#if !defined(CCOVID_ALLOC_CACHE_COMPILED) && defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define CCOVID_ALLOC_CACHE_COMPILED 0
#endif
#endif
#ifndef CCOVID_ALLOC_CACHE_COMPILED
#define CCOVID_ALLOC_CACHE_COMPILED 1
#endif

namespace ccovid {

namespace {

#if CCOVID_ALLOC_CACHE_COMPILED

// ---- low-level state ------------------------------------------------
// Everything here is constinit / trivially destructible: operator new
// runs before main and after static destructors, so this state must
// never itself be constructed or destroyed.

struct Spinlock {
  std::atomic_flag flag = ATOMIC_FLAG_INIT;
  void lock() {
    while (flag.test_and_set(std::memory_order_acquire)) {
    }
  }
  void unlock() { flag.clear(std::memory_order_release); }
};

// Block header, 16 bytes, directly in front of the user pointer.
struct Header {
  std::uint64_t bytes;  // usable payload size (class size / exact size)
  std::uint32_t magic;
  std::uint32_t kind;
};
static_assert(sizeof(Header) == 16);

constexpr std::uint32_t kMagic = 0xcc01dca5u;
enum : std::uint32_t {
  kKindSmall = 1,    // pow2 class, header at p-16, base = p-16
  kKindLarge = 2,    // exact-size cached, header at p-16, base = p-16
  kKindAligned = 3,  // 64-byte-aligned pool block, header at p-16,
                     // base = p-64 (from std::aligned_alloc)
  kKindOveraligned = 4,  // over-aligned operator new, never cached;
                         // header at p-16, base = p - bytes-of-padding
                         // stashed in header.bytes' upper half
};

// Small classes: 16, 32, ..., 4096 bytes.
constexpr int kSmallClasses = 9;
constexpr std::size_t kSmallMax = 4096;

// Free small block: first word links to the next free block.
struct FreeNode {
  FreeNode* next;
};

struct SmallBin {
  Spinlock lock;
  FreeNode* head = nullptr;
  std::size_t count = 0;
};

// Exact-size caches (large + aligned) share a hashed bucket table; the
// kind participates in the match so a 64 KiB tensor block never
// masquerades as a 64 KiB vector block.
struct ExactNode {
  ExactNode* next;
};

struct ExactBin {
  Spinlock lock;
  ExactNode* head = nullptr;
  std::size_t count = 0;
};

constexpr int kExactBuckets = 256;
constexpr std::size_t kSmallBinCap = 4096;  // blocks kept per class
constexpr std::size_t kExactBinCap = 64;    // blocks kept per bucket

constinit SmallBin g_small[kSmallClasses];
constinit ExactBin g_exact[kExactBuckets];

constinit std::atomic<std::uint64_t> g_fresh{0};
constinit std::atomic<std::uint64_t> g_hits{0};
constinit std::atomic<std::uint64_t> g_puts{0};

// -1 unknown, 0 disabled (CCOVID_DISABLE_ALLOC_CACHE), 1 enabled.
constinit std::atomic<int> g_enabled{-1};

bool cache_enabled() {
  int e = g_enabled.load(std::memory_order_relaxed);
  if (e < 0) {
    const char* s = std::getenv("CCOVID_DISABLE_ALLOC_CACHE");
    e = (s != nullptr && *s != '\0' && *s != '0') ? 0 : 1;
    g_enabled.store(e, std::memory_order_relaxed);
  }
  return e == 1;
}

int small_class(std::size_t bytes) {
  std::size_t c = 16;
  int idx = 0;
  while (c < bytes) {
    c <<= 1;
    ++idx;
  }
  return idx;
}

std::size_t class_bytes(int idx) { return std::size_t{16} << idx; }

std::size_t exact_bucket(std::size_t bytes, std::uint32_t kind) {
  std::uint64_t h = bytes * 0x9e3779b97f4a7c15ULL + kind;
  h ^= h >> 29;
  return static_cast<std::size_t>(h) & (kExactBuckets - 1);
}

Header* header_of(void* p) {
  return reinterpret_cast<Header*>(static_cast<char*>(p) - sizeof(Header));
}

void* fresh_small(int idx) {
  void* base = std::malloc(sizeof(Header) + class_bytes(idx));
  if (base == nullptr) throw std::bad_alloc();
  auto* h = static_cast<Header*>(base);
  h->bytes = class_bytes(idx);
  h->magic = kMagic;
  h->kind = kKindSmall;
  g_fresh.fetch_add(1, std::memory_order_relaxed);
  return h + 1;
}

void* fresh_large(std::size_t bytes) {
  void* base = std::malloc(sizeof(Header) + bytes);
  if (base == nullptr) throw std::bad_alloc();
  auto* h = static_cast<Header*>(base);
  h->bytes = bytes;
  h->magic = kMagic;
  h->kind = kKindLarge;
  g_fresh.fetch_add(1, std::memory_order_relaxed);
  return h + 1;
}

void* pop_exact(std::size_t bytes, std::uint32_t kind) {
  ExactBin& bin = g_exact[exact_bucket(bytes, kind)];
  bin.lock.lock();
  ExactNode** link = &bin.head;
  int scanned = 0;
  while (*link != nullptr && scanned < 16) {
    ExactNode* node = *link;
    Header* h = header_of(node);
    if (h->bytes == bytes && h->kind == kind) {
      *link = node->next;
      --bin.count;
      bin.lock.unlock();
      g_hits.fetch_add(1, std::memory_order_relaxed);
      return node;
    }
    link = &node->next;
    ++scanned;
  }
  bin.lock.unlock();
  return nullptr;
}

// Returns true if the block was cached, false if the caller must free.
bool push_exact(void* p, std::size_t bytes, std::uint32_t kind) {
  ExactBin& bin = g_exact[exact_bucket(bytes, kind)];
  bin.lock.lock();
  if (bin.count >= kExactBinCap) {
    bin.lock.unlock();
    return false;
  }
  auto* node = static_cast<ExactNode*>(p);
  node->next = bin.head;
  bin.head = node;
  ++bin.count;
  bin.lock.unlock();
  g_puts.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void* cached_new(std::size_t size) {
  if (size == 0) size = 1;
  if (size <= kSmallMax) {
    const int idx = small_class(size);
    if (cache_enabled()) {
      SmallBin& bin = g_small[idx];
      bin.lock.lock();
      FreeNode* node = bin.head;
      if (node != nullptr) {
        bin.head = node->next;
        --bin.count;
        bin.lock.unlock();
        g_hits.fetch_add(1, std::memory_order_relaxed);
        return node;
      }
      bin.lock.unlock();
    }
    return fresh_small(idx);
  }
  // Round large sizes to a cache line so near-identical requests reuse
  // one pool entry.
  const std::size_t rounded = (size + 63) & ~std::size_t{63};
  if (cache_enabled()) {
    if (void* p = pop_exact(rounded, kKindLarge)) return p;
  }
  return fresh_large(rounded);
}

void cached_delete(void* p) {
  if (p == nullptr) return;
  Header* h = header_of(p);
  if (h->magic != kMagic) {
    // Not ours (e.g. allocated before this TU was linked in a partial
    // build) — fall through to the system heap untouched.
    std::free(p);
    return;
  }
  switch (h->kind) {
    case kKindSmall: {
      if (cache_enabled()) {
        const int idx = small_class(h->bytes);
        SmallBin& bin = g_small[idx];
        bin.lock.lock();
        if (bin.count < kSmallBinCap) {
          auto* node = static_cast<FreeNode*>(p);
          node->next = bin.head;
          bin.head = node;
          ++bin.count;
          bin.lock.unlock();
          g_puts.fetch_add(1, std::memory_order_relaxed);
          return;
        }
        bin.lock.unlock();
      }
      std::free(h);
      return;
    }
    case kKindLarge: {
      if (cache_enabled() &&
          push_exact(p, static_cast<std::size_t>(h->bytes), kKindLarge)) {
        return;
      }
      std::free(h);
      return;
    }
    case kKindAligned: {
      if (cache_enabled() &&
          push_exact(p, static_cast<std::size_t>(h->bytes), kKindAligned)) {
        return;
      }
      std::free(static_cast<char*>(p) - 64);
      return;
    }
    case kKindOveraligned: {
      std::free(static_cast<char*>(p) -
                static_cast<std::size_t>(h->bytes >> 32));
      return;
    }
    default:
      std::free(p);
  }
}

void* cached_new_aligned(std::size_t size, std::size_t align) {
  // Rare path (alignas > 16 types). Allocate align extra bytes up
  // front, return base + align, stash the padding in the header.
  if (align < alignof(std::max_align_t)) return cached_new(size);
  const std::size_t total = ((size + align - 1) / align + 1) * align;
  void* base = std::aligned_alloc(align, total);
  if (base == nullptr) throw std::bad_alloc();
  void* p = static_cast<char*>(base) + align;
  Header* h = header_of(p);
  h->bytes = (static_cast<std::uint64_t>(align) << 32);
  h->magic = kMagic;
  h->kind = kKindOveraligned;
  g_fresh.fetch_add(1, std::memory_order_relaxed);
  return p;
}

#endif  // CCOVID_ALLOC_CACHE_COMPILED

}  // namespace

bool alloc_cache_active() {
#if CCOVID_ALLOC_CACHE_COMPILED
  return cache_enabled();
#else
  return false;
#endif
}

std::uint64_t fresh_system_allocs() {
#if CCOVID_ALLOC_CACHE_COMPILED
  return g_fresh.load(std::memory_order_relaxed);
#else
  return 0;
#endif
}

AllocCacheStats alloc_cache_stats() {
  AllocCacheStats s;
#if CCOVID_ALLOC_CACHE_COMPILED
  s.fresh_system_allocs = g_fresh.load(std::memory_order_relaxed);
  s.cached_allocs = g_hits.load(std::memory_order_relaxed);
  s.cached_frees = g_puts.load(std::memory_order_relaxed);
#endif
  return s;
}

void* cache_aligned_alloc(std::size_t bytes) {
#if CCOVID_ALLOC_CACHE_COMPILED
  // Key on the padded size so equal tensor shapes share pool entries.
  // Clamp to one cache line so a zero-byte request still owns a
  // distinct, header-backed block.
  const std::size_t padded =
      bytes == 0 ? 64 : (bytes + 63) & ~std::size_t{63};
  if (cache_enabled()) {
    if (void* p = pop_exact(padded, kKindAligned)) return p;
  }
  // Layout: [64-byte skirt | payload]; header occupies the last 16
  // bytes of the skirt so the payload keeps 64-byte alignment.
  void* base = std::aligned_alloc(64, 64 + padded);
  if (base == nullptr) throw std::bad_alloc();
  void* p = static_cast<char*>(base) + 64;
  Header* h = header_of(p);
  h->bytes = padded;
  h->magic = kMagic;
  h->kind = kKindAligned;
  g_fresh.fetch_add(1, std::memory_order_relaxed);
  return p;
#else
  const std::size_t padded = (bytes + 63) & ~std::size_t{63};
  void* p = std::aligned_alloc(64, padded == 0 ? 64 : padded);
  if (p == nullptr) throw std::bad_alloc();
  return p;
#endif
}

void cache_aligned_free(void* p) {
  if (p == nullptr) return;
#if CCOVID_ALLOC_CACHE_COMPILED
  cached_delete(p);
#else
  std::free(p);
#endif
}

void cache_aligned_release(void* p) {
  if (p == nullptr) return;
#if CCOVID_ALLOC_CACHE_COMPILED
  if (header_of(p)->kind == kKindAligned) {
    std::free(static_cast<char*>(p) - 64);
    return;
  }
  cached_delete(p);
#else
  std::free(p);
#endif
}

}  // namespace ccovid

#if CCOVID_ALLOC_CACHE_COMPILED

// ---- global operator new/delete replacement -------------------------
// Defined here (same TU as cache_aligned_alloc) so any binary that uses
// Tensor pulls this object file out of the static library and gets the
// replacement allocator with it.

void* operator new(std::size_t size) { return ccovid::cached_new(size); }
void* operator new[](std::size_t size) { return ccovid::cached_new(size); }

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return ccovid::cached_new(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return ccovid::cached_new(size);
  } catch (...) {
    return nullptr;
  }
}

void* operator new(std::size_t size, std::align_val_t align) {
  return ccovid::cached_new_aligned(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ccovid::cached_new_aligned(size, static_cast<std::size_t>(align));
}

void operator delete(void* p) noexcept { ccovid::cached_delete(p); }
void operator delete[](void* p) noexcept { ccovid::cached_delete(p); }
void operator delete(void* p, std::size_t) noexcept {
  ccovid::cached_delete(p);
}
void operator delete[](void* p, std::size_t) noexcept {
  ccovid::cached_delete(p);
}
void operator delete(void* p, std::align_val_t) noexcept {
  ccovid::cached_delete(p);
}
void operator delete[](void* p, std::align_val_t) noexcept {
  ccovid::cached_delete(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  ccovid::cached_delete(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  ccovid::cached_delete(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  ccovid::cached_delete(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  ccovid::cached_delete(p);
}

#endif  // CCOVID_ALLOC_CACHE_COMPILED
