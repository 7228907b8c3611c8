// Non-cryptographic 64-bit digests over raw bytes and tensor storage.
// Two functions, each with its own jobs:
//
//  * fnv1a64 — byte-serial FNV-1a. Every digest that is stored or sent
//    uses it: the golden-trace harness (tests/test_golden.cpp and
//    tests/golden/digests.txt), the net transport's frame checksums
//    (src/net/frame.cpp), the result cache's entry self-digests and the
//    sharded front door's patient routing. Its values are
//    pinned in files and on the wire, so it never changes.
//  * xxh64 — XXH64 (the xxHash spec), four independent multiply-rotate
//    lanes over 32-byte stripes. It hashes bulk bytes at memory speed
//    where FNV-1a's one-multiply-per-byte chain is the bottleneck. Its
//    one job is the in-memory result-cache key
//    (serve::ResultCache::scan_key), whose value no file or frame holds.
//
// Neither is cryptographic; both are cheap, dependency-free and
// collision-resistant enough for corruption and change detection.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "core/tensor.h"

namespace ccovid {

inline constexpr std::uint64_t kFnv1aOffset = 1469598103934665603ull;
inline constexpr std::uint64_t kFnv1aPrime = 1099511628211ull;

/// FNV-1a over `size` bytes, chainable via `h`.
inline std::uint64_t fnv1a64(const void* data, std::size_t size,
                             std::uint64_t h = kFnv1aOffset) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h ^= static_cast<std::uint64_t>(p[i]);
    h *= kFnv1aPrime;
  }
  return h;
}

/// Digest of a tensor's element bytes (shape is NOT mixed in; callers
/// comparing digests implicitly compare equal-shaped outputs).
inline std::uint64_t fnv1a64(const Tensor& t,
                             std::uint64_t h = kFnv1aOffset) {
  if (t.numel() == 0 || t.data() == nullptr) return h;
  return fnv1a64(t.data(),
                 static_cast<std::size_t>(t.numel()) * sizeof(real_t), h);
}

namespace detail {

inline constexpr std::uint64_t kXxhPrime1 = 0x9E3779B185EBCA87ull;
inline constexpr std::uint64_t kXxhPrime2 = 0xC2B2AE3D27D4EB4Full;
inline constexpr std::uint64_t kXxhPrime3 = 0x165667B19E3779F9ull;
inline constexpr std::uint64_t kXxhPrime4 = 0x85EBCA77C2B2AE63ull;
inline constexpr std::uint64_t kXxhPrime5 = 0x27D4EB2F165667C5ull;

// Native-order loads: the spec reads its words little-endian, which
// is the byte order of every host this project builds for (x86-64).
inline std::uint64_t xxh_read64(const unsigned char* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline std::uint64_t xxh_read32(const unsigned char* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline std::uint64_t xxh_round(std::uint64_t acc, std::uint64_t input) {
  acc += input * kXxhPrime2;
  acc = std::rotl(acc, 31);
  return acc * kXxhPrime1;
}

inline std::uint64_t xxh_merge_round(std::uint64_t h, std::uint64_t lane) {
  h ^= xxh_round(0, lane);
  return h * kXxhPrime1 + kXxhPrime4;
}

}  // namespace detail

/// XXH64 of `size` bytes with seed 0: four lanes over 32-byte stripes,
/// a merge, the 8/4/1-byte tail and the final avalanche, as the spec
/// lays them out. Not chainable like fnv1a64; callers fold further
/// fields into its result.
inline std::uint64_t xxh64(const void* data, std::size_t size) {
  using namespace detail;
  const auto* p = static_cast<const unsigned char*>(data);
  const unsigned char* const end = p + size;
  std::uint64_t h;
  if (size >= 32) {
    std::uint64_t v1 = kXxhPrime1 + kXxhPrime2;
    std::uint64_t v2 = kXxhPrime2;
    std::uint64_t v3 = 0;
    std::uint64_t v4 = 0 - kXxhPrime1;
    for (const unsigned char* last = end - 32; p <= last; p += 32) {
      v1 = xxh_round(v1, xxh_read64(p));
      v2 = xxh_round(v2, xxh_read64(p + 8));
      v3 = xxh_round(v3, xxh_read64(p + 16));
      v4 = xxh_round(v4, xxh_read64(p + 24));
    }
    h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) +
        std::rotl(v4, 18);
    h = xxh_merge_round(h, v1);
    h = xxh_merge_round(h, v2);
    h = xxh_merge_round(h, v3);
    h = xxh_merge_round(h, v4);
  } else {
    h = kXxhPrime5;
  }
  h += static_cast<std::uint64_t>(size);
  for (; end - p >= 8; p += 8) {
    h ^= xxh_round(0, xxh_read64(p));
    h = std::rotl(h, 27) * kXxhPrime1 + kXxhPrime4;
  }
  if (end - p >= 4) {
    h ^= xxh_read32(p) * kXxhPrime1;
    h = std::rotl(h, 23) * kXxhPrime2 + kXxhPrime3;
    p += 4;
  }
  for (; p < end; ++p) {
    h ^= static_cast<std::uint64_t>(*p) * kXxhPrime5;
    h = std::rotl(h, 11) * kXxhPrime1;
  }
  h ^= h >> 33;
  h *= kXxhPrime2;
  h ^= h >> 29;
  h *= kXxhPrime3;
  h ^= h >> 32;
  return h;
}

}  // namespace ccovid
