// Core substrate tests: shapes, tensors, RNG statistics, parallel_for,
// counters, image/CSV IO, serialization, the XXH64 digest.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "core/counters.h"
#include "core/digest.h"
#include "core/image_io.h"
#include "core/parallel.h"
#include "core/random.h"
#include "core/serialize.h"
#include "core/tensor.h"
#include "core/timer.h"

namespace ccovid {
namespace {

// ---------------------------------------------------------------- Shape
TEST(Shape, BasicProperties) {
  Shape s{2, 3, 4};
  EXPECT_EQ(s.rank(), 3);
  EXPECT_EQ(s.numel(), 24);
  EXPECT_EQ(s[0], 2);
  EXPECT_EQ(s[2], 4);
  EXPECT_EQ(s.stride(2), 1);
  EXPECT_EQ(s.stride(1), 4);
  EXPECT_EQ(s.stride(0), 12);
}

TEST(Shape, OffsetIsRowMajor) {
  Shape s{2, 3, 4};
  EXPECT_EQ(s.offset(0, 0, 0), 0);
  EXPECT_EQ(s.offset(0, 0, 1), 1);
  EXPECT_EQ(s.offset(0, 1, 0), 4);
  EXPECT_EQ(s.offset(1, 0, 0), 12);
  EXPECT_EQ(s.offset(1, 2, 3), 23);
}

TEST(Shape, Equality) {
  EXPECT_EQ(Shape({2, 3}), Shape({2, 3}));
  EXPECT_NE(Shape({2, 3}), Shape({3, 2}));
  EXPECT_NE(Shape({2, 3}), Shape({2, 3, 1}));
}

TEST(Shape, RejectsNegativeExtent) {
  EXPECT_THROW(Shape({-1, 2}), std::invalid_argument);
}

TEST(Shape, ScalarShape) {
  Shape s;
  EXPECT_EQ(s.rank(), 0);
  EXPECT_EQ(s.numel(), 1);
}

TEST(Shape, StrPrintsDims) { EXPECT_EQ(Shape({5, 7}).str(), "[5, 7]"); }

TEST(Shape, RejectsOverflowingElementCount) {
  const index_t big = index_t{1} << 31;
  // (2^31, 2^31, 4): an unchecked product wraps to 0.
  EXPECT_THROW(Shape({big, big, 4}), std::invalid_argument);
  const index_t dims[] = {big, big, 2};  // 2^63, one past the maximum
  EXPECT_THROW(Shape(dims, 3), std::invalid_argument);
  // A zero extent does not hide an overflowing stride.
  EXPECT_THROW(Shape({0, big, big, 4}), std::invalid_argument);
  EXPECT_EQ(Shape({big, big, 1}).numel(), index_t{1} << 62);
  EXPECT_EQ(Shape({0, big, big}).stride(0), index_t{1} << 62);
}

// --------------------------------------------------------------- Tensor
TEST(Tensor, ZeroInitialized) {
  Tensor t({3, 4});
  for (index_t i = 0; i < t.numel(); ++i) EXPECT_EQ(t.data()[i], 0.0f);
}

TEST(Tensor, FullAndOnes) {
  Tensor t = Tensor::full({2, 2}, 3.5f);
  EXPECT_EQ(t.at(1, 1), 3.5f);
  EXPECT_EQ(Tensor::ones({4}).sum(), 4.0f);
}

TEST(Tensor, CopyIsShallowCloneIsDeep) {
  Tensor a({2, 2});
  Tensor b = a;          // shallow
  Tensor c = a.clone();  // deep
  a.at(0, 0) = 7.0f;
  EXPECT_EQ(b.at(0, 0), 7.0f);
  EXPECT_EQ(c.at(0, 0), 0.0f);
}

TEST(Tensor, ReshapePreservesData) {
  Tensor a = Tensor::from_vector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = a.reshape({3, 2});
  EXPECT_EQ(b.at(2, 1), 6.0f);
  EXPECT_THROW(a.reshape({4, 2}), std::invalid_argument);
}

TEST(Tensor, ArithmeticOps) {
  Tensor a = Tensor::from_vector({3}, {1, 2, 3});
  Tensor b = Tensor::from_vector({3}, {4, 5, 6});
  EXPECT_EQ(a.add(b).sum(), 21.0f);
  EXPECT_EQ(b.sub(a).sum(), 9.0f);
  EXPECT_EQ(a.mul(b).sum(), 4.0f + 10.0f + 18.0f);
  a.add_(b, 2.0f);
  EXPECT_EQ(a.at(0), 9.0f);
}

TEST(Tensor, Reductions) {
  Tensor a = Tensor::from_vector({4}, {-3, 1, 2, 0});
  EXPECT_EQ(a.min(), -3.0f);
  EXPECT_EQ(a.max(), 2.0f);
  EXPECT_EQ(a.mean(), 0.0f);
  EXPECT_EQ(a.abs_max(), 3.0f);
}

TEST(Tensor, SumUsesDoubleAccumulation) {
  // 1e7 values of 0.1 in float accumulation drifts badly; double is fine.
  Tensor a = Tensor::full({1000, 1000}, 0.1f);
  EXPECT_NEAR(a.sum(), 1e5, 10.0);
}

TEST(Tensor, AllcloseAndMaxDiff) {
  Tensor a = Tensor::full({4}, 1.0f);
  Tensor b = Tensor::full({4}, 1.0f + 1e-7f);
  EXPECT_TRUE(allclose(a, b));
  b.at(2) = 2.0f;
  EXPECT_FALSE(allclose(a, b));
  EXPECT_NEAR(max_abs_diff(a, b), 1.0f, 1e-5);
}

TEST(Tensor, FromVectorSizeMismatchThrows) {
  EXPECT_THROW(Tensor::from_vector({2, 2}, {1, 2, 3}),
               std::invalid_argument);
}

// ------------------------------------------------------------------ Rng
TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, UniformBounds) {
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntCoversRange) {
  Rng rng(2);
  bool seen[5] = {};
  for (int i = 0; i < 1000; ++i) seen[rng.uniform_int(0, 4)] = true;
  for (bool s : seen) EXPECT_TRUE(s);
}

TEST(Rng, GaussianMoments) {
  Rng rng(3);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.gaussian();
    sum += g;
    sum_sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(Rng, PoissonSmallLambdaMoments) {
  Rng rng(4);
  const double lambda = 5.0;
  double sum = 0.0, sum_sq = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double p = static_cast<double>(rng.poisson(lambda));
    sum += p;
    sum_sq += p * p;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, lambda, 0.1);
  EXPECT_NEAR(var, lambda, 0.2);
}

TEST(Rng, PoissonLargeLambdaMoments) {
  Rng rng(5);
  const double lambda = 1e6;  // the paper's blank-scan photon count
  double sum = 0.0, sum_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double p = static_cast<double>(rng.poisson(lambda));
    sum += p;
    sum_sq += p * p;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean / lambda, 1.0, 1e-3);
  EXPECT_NEAR(var / lambda, 1.0, 0.05);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(6);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.75) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.75, 0.01);
}

TEST(Rng, SplitProducesIndependentStreams) {
  Rng parent(7);
  Rng a = parent.split(0);
  Rng b = parent.split(1);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_EQ(same, 0);
}

TEST(Rng, FillGaussianMatchesRequestedStdDev) {
  Rng rng(8);
  Tensor t({10000});
  rng.fill_gaussian(t, 0.0, 0.01);  // the paper's filter init
  double sum_sq = 0.0;
  for (index_t i = 0; i < t.numel(); ++i) {
    sum_sq += static_cast<double>(t.data()[i]) * t.data()[i];
  }
  EXPECT_NEAR(std::sqrt(sum_sq / t.numel()), 0.01, 0.001);
}

// ------------------------------------------------------------- parallel
TEST(Parallel, ForCoversAllIndices) {
  std::vector<std::atomic<int>> hits(257);
  for (auto& h : hits) h = 0;
  parallel_for(0, 257, [&](index_t i) { hits[i]++; }, /*grain=*/16);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Parallel, BlockedCoversRangeOnce) {
  std::vector<std::atomic<int>> hits(1000);
  for (auto& h : hits) h = 0;
  parallel_for_blocked(0, 1000, [&](index_t lo, index_t hi) {
    for (index_t i = lo; i < hi; ++i) hits[i]++;
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Parallel, EmptyRangeIsNoop) {
  bool called = false;
  parallel_for(5, 5, [&](index_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(Parallel, ThreadCountOverride) {
  const int original = num_threads();
  set_num_threads(3);
  EXPECT_EQ(num_threads(), 3);
  set_num_threads(0);
  EXPECT_EQ(num_threads(), original);
}

// ------------------------------------------------------------- counters
TEST(Counters, AccumulateAndReset) {
  reset_tls_counters();
  tls_counters().global_loads += 10;
  tls_counters().flops += 5;
  EXPECT_EQ(tls_counters().global_loads, 10u);
  OpCounters other;
  other.global_stores = 3;
  tls_counters() += other;
  EXPECT_EQ(tls_counters().global_stores, 3u);
  reset_tls_counters();
  EXPECT_EQ(tls_counters().global_loads, 0u);
}

// ---------------------------------------------------------------- timer
TEST(Timer, KernelProfileAccumulates) {
  KernelProfile prof;
  prof.add("convolution", 1.5);
  prof.add("convolution", 0.5);
  prof.add("other", 0.25);
  EXPECT_DOUBLE_EQ(prof.total("convolution"), 2.0);
  EXPECT_DOUBLE_EQ(prof.grand_total(), 2.25);
  prof.reset();
  EXPECT_DOUBLE_EQ(prof.grand_total(), 0.0);
}

TEST(Timer, ScopedTimerRecordsNonNegative) {
  KernelProfile prof;
  { ScopedKernelTimer t(prof, "k"); }
  EXPECT_GE(prof.total("k"), 0.0);
}

// ------------------------------------------------------------------- IO
TEST(ImageIO, PgmRoundTrip) {
  const std::string path = std::filesystem::temp_directory_path() /
                           "ccovid_test_roundtrip.pgm";
  Tensor img({8, 16});
  for (index_t y = 0; y < 8; ++y) {
    for (index_t x = 0; x < 16; ++x) {
      img.at(y, x) = static_cast<real_t>(x) / 15.0f;
    }
  }
  write_pgm(path, img, 0.0f, 1.0f);
  Tensor back = read_pgm(path);
  EXPECT_EQ(back.shape(), img.shape());
  EXPECT_LT(max_abs_diff(back, img), 1.0f / 255.0f + 1e-5f);
  std::remove(path.c_str());
}

TEST(ImageIO, PgmRejectsNon2d) {
  Tensor t({2, 2, 2});
  EXPECT_THROW(write_pgm("/tmp/x.pgm", t), std::invalid_argument);
}

// Hostile PGM headers: dimensions are checked against the bytes left
// in the file before the pixel buffer is allocated.
TEST(ImageIO, PgmEveryTruncationThrows) {
  const std::string path =
      std::filesystem::temp_directory_path() / "ccovid_full.pgm";
  Rng rng(29);
  Tensor img({5, 7});
  rng.fill_uniform(img, 0.0, 1.0);
  write_pgm(path, img, 0.0f, 1.0f);
  std::ifstream in(path, std::ios::binary);
  const std::string full((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  ASSERT_GT(full.size(), 35u);
  const std::string cut =
      std::filesystem::temp_directory_path() / "ccovid_cut.pgm";
  for (std::size_t len = 0; len < full.size(); ++len) {
    std::ofstream(cut, std::ios::binary)
        .write(full.data(), static_cast<std::streamsize>(len));
    EXPECT_THROW(read_pgm(cut), std::runtime_error)
        << "prefix of " << len << " of " << full.size() << " bytes";
  }
  EXPECT_EQ(read_pgm(path).shape(), img.shape());
  std::remove(cut.c_str());
  std::remove(path.c_str());
}

TEST(ImageIO, PgmOversizedOrNonPositiveDimsThrow) {
  const std::string path =
      std::filesystem::temp_directory_path() / "ccovid_dims.pgm";
  const std::string pixels(64, '\x7f');
  for (const char* header :
       {"P5\n2147483648 2147483648\n255\n",   // ~4.6e18 pixels
        "P5\n9223372036854775807 2\n255\n",   // w*h overflows
        "P5\n8 9\n255\n",                     // one row past the data
        "P5\n0 4\n255\n", "P5\n4 0\n255\n", "P5\n-3 4\n255\n",
        "P5\n4 -3\n255\n", "P5\nx 4\n255\n"}) {
    std::ofstream(path, std::ios::binary) << header << pixels;
    EXPECT_THROW(read_pgm(path), std::runtime_error) << header;
  }
  std::ofstream(path, std::ios::binary) << "P5\n8 8\n255\n" << pixels;
  EXPECT_EQ(read_pgm(path).shape(), Shape({8, 8}));
  std::remove(path.c_str());
}

TEST(ImageIO, CsvWritesHeaderAndRows) {
  const std::string path =
      std::filesystem::temp_directory_path() / "ccovid_test.csv";
  write_csv(path, {"a", "b"}, {{1.0, 2.0}, {3.0, 4.5}});
  std::ifstream f(path);
  std::string line;
  std::getline(f, line);
  EXPECT_EQ(line, "a,b");
  std::getline(f, line);
  EXPECT_EQ(line, "1,2");
  std::remove(path.c_str());
}

// ------------------------------------------------------------ serialize
TEST(Serialize, TensorMapRoundTrip) {
  const std::string path =
      std::filesystem::temp_directory_path() / "ccovid_test.tnsr";
  TensorMap m;
  m["a"] = Tensor::from_vector({2, 2}, {1, 2, 3, 4});
  m["b.weight"] = Tensor::full({3}, -0.5f);
  save_tensor_map(path, m);
  TensorMap back = load_tensor_map(path);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_TRUE(allclose(back["a"], m["a"]));
  EXPECT_TRUE(allclose(back["b.weight"], m["b.weight"]));
  std::remove(path.c_str());
}

TEST(Serialize, SingleTensorRoundTrip) {
  const std::string path =
      std::filesystem::temp_directory_path() / "ccovid_single.tnsr";
  Tensor t = Tensor::from_vector({5}, {5, 4, 3, 2, 1});
  save_tensor(path, t);
  EXPECT_TRUE(allclose(load_tensor(path), t));
  std::remove(path.c_str());
}

TEST(Serialize, BadMagicThrows) {
  const std::string path =
      std::filesystem::temp_directory_path() / "ccovid_bad.tnsr";
  std::ofstream(path) << "not a tensor file at all";
  EXPECT_THROW(load_tensor_map(path), std::runtime_error);
  std::remove(path.c_str());
}

// Hostile headers: every length is checked against the file before
// anything is allocated.
void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary)
      .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

template <typename T>
void put(std::string* out, T v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(T));
}

std::string tensor_file_header(std::uint32_t count) {
  std::string b = "CC19TNSR";
  put<std::uint32_t>(&b, 1);  // version
  put<std::uint32_t>(&b, count);
  return b;
}

TEST(Serialize, OverflowingDimsThrow) {
  // Dims (2^31, 2^31, 4): the element count wraps to 0 in 64 bits, so
  // an unchecked reader "loads" a rank-3 tensor with no storage.
  std::string b = tensor_file_header(1);
  put<std::uint32_t>(&b, 6);
  b += "tensor";
  put<std::uint32_t>(&b, 3);
  put<std::int64_t>(&b, std::int64_t{1} << 31);
  put<std::int64_t>(&b, std::int64_t{1} << 31);
  put<std::int64_t>(&b, 4);
  ASSERT_EQ(b.size(), 54u);
  const std::string path =
      std::filesystem::temp_directory_path() / "ccovid_dims.tnsr";
  write_bytes(path, b);
  EXPECT_THROW(load_tensor_map(path), std::runtime_error);

  // A negative extent is rejected the same way.
  b = tensor_file_header(1);
  put<std::uint32_t>(&b, 1);
  b += "t";
  put<std::uint32_t>(&b, 1);
  put<std::int64_t>(&b, -4);
  write_bytes(path, b);
  EXPECT_THROW(load_tensor_map(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Serialize, OversizedNameLengthThrowsBeforeAllocating) {
  // 20 bytes claiming a ~4 GiB name.
  std::string b = tensor_file_header(1);
  put<std::uint32_t>(&b, 0xFFFFFFF0u);
  ASSERT_EQ(b.size(), 20u);
  const std::string path =
      std::filesystem::temp_directory_path() / "ccovid_name.tnsr";
  write_bytes(path, b);
  EXPECT_THROW(load_tensor_map(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Serialize, EveryTruncationThrows) {
  const std::string path =
      std::filesystem::temp_directory_path() / "ccovid_full.tnsr";
  TensorMap m;
  m["a"] = Tensor::from_vector({2, 2}, {1, 2, 3, 4});
  m["b.weight"] = Tensor::full({3}, -0.5f);
  save_tensor_map(path, m);
  std::ifstream in(path, std::ios::binary);
  const std::string full((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  ASSERT_GT(full.size(), 16u);
  const std::string cut =
      std::filesystem::temp_directory_path() / "ccovid_cut.tnsr";
  for (std::size_t len = 0; len < full.size(); ++len) {
    write_bytes(cut, full.substr(0, len));
    EXPECT_THROW(load_tensor_map(cut), std::runtime_error)
        << "prefix of " << len << " of " << full.size() << " bytes";
  }
  write_bytes(cut, full);
  EXPECT_EQ(load_tensor_map(cut).size(), 2u);
  std::remove(cut.c_str());
  std::remove(path.c_str());
}

// Flips each bit of each byte of `full` in turn, header bytes included,
// writes the result to `path` and loads it: every load either returns
// or throws std::runtime_error. Under asan the sweep also shows that no
// flip reads out of bounds or allocates from an unchecked length.
template <typename Load>
void expect_every_bit_flip_loads_or_throws(const std::string& full,
                                           const std::string& path,
                                           Load&& load) {
  for (std::size_t i = 0; i < full.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = full;
      flipped[i] = static_cast<char>(flipped[i] ^ (1 << bit));
      write_bytes(path, flipped);
      try {
        load(path);
      } catch (const std::runtime_error&) {
      } catch (const std::exception& e) {
        ADD_FAILURE() << "byte " << i << ", bit " << bit
                      << ": threw a non-runtime_error: " << e.what();
      }
    }
  }
  std::remove(path.c_str());
}

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

TEST(Serialize, EveryBitFlipLoadsOrThrows) {
  const std::string path =
      std::filesystem::temp_directory_path() / "ccovid_flip_src.tnsr";
  Rng rng(41);
  TensorMap m;
  m["a"] = Tensor({2, 2});
  m["b.weight"] = Tensor({3});
  for (auto& kv : m) rng.fill_uniform(kv.second, -1.0, 1.0);
  save_tensor_map(path, m);
  const std::string full = read_bytes(path);
  std::remove(path.c_str());
  ASSERT_EQ(full.size(), 93u);  // 65 header bytes, 7 floats
  expect_every_bit_flip_loads_or_throws(
      full, std::filesystem::temp_directory_path() / "ccovid_flip.tnsr",
      [](const std::string& p) { load_tensor_map(p); });
}

TEST(ImageIO, PgmEveryBitFlipLoadsOrThrows) {
  const std::string path =
      std::filesystem::temp_directory_path() / "ccovid_flip_src.pgm";
  Rng rng(43);
  Tensor img({5, 7});
  rng.fill_uniform(img, 0.0, 1.0);
  write_pgm(path, img, 0.0f, 1.0f);
  const std::string full = read_bytes(path);
  std::remove(path.c_str());
  ASSERT_EQ(full.size(), 46u);  // "P5\n7 5\n255\n", then 35 pixels
  expect_every_bit_flip_loads_or_throws(
      full, std::filesystem::temp_directory_path() / "ccovid_flip.pgm",
      [](const std::string& p) { read_pgm(p); });
}


// --------------------------------------------------------------- XXH64

std::uint64_t xxh64_of(const std::string& s) {
  return xxh64(s.data(), s.size());
}

TEST(Xxh64, MatchesSpecKnownAnswers) {
  EXPECT_EQ(xxh64_of(""), 0xEF46DB3751D8E999ull);
  EXPECT_EQ(xxh64_of("abc"), 0x44BC2CF5AD770999ull);
  // 39 bytes: one 32-byte stripe, then the 4- and 1-byte tails.
  const std::string spam = "Nobody inspects the spammish repetition";
  ASSERT_EQ(spam.size(), 39u);
  EXPECT_EQ(xxh64_of(spam), 0xFBCEA83C8A378BF1ull);
}

TEST(Xxh64, EverySingleBitFlipChangesTheDigest) {
  // 45 bytes: a stripe, an 8-byte tail word, a 4-byte tail word and a
  // 1-byte tail, so every input path of the function sees a flip.
  std::vector<unsigned char> buf(45);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<unsigned char>(i * 37 + 11);
  }
  const std::uint64_t base = xxh64(buf.data(), buf.size());
  for (std::size_t byte = 0; byte < buf.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      buf[byte] ^= static_cast<unsigned char>(1u << bit);
      EXPECT_NE(xxh64(buf.data(), buf.size()), base)
          << "byte " << byte << " bit " << bit;
      buf[byte] ^= static_cast<unsigned char>(1u << bit);
    }
  }
}

TEST(Xxh64, TwoSignFlipsDoNotCancel) {
  // -x for +x in two voxels at once: the flips sit in the same bit of
  // different words, the pattern an additive or xor fold would cancel.
  std::vector<float> v(24);
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = 0.25f * static_cast<float>(i + 1);
  }
  const std::uint64_t base = xxh64(v.data(), v.size() * sizeof(float));
  for (std::size_t i = 0; i < v.size(); ++i) {
    for (std::size_t j = i + 1; j < v.size(); ++j) {
      v[i] = -v[i];
      v[j] = -v[j];
      EXPECT_NE(xxh64(v.data(), v.size() * sizeof(float)), base)
          << "floats " << i << " and " << j;
      v[i] = -v[i];
      v[j] = -v[j];
    }
  }
}

TEST(Xxh64, SwappingTwoWordsChangesTheDigest) {
  // 9 words: two full stripes (the same lane of both stripes, and
  // different lanes of one stripe) plus an 8-byte tail word.
  std::vector<std::uint64_t> w(9);
  for (std::size_t i = 0; i < w.size(); ++i) {
    w[i] = 0x0123456789ABCDEFull * (i + 1);
  }
  const std::uint64_t base = xxh64(w.data(), w.size() * 8);
  for (std::size_t i = 0; i < w.size(); ++i) {
    for (std::size_t j = i + 1; j < w.size(); ++j) {
      std::swap(w[i], w[j]);
      EXPECT_NE(xxh64(w.data(), w.size() * 8), base)
          << "words " << i << " and " << j;
      std::swap(w[i], w[j]);
    }
  }
}

}  // namespace
}  // namespace ccovid
