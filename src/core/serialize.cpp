#include "core/serialize.h"

#include <cstdint>
#include <cstring>
#include <fstream>
#include <limits>
#include <stdexcept>

namespace ccovid {

namespace {

constexpr char kMagic[8] = {'C', 'C', '1', '9', 'T', 'N', 'S', 'R'};
constexpr std::uint32_t kVersion = 1;

template <typename T>
void write_pod(std::ofstream& f, const T& v) {
  f.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
T read_pod(std::ifstream& f) {
  T v{};
  f.read(reinterpret_cast<char*>(&v), sizeof(T));
  if (!f) throw std::runtime_error("tensor file: truncated");
  return v;
}

void write_tensor_body(std::ofstream& f, const std::string& name,
                       const Tensor& t) {
  write_pod<std::uint32_t>(f, static_cast<std::uint32_t>(name.size()));
  f.write(name.data(), static_cast<std::streamsize>(name.size()));
  write_pod<std::uint32_t>(f, static_cast<std::uint32_t>(t.rank()));
  for (int i = 0; i < t.rank(); ++i) {
    write_pod<std::int64_t>(f, t.dim(i));
  }
  f.write(reinterpret_cast<const char*>(t.data()),
          static_cast<std::streamsize>(t.numel() * sizeof(real_t)));
}

/// Bytes between the read position and the end of the file.
std::uint64_t bytes_left(std::ifstream& f) {
  const std::streampos here = f.tellg();
  f.seekg(0, std::ios::end);
  const std::streampos end = f.tellg();
  f.seekg(here);
  if (!f || here < 0 || end < here) {
    throw std::runtime_error("tensor file: unreadable position");
  }
  return static_cast<std::uint64_t>(end - here);
}

// Every length in the header is checked against the bytes the file
// still holds BEFORE anything is allocated, so a crafted header can
// neither request a huge buffer nor overflow the element count.
std::pair<std::string, Tensor> read_tensor_body(std::ifstream& f) {
  const auto name_len = read_pod<std::uint32_t>(f);
  if (name_len > bytes_left(f)) {
    throw std::runtime_error("tensor file: name runs past end of file");
  }
  std::string name(name_len, '\0');
  f.read(name.data(), name_len);
  const auto rank = read_pod<std::uint32_t>(f);
  if (rank > static_cast<std::uint32_t>(Shape::kMaxRank)) {
    throw std::runtime_error("tensor file: bad rank");
  }
  // Product of the non-zero dims, bounded so its byte size fits index_t.
  constexpr std::int64_t kMaxNumel =
      std::numeric_limits<std::int64_t>::max() /
      static_cast<std::int64_t>(sizeof(real_t));
  index_t dims[Shape::kMaxRank] = {};
  std::int64_t numel = 1;
  bool empty = false;
  for (std::uint32_t i = 0; i < rank; ++i) {
    const auto d = read_pod<std::int64_t>(f);
    if (d < 0) throw std::runtime_error("tensor file: negative dim");
    if (d == 0) {
      empty = true;
    } else if (numel > kMaxNumel / d) {
      throw std::runtime_error("tensor file: element count overflows");
    } else {
      numel *= d;
    }
    dims[i] = d;
  }
  const std::uint64_t data_bytes =
      empty ? 0 : static_cast<std::uint64_t>(numel) * sizeof(real_t);
  if (data_bytes > bytes_left(f)) {
    throw std::runtime_error("tensor file: data runs past end of file");
  }
  Tensor t{Shape(dims, static_cast<int>(rank))};
  f.read(reinterpret_cast<char*>(t.data()),
         static_cast<std::streamsize>(data_bytes));
  if (!f) throw std::runtime_error("tensor file: truncated tensor data");
  return {std::move(name), std::move(t)};
}

}  // namespace

void save_tensor_map(const std::string& path, const TensorMap& tensors) {
  std::ofstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("save_tensor_map: cannot open " + path);
  f.write(kMagic, sizeof(kMagic));
  write_pod<std::uint32_t>(f, kVersion);
  write_pod<std::uint32_t>(f, static_cast<std::uint32_t>(tensors.size()));
  for (const auto& [name, t] : tensors) {
    write_tensor_body(f, name, t);
  }
  if (!f) throw std::runtime_error("save_tensor_map: write failed");
}

TensorMap load_tensor_map(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("load_tensor_map: cannot open " + path);
  char magic[8];
  f.read(magic, sizeof(magic));
  if (!f || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    throw std::runtime_error("load_tensor_map: bad magic in " + path);
  }
  const auto version = read_pod<std::uint32_t>(f);
  if (version != kVersion) {
    throw std::runtime_error("load_tensor_map: unsupported version");
  }
  const auto count = read_pod<std::uint32_t>(f);
  TensorMap out;
  for (std::uint32_t i = 0; i < count; ++i) {
    out.insert(read_tensor_body(f));
  }
  return out;
}

void save_tensor(const std::string& path, const Tensor& t) {
  save_tensor_map(path, TensorMap{{"tensor", t}});
}

Tensor load_tensor(const std::string& path) {
  auto m = load_tensor_map(path);
  auto it = m.find("tensor");
  if (it == m.end()) {
    throw std::runtime_error("load_tensor: no 'tensor' entry in " + path);
  }
  return it->second;
}

}  // namespace ccovid
