#include "core/image_io.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <stdexcept>

namespace ccovid {

void write_pgm(const std::string& path, const Tensor& image, real_t lo,
               real_t hi) {
  if (image.rank() != 2) {
    throw std::invalid_argument("write_pgm: expected rank-2 tensor, got " +
                                image.shape().str());
  }
  if (lo == hi) {
    lo = image.min();
    hi = image.max();
    if (lo == hi) hi = lo + 1.0f;
  }
  const index_t h = image.dim(0);
  const index_t w = image.dim(1);
  std::ofstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("write_pgm: cannot open " + path);
  f << "P5\n" << w << ' ' << h << "\n255\n";
  const real_t* p = image.data();
  std::vector<unsigned char> row(static_cast<std::size_t>(w));
  const real_t scale = 255.0f / (hi - lo);
  for (index_t y = 0; y < h; ++y) {
    for (index_t x = 0; x < w; ++x) {
      const real_t v = std::clamp((p[y * w + x] - lo) * scale, 0.0f, 255.0f);
      row[static_cast<std::size_t>(x)] =
          static_cast<unsigned char>(std::lround(v));
    }
    f.write(reinterpret_cast<const char*>(row.data()),
            static_cast<std::streamsize>(row.size()));
  }
  if (!f) throw std::runtime_error("write_pgm: write failed for " + path);
}

Tensor read_pgm(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("read_pgm: cannot open " + path);
  std::string magic;
  f >> magic;
  if (magic != "P5") throw std::runtime_error("read_pgm: not a P5 PGM");
  index_t w = 0, h = 0;
  int maxval = 0;
  f >> w >> h >> maxval;
  if (!f || w <= 0 || h <= 0) {
    throw std::runtime_error("read_pgm: bad dimensions");
  }
  if (maxval != 255) throw std::runtime_error("read_pgm: expected 8-bit");
  f.get();  // single whitespace after header
  // Check the pixel count against the bytes left before allocating.
  const std::streamoff start = f.tellg();
  f.seekg(0, std::ios::end);
  const std::streamoff left = f.tellg() - start;
  f.seekg(start);
  if (!f || w > left / h) throw std::runtime_error("read_pgm: truncated file");
  Tensor img({h, w});
  std::vector<unsigned char> buf(static_cast<std::size_t>(w * h));
  f.read(reinterpret_cast<char*>(buf.data()),
         static_cast<std::streamsize>(buf.size()));
  if (!f) throw std::runtime_error("read_pgm: truncated file");
  real_t* p = img.data();
  for (index_t i = 0; i < w * h; ++i) {
    p[i] = static_cast<real_t>(buf[static_cast<std::size_t>(i)]) / 255.0f;
  }
  return img;
}

void write_csv(const std::string& path,
               const std::vector<std::string>& header,
               const std::vector<std::vector<double>>& rows) {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("write_csv: cannot open " + path);
  for (std::size_t i = 0; i < header.size(); ++i) {
    if (i) f << ',';
    f << header[i];
  }
  f << '\n';
  for (const auto& row : rows) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (i) f << ',';
      f << row[i];
    }
    f << '\n';
  }
  if (!f) throw std::runtime_error("write_csv: write failed for " + path);
}

}  // namespace ccovid
