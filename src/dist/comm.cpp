#include "dist/comm.h"

#include <algorithm>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

namespace ccovid::dist {

World::World(int world_size) : size_(world_size) {
  if (world_size < 1) throw std::invalid_argument("World: size must be >= 1");
  links_.resize(static_cast<std::size_t>(size_) * size_);
  for (int r = 0; r < size_; ++r) {
    for (int p = r + 1; p < size_; ++p) {
      auto [a, b] = net::InprocTransport::make_pair(r, p);
      links_[static_cast<std::size_t>(r) * size_ + p] = std::move(a);
      links_[static_cast<std::size_t>(p) * size_ + r] = std::move(b);
    }
  }
}

net::Transport& World::link(int rank, int peer, const char* op) {
  if (rank < 0 || rank >= size_ || peer < 0 || peer >= size_ ||
      rank == peer) {
    throw std::invalid_argument(std::string("World::") + op + ": bad rank");
  }
  return *links_[static_cast<std::size_t>(rank) * size_ + peer];
}

void World::send(int from, int to, Message msg) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(msg.data());
  link(from, to, "send")
      .send(net::FrameType::kData,
            std::vector<std::uint8_t>(p, p + msg.size() * sizeof(real_t)));
}

Message World::recv(int at, int from) {
  net::Transport& t = link(at, from, "recv");
  std::optional<net::Frame> f;
  if (guard_.enabled) {
    f = t.recv(guard_.recv_timeout_s);
  } else {
    // Unbounded wait, in slices: World never closes its links.
    while (!(f = t.recv_for(3600.0))) {
    }
  }
  if (f->payload.size() % sizeof(real_t) != 0) {
    throw CommError(CommError::Kind::kCorrupt, at, from,
                    std::to_string(f->payload.size()) +
                        "-byte payload is not a whole number of floats");
  }
  Message m(f->payload.size() / sizeof(real_t));
  if (!m.empty()) std::memcpy(m.data(), f->payload.data(), f->payload.size());
  return m;
}

void World::broadcast(int rank, int root, std::vector<real_t>& data) {
  if (size_ == 1) return;
  if (root < 0 || root >= size_) {
    throw std::invalid_argument("World::broadcast: bad root");
  }
  if (rank == root) {
    for (int r = 0; r < size_; ++r) {
      if (r != root) send(rank, r, Message(data.begin(), data.end()));
    }
  } else {
    Message in = recv(rank, root);
    if (in.size() != data.size()) {
      throw std::runtime_error("World::broadcast: length mismatch");
    }
    std::copy(in.begin(), in.end(), data.begin());
  }
}

}  // namespace ccovid::dist
