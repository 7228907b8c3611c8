#include "net/socket.h"

#include <arpa/inet.h>
#include <algorithm>
#include <cerrno>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <stdexcept>
#include <sys/socket.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>

#include "trace/trace.h"

namespace ccovid::net {

namespace {

/// poll() for one event with a fractional-second timeout; returns the
/// revents mask (0 on timeout). Restarts on EINTR with the remaining
/// budget.
short poll_for(int fd, short events, double timeout_s) {
  const auto deadline = recv_deadline(timeout_s);
  for (;;) {
    const double remain =
        std::chrono::duration<double>(deadline -
                                      std::chrono::steady_clock::now())
            .count();
    if (remain <= 0.0) return 0;
    struct pollfd pfd {};
    pfd.fd = fd;
    pfd.events = events;
    // Round up; a wait longer than ~11 days polls again.
    const int ms = static_cast<int>(std::min(remain * 1e3, 1e9)) + 1;
    const int rc = ::poll(&pfd, 1, ms);
    if (rc > 0) return pfd.revents;
    if (rc == 0) return 0;
    if (errno != EINTR) return POLLERR;
  }
}

sockaddr_un make_unix_addr(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() + 1 > sizeof(addr.sun_path)) {
    throw std::invalid_argument("unix socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

sockaddr_in make_tcp_addr(const std::string& host, int port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  const std::string h = host.empty() ? "127.0.0.1" : host;
  if (::inet_pton(AF_INET, h.c_str(), &addr.sin_addr) != 1) {
    throw std::invalid_argument("tcp endpoint host must be a dotted quad: " +
                                h);
  }
  return addr;
}

}  // namespace

Endpoint Endpoint::parse(const std::string& spec) {
  Endpoint ep;
  if (spec.rfind("unix:", 0) == 0) {
    ep.kind = Kind::kUnix;
    ep.path = spec.substr(5);
    if (ep.path.empty()) {
      throw std::invalid_argument("endpoint 'unix:' needs a path");
    }
    return ep;
  }
  if (spec.rfind("tcp:", 0) == 0) {
    ep.kind = Kind::kTcp;
    const std::string rest = spec.substr(4);
    const std::size_t colon = rest.rfind(':');
    if (colon == std::string::npos) {
      throw std::invalid_argument(
          "endpoint 'tcp:' needs host:port, got: " + spec);
    }
    ep.host = rest.substr(0, colon);
    ep.port = std::atoi(rest.substr(colon + 1).c_str());
    if (ep.port < 0 || ep.port > 65535) {
      throw std::invalid_argument("endpoint port out of range: " + spec);
    }
    return ep;
  }
  throw std::invalid_argument(
      "endpoint must be unix:/path or tcp:host:port, got: " + spec);
}

std::string Endpoint::str() const {
  return kind == Kind::kUnix
             ? "unix:" + path
             : "tcp:" + host + ":" + std::to_string(port);
}

SocketTransport::SocketTransport(int fd, int local_id, int peer_id,
                                 const char* kind_name)
    : Transport(local_id, peer_id), fd_(fd), kind_name_(kind_name) {}

SocketTransport::~SocketTransport() {
  close();
  ::close(fd_);
}

bool SocketTransport::open() const {
  return !closed_.load(std::memory_order_acquire) &&
         !eof_.load(std::memory_order_acquire);
}

void SocketTransport::close() {
  // Shut the connection down but keep the descriptor until destruction:
  // another thread may be inside send/poll/read on it, and a released
  // descriptor number can be handed to a new file under that call.
  // shutdown() alone unblocks a peer parked in poll/read.
  if (!closed_.exchange(true, std::memory_order_acq_rel)) {
    ::shutdown(fd_, SHUT_RDWR);
  }
}

void SocketTransport::send_bytes(const std::uint8_t* data, std::size_t n) {
  if (closed_.load(std::memory_order_acquire)) {
    throw CommError(CommError::Kind::kTimeout, local_id(), peer_id(),
                    "send on closed connection");
  }
  std::size_t off = 0;
  while (off < n) {
    // MSG_NOSIGNAL: a dead peer raises EPIPE here instead of SIGPIPE
    // killing the process.
    const ssize_t w = ::send(fd_, data + off, n - off, MSG_NOSIGNAL);
    if (w > 0) {
      off += static_cast<std::size_t>(w);
      continue;
    }
    if (w < 0 && errno == EINTR) continue;
    const std::string why = std::strerror(errno);
    close();
    throw CommError(CommError::Kind::kTimeout, local_id(), peer_id(),
                    "send failed (peer dead?): " + why);
  }
}

bool SocketTransport::fill_decoder(double timeout_s) {
  if (closed_.load(std::memory_order_acquire)) return false;
  const short ev = poll_for(fd_, POLLIN, timeout_s);
  if (ev == 0) return false;  // timeout
  std::uint8_t chunk[64 * 1024];
  const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
  if (n > 0) {
    decoder_.feed(chunk, static_cast<std::size_t>(n));
    count_received(static_cast<std::size_t>(n));
    return true;
  }
  if (n < 0 && errno == EINTR) return false;  // caller loops on budget
  // 0 = orderly EOF; <0 = reset/err — either way the peer is gone.
  eof_.store(true, std::memory_order_release);
  return false;
}

SocketListener::SocketListener(const Endpoint& ep, int backlog) : ep_(ep) {
  int fd = -1;
  if (ep.kind == Endpoint::Kind::kUnix) {
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) throw std::runtime_error("socket(AF_UNIX) failed");
    ::unlink(ep.path.c_str());  // stale file from a killed predecessor
    sockaddr_un addr = make_unix_addr(ep.path);
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      const std::string why = std::strerror(errno);
      ::close(fd);
      throw std::runtime_error("bind(" + ep.str() + ") failed: " + why);
    }
  } else {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) throw std::runtime_error("socket(AF_INET) failed");
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr = make_tcp_addr(ep.host, ep.port);
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      const std::string why = std::strerror(errno);
      ::close(fd);
      throw std::runtime_error("bind(" + ep.str() + ") failed: " + why);
    }
    socklen_t len = sizeof(addr);
    ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
    bound_port_ = ntohs(addr.sin_port);
    ep_.port = bound_port_;
  }
  if (::listen(fd, backlog) != 0) {
    const std::string why = std::strerror(errno);
    ::close(fd);
    throw std::runtime_error("listen(" + ep.str() + ") failed: " + why);
  }
  fd_.store(fd, std::memory_order_release);
}

SocketListener::~SocketListener() {
  close();
  if (ep_.kind == Endpoint::Kind::kUnix) ::unlink(ep_.path.c_str());
}

void SocketListener::close() {
  const int fd = fd_.exchange(-1, std::memory_order_acq_rel);
  if (fd >= 0) ::close(fd);
}

std::unique_ptr<SocketTransport> SocketListener::accept_for(double timeout_s,
                                                            int local_id,
                                                            int peer_id) {
  const int fd = fd_.load(std::memory_order_acquire);
  if (fd < 0) return nullptr;
  if ((poll_for(fd, POLLIN, timeout_s) & POLLIN) == 0) return nullptr;
  const int conn = ::accept(fd, nullptr, nullptr);
  if (conn < 0) return nullptr;
  if (ep_.kind == Endpoint::Kind::kTcp) {
    const int one = 1;
    ::setsockopt(conn, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  return std::make_unique<SocketTransport>(
      conn, local_id, peer_id,
      ep_.kind == Endpoint::Kind::kUnix ? "unix" : "tcp");
}

std::unique_ptr<SocketTransport> connect_endpoint(const Endpoint& ep,
                                                  double timeout_s,
                                                  int local_id, int peer_id) {
  TRACE_SPAN("net.connect");
  const auto deadline = recv_deadline(timeout_s);
  std::string last_error = "timeout";
  for (;;) {
    int fd = -1;
    if (ep.kind == Endpoint::Kind::kUnix) {
      fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
      if (fd >= 0) {
        sockaddr_un addr = make_unix_addr(ep.path);
        if (::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)) == 0) {
          return std::make_unique<SocketTransport>(fd, local_id, peer_id,
                                                   "unix");
        }
        last_error = std::strerror(errno);
        ::close(fd);
      }
    } else {
      fd = ::socket(AF_INET, SOCK_STREAM, 0);
      if (fd >= 0) {
        sockaddr_in addr = make_tcp_addr(ep.host, ep.port);
        if (::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)) == 0) {
          const int one = 1;
          ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
          return std::make_unique<SocketTransport>(fd, local_id, peer_id,
                                                   "tcp");
        }
        last_error = std::strerror(errno);
        ::close(fd);
      }
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      throw CommError(CommError::Kind::kTimeout, local_id, peer_id,
                      "connect to " + ep.str() + " failed within " +
                          std::to_string(timeout_s) + "s: " + last_error);
    }
    // The listener may not be up yet (spawned worker still booting).
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

}  // namespace ccovid::net
