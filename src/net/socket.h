// Socket backend of the Transport interface: length-prefixed,
// checksummed frames (net/frame.h) over Unix-domain or loopback/LAN TCP
// stream sockets — the process-boundary transport under the sharded
// front door. Modeled on THD's CommandChannel: blocking sockets,
// poll-bounded receives, one duplex connection per (front door, worker)
// pair.
//
// Endpoint grammar (CLI --listen / --connect):
//   unix:/path/to/socket      Unix-domain stream socket
//   tcp:HOST:PORT             TCP (PORT 0 = ephemeral, see bound_port)
#pragma once

#include <memory>
#include <string>

#include "net/transport.h"

namespace ccovid::net {

struct Endpoint {
  enum class Kind { kUnix, kTcp };
  Kind kind = Kind::kUnix;
  std::string path;  ///< unix: filesystem path
  std::string host;  ///< tcp: hostname or dotted quad
  int port = 0;      ///< tcp: port (0 = ephemeral when listening)

  /// Parses "unix:/path" or "tcp:host:port". Throws std::invalid_argument
  /// with a grammar hint on malformed input.
  static Endpoint parse(const std::string& spec);
  std::string str() const;
};

class SocketTransport final : public Transport {
 public:
  /// Takes ownership of a connected stream socket fd.
  SocketTransport(int fd, int local_id, int peer_id, const char* kind_name);
  ~SocketTransport() override;

  bool open() const override;
  void close() override;
  const char* kind() const override { return kind_name_; }

 protected:
  void send_bytes(const std::uint8_t* data, std::size_t n) override;
  bool fill_decoder(double timeout_s) override;

 private:
  const int fd_;  ///< released only by the destructor
  std::atomic<bool> closed_{false};
  std::atomic<bool> eof_{false};
  const char* kind_name_;
};

class SocketListener {
 public:
  /// Binds and listens on `ep`. Unix paths are unlinked first (stale
  /// socket files from a killed predecessor) and unlinked again on
  /// destruction. TCP port 0 binds an ephemeral port; read it back via
  /// bound_port(). Throws std::runtime_error on failure.
  explicit SocketListener(const Endpoint& ep, int backlog = 16);
  ~SocketListener();
  SocketListener(const SocketListener&) = delete;
  SocketListener& operator=(const SocketListener&) = delete;

  /// Accepts one connection within the timeout; nullptr on timeout or
  /// after close().
  std::unique_ptr<SocketTransport> accept_for(double timeout_s,
                                              int local_id = 0,
                                              int peer_id = -1);

  /// Unblocks a pending accept_for and makes future accepts fail.
  void close();

  const Endpoint& endpoint() const { return ep_; }
  /// For tcp with port 0: the kernel-assigned port.
  int bound_port() const { return bound_port_; }

 private:
  Endpoint ep_;
  std::atomic<int> fd_{-1};
  int bound_port_ = 0;
};

/// Connects to `ep`, retrying until `timeout_s` elapses (covers the
/// listener-not-up-yet race when the front door spawns workers and
/// connects immediately). Throws CommError(kTimeout) when the deadline
/// passes without a connection.
std::unique_ptr<SocketTransport> connect_endpoint(const Endpoint& ep,
                                                  double timeout_s,
                                                  int local_id = 0,
                                                  int peer_id = -1);

}  // namespace ccovid::net
