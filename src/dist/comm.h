// In-process message-passing world: N ranks (threads) exchanging float
// payloads point to point. This is the gloo/MPI stand-in used by the
// distributed data-parallel trainer (§4.1): the semantics (cooperative
// two-sided messaging) match, only the transport is shared memory.
//
// A World is a full mesh of net::InprocTransport pairs, one endpoint per
// ordered (rank, peer). Every message travels as one FrameType::kData
// frame through the same codec and guard as sharded serving
// (net/transport.h): sequence numbers and checksums are always
// verified, and the net.frame.{corrupt,drop,dup} failpoints fault DDP
// traffic on the sender's rank thread. The deterministic allreduce
// family built on send/recv lives in dist/collective.h.
#pragma once

#include <memory>
#include <vector>

#include "core/types.h"
#include "net/error.h"
#include "net/transport.h"

namespace ccovid::dist {

using Message = std::vector<real_t>;
using GuardOptions = net::GuardOptions;
using CommError = net::CommError;

class World {
 public:
  explicit World(int world_size);

  int size() const { return size_; }

  /// Point-to-point: FIFO per (from, to) pair; from != to.
  void send(int from, int to, Message msg);

  /// Next message from `from` at rank `at`. Guard violations throw
  /// CommError (kDuplicate / kOutOfOrder / kCorrupt; a payload that is
  /// not a whole number of floats is kCorrupt). With guard().enabled a
  /// recv that waits longer than recv_timeout_s throws kTimeout;
  /// otherwise it blocks until a frame arrives.
  Message recv(int at, int from);

  /// Broadcast from `root`: every rank calls with a same-length buffer;
  /// on return all buffers equal the root's. Linear fan-out over the
  /// point-to-point links (how DDP ships initial weights).
  void broadcast(int rank, int root, std::vector<real_t>& data);

  /// Sets the receive-wait policy. Set before the ranks start
  /// communicating — not thread-safe against in-flight traffic.
  void set_guard(GuardOptions g) { guard_ = g; }
  const GuardOptions& guard() const { return guard_; }

 private:
  net::Transport& link(int rank, int peer, const char* op);

  GuardOptions guard_;
  int size_;
  // links_[rank * size + peer]: rank's endpoint towards peer (none on
  // the diagonal).
  std::vector<std::unique_ptr<net::InprocTransport>> links_;
};

}  // namespace ccovid::dist
