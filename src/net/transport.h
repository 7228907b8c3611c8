// Transport — the duplex, frame-oriented connection abstraction under
// the sharded serving runtime (serve/shard.h) and the in-process DDP
// world (dist/comm.h). Two backends implement it:
//
//   InprocTransport   encoded frames through a pair of shared-memory
//                     byte Channels (net/channel.h) between threads —
//                     zero syscalls; dist::World is a mesh of these
//   SocketTransport   length-prefixed checksummed frames over
//                     Unix-domain or TCP stream sockets (net/socket.h)
//                     — the real multi-process deployment path
//
// The guard semantics live HERE, and only here, in the backend-agnostic
// base class: send() assigns a per-direction monotonic sequence number
// and encodes through the checksummed frame codec; recv_for() verifies
// framing (CommError kCorrupt), sequence order (kDuplicate /
// kOutOfOrder, with poison-free recovery past a detected gap), and
// bounded waiting (kTimeout via recv()). The net.frame.* / net.conn.*
// failpoints are also evaluated here, on the SENDER side of either
// backend — which is what makes fault schedules fire across process
// boundaries: a worker process armed with net.frame.corrupt damages
// real bytes on a real socket, and the front door's receiver sees the
// same typed kCorrupt the in-process suites (DDP included) see.
//
// Failpoints (sender side, evaluated per frame):
//   net.frame.corrupt   flip bits in the encoded frame after checksums
//                       are stamped (receiver detects kCorrupt)
//   net.frame.drop      consume the seq but transmit nothing (receiver
//                       sees the gap: kOutOfOrder on the successor, or
//                       kTimeout if nothing follows)
//   net.frame.dup       transmit the frame twice (receiver: kDuplicate)
//   net.conn.drop       hard-close the connection instead of sending
//                       (receiver sees EOF — the worker-kill primitive)
//
// Threading: send() is internally serialized (multiple producer threads
// may share one transport); recv_for()/recv() must be called from one
// consumer thread at a time.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "net/channel.h"
#include "net/error.h"
#include "net/frame.h"

namespace ccovid::net {

class Transport {
 public:
  Transport(int local_id, int peer_id)
      : local_id_(local_id), peer_id_(peer_id) {}
  virtual ~Transport() = default;
  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  /// Sends one frame: assigns the next sequence number, encodes through
  /// the checksummed codec, applies the net.frame.* fault schedule, and
  /// transmits. Throws CommError(kTimeout) when the connection is
  /// already closed or the write fails (peer dead).
  void send(FrameType type, std::vector<std::uint8_t> payload = {});

  /// Verified receive: blocks up to `timeout_s` for the next complete
  /// frame. Returns nullopt on timeout OR on connection close — check
  /// open() to tell them apart. Throws CommError kCorrupt / kDuplicate
  /// / kOutOfOrder on guard violations; after a detected gap the
  /// expected sequence advances (poison-free recovery).
  std::optional<Frame> recv_for(double timeout_s);

  /// Throwing variant of recv_for: kTimeout when nothing arrives, with
  /// a detail string distinguishing a silent peer from a closed
  /// connection.
  Frame recv(double timeout_s);

  virtual bool open() const = 0;
  virtual void close() = 0;
  virtual const char* kind() const = 0;  ///< "inproc" | "unix" | "tcp"

  int local_id() const { return local_id_; }
  int peer_id() const { return peer_id_; }

  std::uint64_t frames_sent() const { return frames_sent_.load(); }
  std::uint64_t frames_received() const { return frames_received_.load(); }
  std::uint64_t bytes_sent() const { return bytes_sent_.load(); }
  std::uint64_t bytes_received() const { return bytes_received_.load(); }

 protected:
  /// Transmits one encoded frame's bytes. Called with the send lock
  /// held. Throws CommError on a dead connection.
  virtual void send_bytes(const std::uint8_t* data, std::size_t n) = 0;

  /// Blocks up to `timeout_s` for more inbound bytes and feeds them to
  /// decoder_. Returns false on timeout or close (open() reflects the
  /// close); true when at least one byte arrived.
  virtual bool fill_decoder(double timeout_s) = 0;

  void count_received(std::size_t n) {
    bytes_received_.fetch_add(n, std::memory_order_relaxed);
  }

  FrameDecoder decoder_;

 private:
  const int local_id_;
  const int peer_id_;
  std::mutex send_mu_;
  std::uint64_t send_seq_ = 0;
  std::uint64_t recv_seq_ = 0;
  std::atomic<std::uint64_t> frames_sent_{0};
  std::atomic<std::uint64_t> frames_received_{0};
  std::atomic<std::uint64_t> bytes_sent_{0};
  std::atomic<std::uint64_t> bytes_received_{0};
};

/// In-process backend: encoded frames ride a pair of shared-memory
/// byte Channels (one per direction), going through the SAME codec and
/// guard path as the socket backend.
class InprocTransport final : public Transport {
 public:
  /// Connected endpoint pair (a <-> b) sharing two channels.
  static std::pair<std::unique_ptr<InprocTransport>,
                   std::unique_ptr<InprocTransport>>
  make_pair(int id_a = 0, int id_b = 1);

  bool open() const override {
    return !closed_.load(std::memory_order_acquire) && !rx_->closed();
  }
  void close() override {
    closed_.store(true, std::memory_order_release);
    tx_->close();
    rx_->close();
  }
  const char* kind() const override { return "inproc"; }

 protected:
  void send_bytes(const std::uint8_t* data, std::size_t n) override;
  bool fill_decoder(double timeout_s) override;

 private:
  InprocTransport(std::shared_ptr<Channel> tx, std::shared_ptr<Channel> rx,
                  int local_id, int peer_id)
      : Transport(local_id, peer_id), tx_(std::move(tx)), rx_(std::move(rx)) {}

  std::shared_ptr<Channel> tx_;
  std::shared_ptr<Channel> rx_;
  std::atomic<bool> closed_{false};
};

}  // namespace ccovid::net
