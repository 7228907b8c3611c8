#include "net/transport.h"

#include <string>

#include "fault/failpoint.h"
#include "trace/trace.h"

namespace ccovid::net {

void Transport::send(FrameType type, std::vector<std::uint8_t> payload) {
  TRACE_SPAN("net.frame.send");
  std::lock_guard<std::mutex> lock(send_mu_);
  if (!open()) {
    throw CommError(CommError::Kind::kTimeout, local_id_, peer_id_,
                    "send on closed connection");
  }
  Frame f;
  f.type = type;
  f.seq = send_seq_++;
  f.payload = std::move(payload);
  std::vector<std::uint8_t> wire;
  encode_frame(f, wire);

  // Sender-side fault schedule — the transport-independent chaos
  // surface. Corruption happens AFTER the checksums are stamped, so the
  // receiver's verification must disagree (an on-the-wire bit flip).
  if (auto fp = CCOVID_FAILPOINT_FIRED("net.frame.corrupt")) {
    fault::corrupt_bytes(wire.data(), wire.size(), fp.seed, fp.count);
  }
  if (CCOVID_FAILPOINT_FIRED("net.frame.drop")) {
    return;  // seq consumed but never transmitted: the receiver sees a gap
  }
  if (CCOVID_FAILPOINT_FIRED("net.conn.drop")) {
    close();  // hard connection loss: the peer observes EOF mid-stream
    return;
  }
  if (CCOVID_FAILPOINT_FIRED("net.frame.dup")) {
    send_bytes(wire.data(), wire.size());  // same seq delivered twice
  }
  send_bytes(wire.data(), wire.size());
  frames_sent_.fetch_add(1, std::memory_order_relaxed);
  bytes_sent_.fetch_add(wire.size(), std::memory_order_relaxed);
}

std::optional<Frame> Transport::recv_for(double timeout_s) {
  TRACE_SPAN("net.frame.recv");
  const auto deadline = recv_deadline(timeout_s);
  for (;;) {
    std::optional<Frame> f = decoder_.next();  // throws kCorrupt
    if (f) {
      if (f->seq < recv_seq_) {
        throw CommError(CommError::Kind::kDuplicate, local_id_, peer_id_,
                        "seq " + std::to_string(f->seq) + " seen again");
      }
      const bool in_order = f->seq == recv_seq_;
      recv_seq_ = f->seq + 1;  // advance past the gap: poison-free recovery
      if (!in_order) {
        throw CommError(CommError::Kind::kOutOfOrder, local_id_, peer_id_,
                        "seq " + std::to_string(f->seq) +
                            " arrived ahead of an undelivered predecessor "
                            "(reordered or dropped frame)");
      }
      frames_received_.fetch_add(1, std::memory_order_relaxed);
      return f;
    }
    const double remain =
        std::chrono::duration<double>(deadline -
                                      std::chrono::steady_clock::now())
            .count();
    if (remain <= 0.0) return std::nullopt;
    if (!fill_decoder(remain) && !open()) return std::nullopt;  // EOF
  }
}

Frame Transport::recv(double timeout_s) {
  std::optional<Frame> f = recv_for(timeout_s);
  if (!f) {
    throw CommError(
        CommError::Kind::kTimeout, local_id_, peer_id_,
        open() ? "no frame within " + std::to_string(timeout_s) +
                     "s (sender dead, stalled, or frame dropped)"
               : "connection closed by peer");
  }
  return std::move(*f);
}

std::pair<std::unique_ptr<InprocTransport>, std::unique_ptr<InprocTransport>>
InprocTransport::make_pair(int id_a, int id_b) {
  auto ab = std::make_shared<Channel>();
  auto ba = std::make_shared<Channel>();
  std::unique_ptr<InprocTransport> a(
      new InprocTransport(ab, ba, id_a, id_b));
  std::unique_ptr<InprocTransport> b(
      new InprocTransport(ba, ab, id_b, id_a));
  return {std::move(a), std::move(b)};
}

void InprocTransport::send_bytes(const std::uint8_t* data, std::size_t n) {
  tx_->send(Bytes(data, data + n));
}

bool InprocTransport::fill_decoder(double timeout_s) {
  std::optional<Bytes> m = rx_->recv_for(timeout_s);
  if (!m) return false;  // timeout, or closed-and-drained (open() tells)
  decoder_.feed(m->data(), m->size());
  count_received(m->size());
  return true;
}

}  // namespace ccovid::net
