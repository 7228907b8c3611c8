// Length-prefixed, checksummed wire-frame protocol — the byte layer of
// the socket transport (and, for codec parity, of the in-process
// backend too). Modeled on THD's CommandChannel framing: every message
// is one self-delimiting frame a streaming receiver can re-synchronize
// on and verify independently of the transport underneath.
//
// Frame layout (little-endian, 32-byte header):
//
//   offset size field
//   0      4    magic 0x31564343 ("CCV1")
//   4      1    type (FrameType)
//   5      1    flags (reserved, 0)
//   6      2    reserved, 0
//   8      8    seq — per-direction monotonic sender sequence
//   16     8    payload checksum — FNV-1a over the payload bytes
//   24     4    payload length (bytes)
//   28     4    header checksum — FNV-1a over bytes [0, 28)
//   32     N    payload
//
// The header checksum covers the length field, so a bit flip anywhere
// in the header — including one that would inflate the declared length
// into an allocation bomb or deflate it into a mis-framed stream — is
// detected before any payload byte is trusted. A flip in the payload
// trips the payload checksum. Both surface as CommError kCorrupt from
// FrameDecoder; a truncated frame (header or payload cut short) yields
// no frame at all and surfaces as the caller's recv timeout, matching
// the taxonomy rule that lost bytes look like a dead sender.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "net/error.h"

namespace ccovid::net {

enum class FrameType : std::uint8_t {
  kHello = 1,         ///< connector -> acceptor: identity + topology
  kHelloAck = 2,      ///< acceptor -> connector: identity echo
  kRequest = 3,       ///< front door -> worker: one diagnosis request
  kResponse = 4,      ///< worker -> front door: one diagnosis response
  kHeartbeat = 5,     ///< front door -> worker: liveness probe
  kHeartbeatAck = 6,  ///< worker -> front door: probe echo
  kShutdown = 7,      ///< front door -> worker: drain and exit
  kData = 8,          ///< opaque payload (dist::World messages, tests)
};

const char* to_string(FrameType t);

struct Frame {
  FrameType type = FrameType::kData;
  std::uint64_t seq = 0;
  std::vector<std::uint8_t> payload;
};

inline constexpr std::uint32_t kFrameMagic = 0x31564343u;  // "CCV1"
inline constexpr std::size_t kFrameHeaderSize = 32;
/// Default bound on a single frame's payload: large enough for any
/// volume this system serves, small enough that a corrupted length
/// field can never turn into a multi-gigabyte allocation. (A corrupt
/// length is caught by the header checksum first; this bound is the
/// defense-in-depth backstop.)
inline constexpr std::size_t kDefaultMaxPayload = 64u << 20;

/// Serializes `f` (header + payload) onto the end of `out`.
void encode_frame(const Frame& f, std::vector<std::uint8_t>& out);

/// Incremental streaming decoder: feed() arbitrary byte slices as they
/// arrive, next() yields complete verified frames in order. Malformed
/// input (bad magic, header checksum mismatch, oversized declared
/// length, payload checksum mismatch) throws CommError kCorrupt from
/// next(); incomplete input simply yields nullopt until more bytes
/// arrive. The decoder never blocks and never allocates more than the
/// declared (bounded) payload.
class FrameDecoder {
 public:
  explicit FrameDecoder(std::size_t max_payload = kDefaultMaxPayload)
      : max_payload_(max_payload) {}

  void feed(const std::uint8_t* data, std::size_t n) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
    buf_.insert(buf_.end(), data, data + n);
  }

  /// Next complete frame, or nullopt when the buffer holds none. Throws
  /// CommError(kCorrupt) on malformed framing; the decoder is then
  /// poisoned (a byte stream that lost framing cannot be trusted again)
  /// and every subsequent next() rethrows until reset().
  std::optional<Frame> next();

  /// Bytes buffered but not yet consumed by a complete frame.
  std::size_t buffered() const { return buf_.size() - head_; }

  /// Drops all buffered bytes and clears the poisoned state, so the
  /// decoder can start over on a fresh byte stream.
  void reset() {
    buf_.clear();
    head_ = 0;
    corrupt_.clear();
  }

 private:
  std::size_t max_payload_;
  std::vector<std::uint8_t> buf_;
  std::size_t head_ = 0;  ///< bytes of buf_ consumed by returned frames
  std::string corrupt_;  ///< non-empty once framing is lost
};

}  // namespace ccovid::net
