#include "net/frame.h"

#include <cstring>
#include <string>

#include "core/digest.h"

namespace ccovid::net {

const char* to_string(FrameType t) {
  switch (t) {
    case FrameType::kHello: return "hello";
    case FrameType::kHelloAck: return "hello_ack";
    case FrameType::kRequest: return "request";
    case FrameType::kResponse: return "response";
    case FrameType::kHeartbeat: return "heartbeat";
    case FrameType::kHeartbeatAck: return "heartbeat_ack";
    case FrameType::kShutdown: return "shutdown";
    case FrameType::kData: return "data";
  }
  return "?";
}

namespace {

void put_u32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

void put_u64(std::uint8_t* p, std::uint64_t v) {
  put_u32(p, static_cast<std::uint32_t>(v));
  put_u32(p + 4, static_cast<std::uint32_t>(v >> 32));
}

std::uint32_t get_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

std::uint64_t get_u64(const std::uint8_t* p) {
  return static_cast<std::uint64_t>(get_u32(p)) |
         static_cast<std::uint64_t>(get_u32(p + 4)) << 32;
}

}  // namespace

void encode_frame(const Frame& f, std::vector<std::uint8_t>& out) {
  const std::size_t base = out.size();
  out.resize(base + kFrameHeaderSize + f.payload.size());
  std::uint8_t* h = out.data() + base;
  std::memset(h, 0, kFrameHeaderSize);
  put_u32(h, kFrameMagic);
  h[4] = static_cast<std::uint8_t>(f.type);
  put_u64(h + 8, f.seq);
  put_u64(h + 16, fnv1a64(f.payload.data(), f.payload.size()));
  put_u32(h + 24, static_cast<std::uint32_t>(f.payload.size()));
  put_u32(h + 28, static_cast<std::uint32_t>(
                      fnv1a64(h, kFrameHeaderSize - 4)));
  if (!f.payload.empty()) {
    std::memcpy(h + kFrameHeaderSize, f.payload.data(), f.payload.size());
  }
}

std::optional<Frame> FrameDecoder::next() {
  if (!corrupt_.empty()) {
    throw CommError(CommError::Kind::kCorrupt, -1, -1, corrupt_);
  }
  if (buffered() < kFrameHeaderSize) return std::nullopt;
  const std::uint8_t* h = buf_.data() + head_;

  auto fail = [this](const std::string& why) -> std::optional<Frame> {
    corrupt_ = why;
    throw CommError(CommError::Kind::kCorrupt, -1, -1, corrupt_);
  };

  if (get_u32(h) != kFrameMagic) {
    return fail("bad frame magic 0x" + std::to_string(get_u32(h)) +
                " (stream out of sync or foreign protocol)");
  }
  // Header checksum before ANY other header field is trusted: it covers
  // the length, so a corrupted length can neither over-allocate nor
  // mis-frame the stream.
  if (get_u32(h + 28) !=
      static_cast<std::uint32_t>(fnv1a64(h, kFrameHeaderSize - 4))) {
    return fail("header checksum mismatch (bit flip in frame header)");
  }
  const std::size_t len = get_u32(h + 24);
  if (len > max_payload_) {
    return fail("declared payload " + std::to_string(len) +
                " bytes exceeds the " + std::to_string(max_payload_) +
                "-byte bound");
  }
  if (buffered() < kFrameHeaderSize + len) return std::nullopt;  // truncated

  Frame f;
  f.type = static_cast<FrameType>(h[4]);
  f.seq = get_u64(h + 8);
  f.payload.assign(h + kFrameHeaderSize, h + kFrameHeaderSize + len);
  if (fnv1a64(f.payload.data(), f.payload.size()) != get_u64(h + 16)) {
    return fail("payload checksum mismatch on seq " + std::to_string(f.seq));
  }
  head_ += kFrameHeaderSize + len;
  return f;
}

}  // namespace ccovid::net
