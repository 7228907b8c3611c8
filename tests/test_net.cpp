// src/net test battery: frame codec robustness (property/fuzz style —
// truncated, oversized, bit-flipped inputs must surface as typed
// CommError or "no frame yet", never a hang, crash, or silent bad
// frame), transport guard taxonomy across all three backends, the
// multi-consumer Channel wakeup fix, and the CCOVID_RECV_TIMEOUT
// plumbing. Runs under `ctest -L fast`.
#include <gtest/gtest.h>
#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <thread>
#include <vector>

#include "core/digest.h"
#include "core/random.h"
#include "core/types.h"
#include "fault/failpoint.h"
#include "net/channel.h"
#include "net/error.h"
#include "net/frame.h"
#include "net/socket.h"
#include "net/transport.h"
#include "serve/shard_proto.h"

using namespace ccovid;
using net::CommError;
using net::Frame;
using net::FrameDecoder;
using net::FrameType;

namespace {

std::vector<std::uint8_t> payload_of(std::size_t n, std::uint8_t start = 0) {
  std::vector<std::uint8_t> p(n);
  for (std::size_t i = 0; i < n; ++i) {
    p[i] = static_cast<std::uint8_t>(start + i);
  }
  return p;
}

std::vector<std::uint8_t> encoded(FrameType t, std::uint64_t seq,
                                  std::vector<std::uint8_t> payload) {
  Frame f;
  f.type = t;
  f.seq = seq;
  f.payload = std::move(payload);
  std::vector<std::uint8_t> out;
  net::encode_frame(f, out);
  return out;
}

/// Restamps the header checksum after a deliberate header edit, so the
/// test reaches the validation stage *behind* the checksum.
void restamp_header(std::vector<std::uint8_t>& wire) {
  const std::uint32_t c =
      static_cast<std::uint32_t>(fnv1a64(wire.data(), net::kFrameHeaderSize - 4));
  wire[28] = static_cast<std::uint8_t>(c);
  wire[29] = static_cast<std::uint8_t>(c >> 8);
  wire[30] = static_cast<std::uint8_t>(c >> 16);
  wire[31] = static_cast<std::uint8_t>(c >> 24);
}

class RegistryGuard {
 public:
  RegistryGuard() { fault::Registry::instance().reset(); }
  ~RegistryGuard() { fault::Registry::instance().reset(); }
};

}  // namespace

// ----------------------------------------------------------- codec

TEST(FrameCodec, RoundtripsABackToBackStream) {
  std::vector<std::uint8_t> wire;
  for (std::uint64_t s = 0; s < 5; ++s) {
    Frame f;
    f.type = FrameType::kData;
    f.seq = s;
    f.payload = payload_of(17 * s);  // includes an empty payload
    net::encode_frame(f, wire);
  }
  FrameDecoder dec;
  dec.feed(wire.data(), wire.size());
  for (std::uint64_t s = 0; s < 5; ++s) {
    auto f = dec.next();
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(f->type, FrameType::kData);
    EXPECT_EQ(f->seq, s);
    EXPECT_EQ(f->payload, payload_of(17 * s));
  }
  EXPECT_FALSE(dec.next().has_value());
  EXPECT_EQ(dec.buffered(), 0u);
}

TEST(FrameCodec, DecodesByteAtATime) {
  const auto wire = encoded(FrameType::kRequest, 7, payload_of(33));
  FrameDecoder dec;
  for (std::size_t i = 0; i + 1 < wire.size(); ++i) {
    dec.feed(&wire[i], 1);
    EXPECT_FALSE(dec.next().has_value()) << "frame surfaced early at " << i;
  }
  dec.feed(&wire.back(), 1);
  auto f = dec.next();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->seq, 7u);
  EXPECT_EQ(f->payload, payload_of(33));
}

TEST(FrameCodec, TruncationYieldsNoFrameNotGarbage) {
  const auto wire = encoded(FrameType::kData, 1, payload_of(64));
  // Every possible truncation point: never a frame, never a throw —
  // lost tail bytes look like a silent peer (recv timeout), which is
  // exactly the kTimeout story the taxonomy wants.
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    FrameDecoder dec;
    dec.feed(wire.data(), cut);
    EXPECT_FALSE(dec.next().has_value()) << "cut=" << cut;
  }
}

TEST(FrameCodec, EveryHeaderBitFlipIsDetected) {
  const auto wire = encoded(FrameType::kData, 3, payload_of(24));
  for (std::size_t byte = 0; byte < net::kFrameHeaderSize; ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      auto damaged = wire;
      damaged[byte] ^= static_cast<std::uint8_t>(1u << bit);
      FrameDecoder dec;
      dec.feed(damaged.data(), damaged.size());
      try {
        auto f = dec.next();
        // A header flip may NOT produce a frame; nullopt is also wrong
        // because the full frame is buffered.
        FAIL() << "header flip at byte " << byte << " bit " << bit
               << (f ? " produced a frame" : " went undetected");
      } catch (const CommError& e) {
        EXPECT_EQ(e.kind(), CommError::Kind::kCorrupt);
      }
    }
  }
}

TEST(FrameCodec, EveryPayloadByteFlipIsDetected) {
  const auto wire = encoded(FrameType::kData, 4, payload_of(48));
  for (std::size_t byte = net::kFrameHeaderSize; byte < wire.size(); ++byte) {
    auto damaged = wire;
    damaged[byte] ^= 0x40;
    FrameDecoder dec;
    dec.feed(damaged.data(), damaged.size());
    EXPECT_THROW((void)dec.next(), CommError) << "payload byte " << byte;
  }
}

TEST(FrameCodec, OversizedDeclaredLengthIsBoundedNotAllocated) {
  // Craft a header that *validly* declares a payload beyond the bound:
  // the header checksum is restamped, so only the length bound can
  // reject it. The decoder must throw instead of trusting the length.
  auto wire = encoded(FrameType::kData, 5, payload_of(8));
  const std::uint32_t huge = 1u << 30;
  wire[24] = static_cast<std::uint8_t>(huge);
  wire[25] = static_cast<std::uint8_t>(huge >> 8);
  wire[26] = static_cast<std::uint8_t>(huge >> 16);
  wire[27] = static_cast<std::uint8_t>(huge >> 24);
  restamp_header(wire);
  FrameDecoder dec(1 << 20);  // 1 MiB bound
  dec.feed(wire.data(), wire.size());
  try {
    (void)dec.next();
    FAIL() << "oversized length accepted";
  } catch (const CommError& e) {
    EXPECT_EQ(e.kind(), CommError::Kind::kCorrupt);
  }
}

TEST(FrameCodec, PoisonedUntilReset) {
  auto wire = encoded(FrameType::kData, 6, payload_of(16));
  wire[0] ^= 0xFF;  // bad magic
  FrameDecoder dec;
  dec.feed(wire.data(), wire.size());
  EXPECT_THROW((void)dec.next(), CommError);
  EXPECT_THROW((void)dec.next(), CommError);  // still poisoned
  dec.reset();
  const auto good = encoded(FrameType::kData, 6, payload_of(16));
  dec.feed(good.data(), good.size());
  EXPECT_TRUE(dec.next().has_value());
}

TEST(FrameCodec, SeededFuzzNeverCrashesOrHangs) {
  Rng rng(0xF2A2E5);
  for (int round = 0; round < 300; ++round) {
    // A small stream of valid frames...
    std::vector<std::uint8_t> wire;
    const int frames = 1 + static_cast<int>(rng.next_u64() % 4);
    for (int i = 0; i < frames; ++i) {
      Frame f;
      f.type = FrameType::kData;
      f.seq = static_cast<std::uint64_t>(i);
      f.payload = payload_of(rng.next_u64() % 200,
                             static_cast<std::uint8_t>(round));
      net::encode_frame(f, wire);
    }
    // ...then damaged: truncate, and flip a few random bits.
    wire.resize(rng.next_u64() % (wire.size() + 1));
    for (int flips = static_cast<int>(rng.next_u64() % 4);
         flips > 0 && !wire.empty(); --flips) {
      wire[rng.next_u64() % wire.size()] ^=
          static_cast<std::uint8_t>(1u << (rng.next_u64() % 8));
    }
    FrameDecoder dec;
    // Feed in random-sized chunks; outcomes are frames, nullopt, or a
    // typed CommError — anything else (crash, OOB, uncaught type) fails.
    std::size_t off = 0;
    bool poisoned = false;
    while (off < wire.size() && !poisoned) {
      const std::size_t chunk =
          std::min<std::size_t>(1 + rng.next_u64() % 64,
                                wire.size() - off);
      dec.feed(wire.data() + off, chunk);
      off += chunk;
      try {
        while (dec.next().has_value()) {
        }
      } catch (const CommError& e) {
        EXPECT_EQ(e.kind(), CommError::Kind::kCorrupt);
        poisoned = true;
      }
    }
  }
}

// ------------------------------------------------ guard taxonomy

namespace {

/// Runs the sender-side failpoint taxonomy against any connected
/// transport pair: dup -> kDuplicate, drop -> kOutOfOrder on the
/// successor, conn.drop -> EOF, corrupt -> kCorrupt.
void exercise_taxonomy(net::Transport& a, net::Transport& b) {
  auto& reg = fault::Registry::instance();

  // Clean traffic first: seq handshake intact.
  a.send(FrameType::kData, {1, 2, 3});
  Frame f = b.recv(2.0);
  EXPECT_EQ(f.payload, (std::vector<std::uint8_t>{1, 2, 3}));

  // Duplicate: second copy of the same seq.
  reg.arm("net.frame.dup", "once");
  a.send(FrameType::kData, {4});
  EXPECT_TRUE(b.recv(2.0).payload == std::vector<std::uint8_t>{4});
  try {
    (void)b.recv(1.0);
    FAIL() << "duplicate frame not detected";
  } catch (const CommError& e) {
    EXPECT_EQ(e.kind(), CommError::Kind::kDuplicate);
  }
  reg.reset();

  // Drop: the successor frame exposes the gap, then recovery works.
  reg.arm("net.frame.drop", "once");
  a.send(FrameType::kData, {5});  // consumed, never transmitted
  reg.reset();
  a.send(FrameType::kData, {6});
  try {
    (void)b.recv(2.0);
    FAIL() << "dropped frame's gap not detected";
  } catch (const CommError& e) {
    EXPECT_EQ(e.kind(), CommError::Kind::kOutOfOrder);
  }
  a.send(FrameType::kData, {7});  // poison-free: next frame is clean
  EXPECT_EQ(b.recv(2.0).payload, (std::vector<std::uint8_t>{7}));

  // Corrupt: bytes damaged after checksums were stamped.
  reg.arm("net.frame.corrupt", "once");
  a.send(FrameType::kData, {8, 9});
  reg.reset();
  try {
    (void)b.recv(2.0);
    FAIL() << "corrupted frame not detected";
  } catch (const CommError& e) {
    EXPECT_EQ(e.kind(), CommError::Kind::kCorrupt);
  }
}

}  // namespace

TEST(TransportGuard, TaxonomyOverInproc) {
  RegistryGuard rg;
  auto [a, b] = net::InprocTransport::make_pair();
  exercise_taxonomy(*a, *b);
}

TEST(TransportGuard, TaxonomyOverUnixSocket) {
  RegistryGuard rg;
  const std::string path =
      "/tmp/ccovid_test_net_" + std::to_string(::getpid()) + ".sock";
  net::SocketListener listener(net::Endpoint::parse("unix:" + path));
  std::unique_ptr<net::SocketTransport> a, b;
  std::thread t([&] { b = listener.accept_for(5.0, 1, 0); });
  a = net::connect_endpoint(listener.endpoint(), 5.0, 0, 1);
  t.join();
  ASSERT_TRUE(a && b);
  exercise_taxonomy(*a, *b);
}

TEST(TransportGuard, TaxonomyOverTcpSocket) {
  RegistryGuard rg;
  net::SocketListener listener(net::Endpoint::parse("tcp:127.0.0.1:0"));
  net::Endpoint ep = listener.endpoint();
  ep.port = listener.bound_port();  // ephemeral port readback
  std::unique_ptr<net::SocketTransport> a, b;
  std::thread t([&] { b = listener.accept_for(5.0, 1, 0); });
  a = net::connect_endpoint(ep, 5.0, 0, 1);
  t.join();
  ASSERT_TRUE(a && b);
  exercise_taxonomy(*a, *b);
}

TEST(TransportGuard, ConnDropSurfacesAsEofThenTimeout) {
  RegistryGuard rg;
  auto [a, b] = net::InprocTransport::make_pair();
  fault::Registry::instance().arm("net.conn.drop", "once");
  a->send(FrameType::kData, {1});  // connection hard-closed instead
  EXPECT_FALSE(a->open());
  EXPECT_FALSE(b->recv_for(0.2).has_value());
  try {
    (void)b->recv(0.1);
    FAIL() << "recv on dead peer must throw";
  } catch (const CommError& e) {
    EXPECT_EQ(e.kind(), CommError::Kind::kTimeout);
  }
  // Sending into the closed connection is also a typed timeout.
  EXPECT_THROW(a->send(FrameType::kData, {2}), CommError);
}

TEST(TransportGuard, RecvTimesOutTyped) {
  auto [a, b] = net::InprocTransport::make_pair();
  (void)a;
  EXPECT_FALSE(b->recv_for(0.05).has_value());
  try {
    (void)b->recv(0.05);
    FAIL();
  } catch (const CommError& e) {
    EXPECT_EQ(e.kind(), CommError::Kind::kTimeout);
  }
}

TEST(TransportGuard, SocketCloseUnblocksParkedRecvAndSend) {
  // close() from one thread while others sit in recv_for and send on the
  // same socket: both return promptly, and the descriptor stays owned by
  // the transport until destruction (ThreadSanitizer checks the last).
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  net::SocketTransport a(fds[0], 0, 1, "unix");
  net::SocketTransport b(fds[1], 1, 0, "unix");
  std::optional<Frame> got;
  double recv_waited_s = 0.0;
  std::thread reader([&] {
    const auto t0 = std::chrono::steady_clock::now();
    got = a.recv_for(5.0);
    recv_waited_s = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  });
  // Nobody reads b, so the sender fills the socket buffer and blocks.
  std::atomic<bool> send_threw{false};
  std::thread sender([&] {
    const std::vector<std::uint8_t> chunk(64 * 1024, 7);
    try {
      for (;;) a.send(FrameType::kData, chunk);
    } catch (const CommError&) {
      send_threw.store(true);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  a.close();
  reader.join();
  sender.join();
  EXPECT_FALSE(got.has_value());
  EXPECT_LT(recv_waited_s, 2.0);
  EXPECT_TRUE(send_threw.load());
  EXPECT_FALSE(a.open());
  EXPECT_THROW(a.send(FrameType::kData, {1}), CommError);
}

// --------------------------------------------------- channel wakeup

TEST(Channel, NotifyAllWakesEveryConsumer) {
  // Regression for the notify_one wakeup bug: with two consumers
  // blocked in recv_for, a single notify could land on a waiter that
  // times out on the same tick and swallows the wakeup, stranding the
  // other consumer although a message sits in the queue. notify_all
  // makes the hammer below drain reliably.
  net::Channel ch;
  constexpr int kMessages = 400;
  std::atomic<int> received{0};
  auto consumer = [&] {
    while (received.load(std::memory_order_relaxed) < kMessages) {
      auto m = ch.recv_for(0.001);  // deliberately tiny timeout
      if (m) received.fetch_add(1, std::memory_order_relaxed);
    }
  };
  std::thread c1(consumer), c2(consumer);
  for (int i = 0; i < kMessages; ++i) {
    ch.send(net::Bytes(1, static_cast<std::uint8_t>(i)));
  }
  c1.join();
  c2.join();
  EXPECT_EQ(received.load(), kMessages);
}

TEST(Channel, CloseUnblocksReceivers) {
  net::Channel ch;
  std::thread t([&] {
    EXPECT_FALSE(ch.recv_for(5.0).has_value());  // returns early
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ch.close();
  t.join();
  EXPECT_TRUE(ch.closed());
}

// ------------------------------------------- recv timeout plumbing

TEST(RecvTimeout, EnvVariableSetsTheDefault) {
  ::setenv("CCOVID_RECV_TIMEOUT", "0.75", 1);
  EXPECT_DOUBLE_EQ(net::default_recv_timeout_s(), 0.75);
  net::GuardOptions g;
  EXPECT_DOUBLE_EQ(g.recv_timeout_s, 0.75);
  ::setenv("CCOVID_RECV_TIMEOUT", "garbage", 1);
  EXPECT_DOUBLE_EQ(net::default_recv_timeout_s(), 2.0);
  ::setenv("CCOVID_RECV_TIMEOUT", "-3", 1);
  EXPECT_DOUBLE_EQ(net::default_recv_timeout_s(), 2.0);
  ::unsetenv("CCOVID_RECV_TIMEOUT");
  EXPECT_DOUBLE_EQ(net::default_recv_timeout_s(), 2.0);
}

TEST(RecvTimeout, EnvRejectsValuesTheClockCannotHold) {
  // inf and 1e10 s used to wrap the steady-clock deadline into the past,
  // so every guarded receive gave up at once.
  for (const char* bad : {"inf", "nan", "1e10", "-1", "abc", "0.5s"}) {
    ::setenv("CCOVID_RECV_TIMEOUT", bad, 1);
    EXPECT_DOUBLE_EQ(net::default_recv_timeout_s(), 2.0) << bad;
  }
  ::setenv("CCOVID_RECV_TIMEOUT", "0.5", 1);
  EXPECT_DOUBLE_EQ(net::default_recv_timeout_s(), 0.5);
  ::unsetenv("CCOVID_RECV_TIMEOUT");
}

TEST(RecvTimeout, FlagParserAcceptsOnlyFiniteInRangeSeconds) {
  for (const char* bad : {"inf", "-inf", "nan", "1e10", "0", "-1", "", "2s"}) {
    EXPECT_FALSE(net::parse_recv_timeout_s(bad).has_value()) << bad;
  }
  EXPECT_EQ(net::parse_recv_timeout_s("0.25"), 0.25);
  EXPECT_EQ(net::parse_recv_timeout_s("1e9"), net::kMaxRecvTimeoutS);
}

TEST(RecvTimeout, HugeTimeoutStillWaitsForTheFrame) {
  auto [a, b] = net::InprocTransport::make_pair();
  std::thread sender([&a = a] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    a->send(FrameType::kData, {7});
  });
  const std::optional<Frame> f = b->recv_for(1e10);
  sender.join();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->payload, std::vector<std::uint8_t>{7});

  net::Channel ch;
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    ch.send(net::Bytes{9});
  });
  const std::optional<net::Bytes> m =
      ch.recv_for(std::numeric_limits<double>::infinity());
  producer.join();
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(*m, net::Bytes{9});
}

// ------------------------------------------------- shard protocol

TEST(ShardProto, RequestRoundtripsThroughTensor) {
  Tensor vol({2, 3, 4});
  for (index_t i = 0; i < vol.numel(); ++i) {
    vol.data()[i] = static_cast<real_t>(i) * 0.5f - 3.0f;
  }
  serve::ServeOptions so;
  so.use_enhancement = false;
  so.threshold = 0.42;
  const auto req = serve::ShardRequest::from_volume(9, 1234, vol, so);
  const auto back = serve::decode_request(serve::encode(req));
  EXPECT_EQ(back.request_id, 9u);
  EXPECT_EQ(back.patient_id, 1234u);
  EXPECT_FALSE(back.use_enhancement);
  EXPECT_DOUBLE_EQ(back.threshold, 0.42);
  const Tensor t = back.to_tensor();
  ASSERT_EQ(t.numel(), vol.numel());
  EXPECT_EQ(0, std::memcmp(t.data(), vol.data(),
                           static_cast<std::size_t>(vol.numel()) *
                               sizeof(real_t)));
}

TEST(ShardProto, TruncatedAndSkewedBodiesThrowTyped) {
  Tensor vol({1, 2, 2});
  const auto req =
      serve::ShardRequest::from_volume(1, 2, vol, serve::ServeOptions{});
  auto wire = serve::encode(req);

  // Every truncation of the body is kCorrupt, not UB.
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    std::vector<std::uint8_t> t(wire.begin(),
                                wire.begin() + static_cast<long>(cut));
    try {
      (void)serve::decode_request(t);
      FAIL() << "cut=" << cut;
    } catch (const CommError& e) {
      EXPECT_EQ(e.kind(), CommError::Kind::kCorrupt);
    }
  }
  // Trailing bytes (version skew) are rejected too.
  wire.push_back(0);
  EXPECT_THROW((void)serve::decode_request(wire), CommError);

  // A damaged dim cannot drive an allocation past the payload bound.
  // Dim bytes sit right before the voxel payload: ids (8+8), monitor
  // triple (8+1+8+8), flag+threshold (1+8), then depth/height/width.
  auto bad = serve::encode(req);
  bad[bad.size() - vol.numel() * sizeof(real_t) - 12] = 0xFF;
  EXPECT_THROW((void)serve::decode_request(bad), CommError);
}

TEST(ShardProto, ResponseRoundtrips) {
  serve::ShardResponse r;
  r.request_id = 77;
  r.status = serve::RequestStatus::kOk;
  r.degraded = true;
  r.retries = 3;
  r.probability = 0.875;
  r.positive = true;
  r.threshold = 0.5;
  r.execute_s = 0.125;
  r.error = "none";
  const auto back = serve::decode_response(serve::encode(r));
  EXPECT_EQ(back.request_id, 77u);
  EXPECT_EQ(back.status, serve::RequestStatus::kOk);
  EXPECT_TRUE(back.degraded);
  EXPECT_EQ(back.retries, 3);
  EXPECT_DOUBLE_EQ(back.probability, 0.875);
  EXPECT_EQ(back.error, "none");
}
