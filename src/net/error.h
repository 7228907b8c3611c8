// Transport-independent communication error taxonomy + guard knobs.
//
// Every Transport backend (net/transport.h) — the in-process byte
// Channel pair and the socket frame protocol (net/socket.h) — surfaces
// faults through ONE typed error vocabulary: a receiver sees kTimeout /
// kDuplicate / kOutOfOrder / kCorrupt regardless of whether the bytes
// crossed a mutex or a kernel socket buffer. dist::World rides the same
// path, so DDP chaos suites and sharded serving share these types.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string>

namespace ccovid::net {

/// Receive-wait knobs. Frames are always verified (sequence order and
/// checksums, net/transport.cpp); `enabled` bounds the wait. Enabled, a
/// receive that sees no frame within recv_timeout_s throws
/// CommError(kTimeout), so a dropped message or a dead peer unblocks
/// the collective instead of hanging it. Disabled (the default), a
/// receive blocks until a frame arrives.
struct GuardOptions {
  bool enabled = false;
  /// recv gives up after this long (a dropped message upstream shows up
  /// here as a timeout, unblocking the collective). Defaults to the
  /// CCOVID_RECV_TIMEOUT environment variable when set, else 2 s; CLI
  /// flags (--recv-timeout) override per tool.
  double recv_timeout_s;

  GuardOptions();
};

/// Longest receive wait, in seconds (~31.7 years). A deadline of now +
/// timeout must stay inside steady_clock's range (~292 years of
/// nanoseconds); past it the sum wraps into the past and every receive
/// gives up at once.
inline constexpr double kMaxRecvTimeoutS = 1e9;

/// Parses a receive timeout in seconds: the whole string must be one
/// number in (0, kMaxRecvTimeoutS]. nullopt for anything else,
/// including inf and nan.
inline std::optional<double> parse_recv_timeout_s(const char* s) {
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s || *end != '\0' || !(v > 0.0 && v <= kMaxRecvTimeoutS)) {
    return std::nullopt;
  }
  return v;
}

/// The steady-clock instant timeout_s from now, with the wait clamped to
/// [0, kMaxRecvTimeoutS] (nan counts as 0) so it cannot wrap.
inline std::chrono::steady_clock::time_point recv_deadline(double timeout_s) {
  const double s = timeout_s > 0.0 ? std::min(timeout_s, kMaxRecvTimeoutS)
                                   : 0.0;
  return std::chrono::steady_clock::now() +
         std::chrono::duration_cast<std::chrono::steady_clock::duration>(
             std::chrono::duration<double>(s));
}

/// Resolves the process-wide default receive timeout: the
/// CCOVID_RECV_TIMEOUT environment variable when set and valid (see
/// parse_recv_timeout_s), otherwise 2.0. An invalid value warns once on
/// stderr. Parsed on every call so tests can vary the environment;
/// callers on hot paths should cache the GuardOptions.
inline double default_recv_timeout_s() {
  const char* env = std::getenv("CCOVID_RECV_TIMEOUT");
  if (env == nullptr || *env == '\0') return 2.0;
  if (const std::optional<double> v = parse_recv_timeout_s(env)) return *v;
  static std::atomic<bool> warned{false};
  if (!warned.exchange(true, std::memory_order_relaxed)) {
    std::fprintf(stderr,
                 "ccovid: CCOVID_RECV_TIMEOUT: bad value '%s' (want seconds "
                 "in (0, 1e9]); using 2 s\n",
                 env);
  }
  return 2.0;
}

inline GuardOptions::GuardOptions() : recv_timeout_s(default_recv_timeout_s()) {}

class CommError : public std::runtime_error {
 public:
  /// A dropped message has no kind of its own: it surfaces as kTimeout
  /// (nothing ever arrives) or kOutOfOrder (a successor arrives first).
  /// A dead peer likewise surfaces as kTimeout — from the receiver's
  /// side, a killed worker and a dropped message are indistinguishable.
  enum class Kind { kTimeout, kDuplicate, kOutOfOrder, kCorrupt };

  CommError(Kind kind, int at, int from, const std::string& detail)
      : std::runtime_error("CommError[" + kind_name(kind) + "] recv at rank " +
                           std::to_string(at) + " from rank " +
                           std::to_string(from) + ": " + detail),
        kind_(kind),
        at_(at),
        from_(from) {}

  Kind kind() const { return kind_; }
  int at() const { return at_; }
  int from() const { return from_; }

  static std::string kind_name(Kind k) {
    switch (k) {
      case Kind::kTimeout: return "timeout";
      case Kind::kDuplicate: return "duplicate";
      case Kind::kOutOfOrder: return "out_of_order";
      case Kind::kCorrupt: return "corrupt";
    }
    return "?";
  }

 private:
  Kind kind_;
  int at_;
  int from_;
};

}  // namespace ccovid::net
