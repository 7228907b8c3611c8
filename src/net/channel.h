// Closeable blocking byte queue — the in-process primitive under
// InprocTransport (net/transport.h). send() enqueues one byte message,
// recv_for() takes messages out in FIFO order. The queue adds no
// framing, sequencing or checksums of its own: those belong to the
// frame codec and Transport, which treat a Channel like any other byte
// stream. close() gives the socket backend's EOF an in-process
// equivalent: receivers drain the queue, then observe the closed state
// instead of blocking.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <vector>

#include "net/error.h"

namespace ccovid::net {

using Bytes = std::vector<std::uint8_t>;

class Channel {
 public:
  /// Enqueues one message (moves the bytes).
  void send(Bytes msg) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.push_back(std::move(msg));
    }
    // notify_all, not notify_one: a timed waiter can consume a
    // notification on its timeout path without taking the message it
    // was woken for — with notify_one that wake is spent and a second
    // blocked receiver stays parked until the next send. Waking every
    // waiter costs a predicate re-check; stranding a consumer costs a
    // guard timeout.
    cv_.notify_all();
  }

  /// Next message in FIFO order; nullopt when nothing arrives within
  /// the timeout, or immediately when the channel is closed and drained
  /// (check closed() to tell the two apart — the socket backend's EOF
  /// vs poll-timeout distinction).
  std::optional<Bytes> recv_for(double timeout_s) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait_until(lock, recv_deadline(timeout_s),
                   [this] { return !queue_.empty() || closed_; });
    if (queue_.empty()) return std::nullopt;
    Bytes m = std::move(queue_.front());
    queue_.pop_front();
    return m;
  }

  /// Marks the channel closed (the in-process EOF): parked receivers
  /// wake, and once the queue drains recv_for reports nullopt
  /// immediately instead of waiting.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Bytes> queue_;
  bool closed_ = false;
};

}  // namespace ccovid::net
