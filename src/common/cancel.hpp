/// \file cancel.hpp
/// \brief Cooperative cancellation and deadline tokens.
///
/// A CancelToken is a copyable handle to shared cancellation state: the
/// submitter keeps one copy (to cancel, e.g. when a drain budget expires)
/// and the executing job keeps another, calling check() at stage boundaries
/// (before compress, between compress and decompress, before responding).
/// Cancellation is cooperative — a running codec kernel is never
/// interrupted mid-stream; the job observes the token at the next boundary
/// and unwinds with a distinct exception type so callers can report
/// "cancelled" and "deadline" as statuses separate from "failed".
#pragma once

#include <atomic>
#include <chrono>
#include <memory>

#include "common/error.hpp"

namespace cosmo {

/// The job was cancelled by its owner (shutdown drain, client abort).
class CancelledError : public Error {
 public:
  explicit CancelledError(const std::string& what) : Error(what) {}
};

/// The job's deadline passed before it completed.
class DeadlineExceededError : public Error {
 public:
  explicit DeadlineExceededError(const std::string& what) : Error(what) {}
};

/// Copyable handle to shared cancel/deadline state. A default-constructed
/// token has no deadline and is never cancelled until cancel() is called on
/// it (or on any copy).
class CancelToken {
 public:
  CancelToken() : state_(std::make_shared<State>()) {}

  /// A token that expires \p seconds from now (<= 0 means already expired).
  /// A deadline past the clock's range saturates at its last time point.
  [[nodiscard]] static CancelToken with_deadline(double seconds) {
    CancelToken t;
    t.state_->has_deadline = true;
    const Clock::time_point now = Clock::now();
    // One second short of the clock's end, so rounding seconds to ticks
    // cannot carry the sum past it.
    const double headroom =
        std::chrono::duration<double>(Clock::time_point::max() - now).count() - 1.0;
    t.state_->deadline = seconds < headroom
                             ? now + std::chrono::duration_cast<Clock::duration>(
                                         std::chrono::duration<double>(seconds))
                             : Clock::time_point::max();
    return t;
  }

  /// Requests cancellation; visible to every copy of the token.
  void cancel() { state_->cancelled.store(true, std::memory_order_relaxed); }

  [[nodiscard]] bool cancelled() const {
    return state_->cancelled.load(std::memory_order_relaxed);
  }

  [[nodiscard]] bool has_deadline() const { return state_->has_deadline; }

  [[nodiscard]] bool deadline_expired() const {
    return state_->has_deadline && Clock::now() >= state_->deadline;
  }

  /// True when the job should stop (either signal).
  [[nodiscard]] bool stop_requested() const { return cancelled() || deadline_expired(); }

  /// Seconds until the deadline (negative when past; +inf with no deadline).
  [[nodiscard]] double remaining_seconds() const;

  /// Stage-boundary check: throws CancelledError / DeadlineExceededError
  /// when the corresponding signal is set (cancellation wins when both are).
  /// \p what names the stage for the exception message.
  void check(const char* what = "job") const;

 private:
  using Clock = std::chrono::steady_clock;
  struct State {
    std::atomic<bool> cancelled{false};
    bool has_deadline = false;
    Clock::time_point deadline{};
  };
  std::shared_ptr<State> state_;
};

}  // namespace cosmo
