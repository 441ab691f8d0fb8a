/// \file session_cache.hpp
/// \brief Per-worker codec session reuse with fault-isolation reset.
///
/// A long-running service executes many jobs per worker thread; reopening a
/// CodecSession (and growing a fresh ScratchArena) per job throws away the
/// buffer-reuse win the staged API exists for. SessionCache keeps one open
/// session per codec name, all backed by one shared arena, so consecutive
/// jobs on the same worker reuse capacity exactly like sweep iterations do.
///
/// The robustness half is invalidate(): after a job fails (injected
/// corruption, device fault, malformed input), the daemon drops every
/// cached session *and* the arena and starts clean, so no partially-written
/// scratch state can leak into a neighboring job — the "session/arena state
/// reset between jobs" contract the cross-job interference tests assert.
/// Codec streams are unaffected either way (sessions already guarantee
/// byte-identical output for dirty arenas); invalidation is belt-and-
/// braces isolation for the service setting.
///
/// Not thread-safe: one SessionCache per worker thread, like sessions and
/// arenas themselves.
#pragma once

#include <map>
#include <memory>
#include <string>

#include "foresight/compressor.hpp"

namespace cosmo::foresight {

class SessionCache {
 public:
  /// \p sim backs device codecs (may be null when only host codecs are
  /// used); \p pool threads intra-field kernels of cached sessions.
  explicit SessionCache(gpu::GpuSimulator* sim = nullptr, ThreadPool* pool = nullptr)
      : sim_(sim), pool_(pool), arena_(std::make_unique<ScratchArena>()) {}

  /// The cached session for \p codec, opened on first use. Throws
  /// InvalidArgument for unknown codecs (and for device codecs when no
  /// simulator was provided).
  [[nodiscard]] CodecSession& session(const std::string& codec);

  /// The cached compressor (capabilities live here). Opened on first use.
  [[nodiscard]] Compressor& compressor(const std::string& codec);

  /// Drops every cached session and replaces the arena. Compressor objects
  /// survive (they are stateless codec-table fronts); the next session() call
  /// reopens against the fresh arena.
  void invalidate();

  [[nodiscard]] ScratchArena& arena() { return *arena_; }

  /// Observability for tests: how many sessions have been opened and how
  /// many invalidations have run.
  [[nodiscard]] std::size_t sessions_opened() const { return sessions_opened_; }
  [[nodiscard]] std::size_t invalidations() const { return invalidations_; }

 private:
  gpu::GpuSimulator* sim_;
  ThreadPool* pool_;
  std::unique_ptr<ScratchArena> arena_;
  std::map<std::string, std::unique_ptr<Compressor>> compressors_;
  std::map<std::string, std::unique_ptr<CodecSession>> sessions_;
  std::size_t sessions_opened_ = 0;
  std::size_t invalidations_ = 0;
};

}  // namespace cosmo::foresight
