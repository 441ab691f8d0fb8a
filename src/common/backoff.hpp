/// \file backoff.hpp
/// \brief Deterministic, seedable retry backoff with decorrelating jitter.
///
/// One shared schedule for every bounded-retry site (the device session's
/// transient-fault retry in foresight/compressor.cpp, the foresightd job
/// retries): delay for attempt k is the capped exponential
/// min(base * 2^(k-1), max) scaled by a seeded jitter factor in
/// [1 - jitter_fraction, 1]. The jitter is a
/// pure function of (seed, salt, attempt), so tests can assert exact delays
/// while concurrent retry sequences with distinct salts draw decorrelated
/// schedules — under load, N jobs hitting the same transient fault cannot
/// synchronize into a thundering herd of simultaneous retries.
#pragma once

#include <cstdint>

namespace cosmo::backoff {

/// Backoff schedule knobs. The defaults match the historical GPU retry
/// policy (0.5 ms doubling to a 50 ms cap) with half-range jitter.
struct Policy {
  double base_delay_seconds = 0.5e-3;
  double max_delay_seconds = 50e-3;
  /// Fraction of the exponential delay the jitter may remove: the delay is
  /// scaled by a factor drawn from [1 - jitter_fraction, 1]. 0 disables
  /// jitter (pure exponential backoff).
  double jitter_fraction = 0.5;
  /// Seed for the jitter hash; fixed per process or per policy so schedules
  /// are reproducible run to run.
  std::uint64_t seed = 0xB0FFB0FFB0FFB0FFull;
};

/// A uniform draw in [0, 1) that is a pure function of (seed, salt, draw) —
/// the jitter source, exposed for tests and for other decorrelation needs.
[[nodiscard]] double jitter_uniform(std::uint64_t seed, std::uint64_t salt,
                                    std::uint64_t draw);

/// The delay to sleep before retry number \p attempt (1-based: attempt 1 is
/// the wait after the first failure). \p salt decorrelates concurrent retry
/// sequences — give each job/sequence its own value. Deterministic for a
/// given (policy, attempt, salt); always in
/// [(1 - jitter_fraction) * exp_delay, exp_delay] where exp_delay is the
/// capped exponential, so the max_delay cap is never exceeded.
[[nodiscard]] double delay_seconds(const Policy& policy, int attempt,
                                   std::uint64_t salt = 0);

/// Process-wide monotonic salt source: each bounded-retry sequence claims
/// one value so concurrent sequences draw decorrelated jitter without any
/// caller-side plumbing. Single-threaded callers see a deterministic
/// sequence (0, 1, 2, ...) per process.
[[nodiscard]] std::uint64_t next_sequence_salt();

}  // namespace cosmo::backoff
