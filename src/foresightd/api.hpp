/// \file api.hpp
/// \brief Typed client surface over the foresightd wire protocol.
///
/// Request structs (CompressRequest, DecompressRequest, RoundtripRequest,
/// SweepRequest) replace hand-built json::Value requests: each serializes
/// through JobRequest — the same validator the daemon parses with — so a
/// request that round-trips here cannot be rejected as malformed. All typed
/// requests carry `proto` = the current protocol version; raw send()/recv()
/// on Client remain the escape hatch for anything the typed surface does
/// not model.
///
/// JobReply is the typed view of any response frame: results (with status /
/// rejection reason), structured errors (error_code, e.g.
/// "unsupported_version"), chunk acks, and control replies. The full frame
/// stays available in `raw`.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "foresightd/protocol.hpp"
#include "json/json.hpp"

namespace cosmo::foresightd {

// ---------------------------------------------------------------------------
// Dataset specs
// ---------------------------------------------------------------------------

/// {type:"nyx", dim, seed} — a generated dim³ Nyx grid.
[[nodiscard]] json::Value nyx_dataset(std::size_t dim, std::uint64_t seed = 42);

/// {type:"hacc", particles, seed} — a generated HACC particle snapshot.
[[nodiscard]] json::Value hacc_dataset(std::size_t particles, std::uint64_t seed = 42);

/// {type:"file", path} — a container file readable by the daemon.
[[nodiscard]] json::Value file_dataset(const std::string& path);

/// {type:"inline", transfer, dims} — raw little-endian float32 previously
/// uploaded as a completed chunked transfer. Inline datasets bypass the
/// daemon's dataset cache (they are connection-local bytes, not a spec the
/// daemon can rebuild).
[[nodiscard]] json::Value inline_dataset(const std::string& transfer, const Dims& dims);

// ---------------------------------------------------------------------------
// Typed requests
// ---------------------------------------------------------------------------

/// Knobs shared by every job type.
struct JobOptions {
  double deadline_seconds = 0;  ///< 0 = daemon default
  int priority = 1;             ///< 0 = highest
};

struct CompressRequest {
  std::string codec;
  std::string mode;
  double value = 0.0;
  json::Value dataset;
  std::string field;
  bool return_bytes = false;
  JobOptions options;

  [[nodiscard]] JobRequest to_request(std::uint64_t id = 0) const;
};

struct DecompressRequest {
  std::string codec;
  std::vector<std::uint8_t> payload;  ///< inline compressed stream (small)
  std::string payload_transfer;       ///< or: completed transfer id (large)
  JobOptions options;

  [[nodiscard]] JobRequest to_request(std::uint64_t id = 0) const;
};

struct RoundtripRequest {
  std::string codec;
  std::string mode;
  double value = 0.0;
  json::Value dataset;
  std::string field;
  JobOptions options;

  [[nodiscard]] JobRequest to_request(std::uint64_t id = 0) const;
};

struct SweepRequest {
  std::string codec;
  json::Value dataset;
  std::string field;
  std::vector<foresight::CompressorConfig> configs;
  JobOptions options;

  [[nodiscard]] JobRequest to_request(std::uint64_t id = 0) const;
};

// ---------------------------------------------------------------------------
// Typed replies
// ---------------------------------------------------------------------------

/// What the daemon advertises in a hello reply.
struct HelloReply {
  int proto_major = 0;
  int proto_minor = 0;
  std::uint64_t max_frame_bytes = 0;
  std::uint64_t max_transfer_bytes = 0;
  std::uint64_t transfer_budget_bytes = 0;
  std::uint64_t chunk_bytes = 0;
  bool draining = false;

  [[nodiscard]] static HelloReply parse(const json::Value& frame);
};

enum class ReplyKind {
  kResult,    ///< terminal job status (including rejections)
  kError,     ///< malformed request / unsupported version
  kChunkAck,  ///< transfer progress (begin/end/abort, or a failed data chunk)
  kPong,
  kHello,
  kMetrics,
  kOk,        ///< shutdown acknowledgement
  kOther,
};

/// Typed view of one response frame. Fields are populated per kind; `raw`
/// always carries the whole frame for anything not modeled here (per-job
/// metrics, sweep rows, ...).
struct JobReply {
  ReplyKind kind = ReplyKind::kOther;
  std::uint64_t id = 0;
  std::string status;          ///< result: ok/failed/rejected/cancelled/deadline
  std::string reason;          ///< result rejections + failed chunk acks
  std::string error;           ///< error frames
  std::string error_code;      ///< structured errors ("unsupported_version")
  std::string transfer;        ///< chunk acks: the transfer id
  bool chunk_ok = false;       ///< chunk acks: accepted?
  bool chunk_completed = false;///< chunk acks: transfer sealed by chunk_end
  std::vector<std::uint8_t> payload;  ///< result: returned compressed bytes
  std::string payload_transfer;       ///< result: bytes arrived as a stream
  json::Value raw;

  [[nodiscard]] bool ok() const { return kind == ReplyKind::kResult && status == kStatusOk; }
  [[nodiscard]] static JobReply parse(json::Value frame);
};

}  // namespace cosmo::foresightd
