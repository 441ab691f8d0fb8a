/// \file protocol.hpp
/// \brief The foresightd wire protocol: length-prefixed JSON frames,
/// chunked transfers, and version negotiation. Full spec: docs/protocol.md.
///
/// Every message — request or response, either direction — is one frame:
///
///   [u32 little-endian payload length][payload: one JSON document]
///
/// The length counts payload bytes only (not the 4-byte prefix) and must be
/// in [1, kMaxFrameBytes]. A declared length outside that range is a
/// protocol error the moment the header is read — the parser never
/// allocates for it, so a hostile 4-GB header costs nothing. Payloads must
/// parse as a single JSON value; framing makes message boundaries explicit
/// so a pipelined client can write N requests back to back and read N
/// responses.
///
/// Payloads larger than one frame (a 512³ field is 512 MiB) ride the
/// chunked-transfer family: `chunk_begin` declares a transfer id and its
/// total size (validated against per-transfer and per-connection budgets
/// before any buffering), `chunk_data` carries up-to-kDefaultChunkBytes
/// slices with per-chunk crc32s, `chunk_end` seals the transfer. Completed
/// transfers are referenced by job requests (`payload_transfer`, inline
/// datasets) and by streamed responses. TransferTable is the reassembly
/// state machine — one per connection, on both sides of the wire.
///
/// FrameParser is incremental (sockets deliver arbitrary splits): feed()
/// whatever arrived, then drain next() until it returns nothing. All
/// malformed input — bad length, bad JSON — throws cosmo::FormatError;
/// after a throw the stream is unrecoverable (framing is lost) and the
/// connection should be closed. This parser, the chunk reassembler, and
/// the request validator are fuzz surfaces (tools/fuzz_smoke), so the
/// containment bar is the codec decoder bar: reject cleanly, never crash
/// or overallocate.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/field.hpp"
#include "common/timer.hpp"
#include "foresight/compressor.hpp"
#include "json/json.hpp"

namespace cosmo::foresightd {

/// Hard ceiling on one frame's payload (16 MiB — far above any daemon
/// message; a declared length beyond it is rejected before buffering).
/// Larger payloads ride the chunked-transfer family.
inline constexpr std::uint32_t kMaxFrameBytes = 16u << 20;

// ---------------------------------------------------------------------------
// Protocol version
// ---------------------------------------------------------------------------

/// Wire protocol version: length-prefixed JSON frames, the chunked-transfer
/// family, `hello` negotiation and transfer-backed job inputs. A request
/// without a `proto` field is served as this version; any other major is
/// refused with `unsupported_version`.
inline constexpr int kProtoMajor = 2;
inline constexpr int kProtoMinor = 0;

/// "2.0" — the daemon's version as sent in hello/pong replies.
[[nodiscard]] std::string proto_version_string();

/// True only for kProtoMajor, the one major this daemon serves.
[[nodiscard]] bool proto_major_supported(int major);

/// Parses "M" or "M.m" into (major, minor); throws FormatError on
/// anything else (empty, non-numeric, negative).
[[nodiscard]] std::pair<int, int> parse_proto(const std::string& text);

/// Serializes \p v as one frame appended to \p out.
void append_frame(std::vector<std::uint8_t>& out, const json::Value& v);

/// One-frame convenience over append_frame.
[[nodiscard]] std::vector<std::uint8_t> encode_frame(const json::Value& v);

/// Incremental frame decoder. Buffers only bytes actually received; the
/// declared length is validated before any payload accumulation.
class FrameParser {
 public:
  /// Appends received bytes. Throws FormatError as soon as a frame header
  /// declares an invalid length (0 or > kMaxFrameBytes).
  void feed(const std::uint8_t* data, std::size_t n);

  /// Extracts the next complete frame's JSON payload, or nullopt when no
  /// complete frame is buffered. Throws FormatError on malformed JSON.
  [[nodiscard]] std::optional<json::Value> next();

  /// Bytes buffered but not yet consumed (partial frame).
  [[nodiscard]] std::size_t pending_bytes() const { return buffer_.size() - consumed_; }

 private:
  std::vector<std::uint8_t> buffer_;
  std::size_t consumed_ = 0;  // prefix of buffer_ already handed out
};

/// Base64 (RFC 4648, with padding) for binary payloads embedded in JSON
/// (decompress-job input streams, returned compressed bytes).
[[nodiscard]] std::string base64_encode(const std::uint8_t* data, std::size_t n);
[[nodiscard]] std::string base64_encode(const std::vector<std::uint8_t>& data);
/// Throws FormatError on any non-base64 input (bad chars, bad padding).
[[nodiscard]] std::vector<std::uint8_t> base64_decode(const std::string& text);

// ---------------------------------------------------------------------------
// Chunked transfers
// ---------------------------------------------------------------------------

/// Default raw bytes per chunk_data frame. Base64 expands this 4/3, which
/// still fits one frame with ample JSON headroom.
inline constexpr std::size_t kDefaultChunkBytes = 4u << 20;

/// Transfer ids are short opaque strings chosen by the sender.
inline constexpr std::size_t kMaxTransferIdChars = 64;

enum class ChunkType { kBegin, kData, kEnd, kAbort };

/// One chunked-transfer message. `chunk_begin` declares id + total size;
/// `chunk_data` carries one in-order slice with its crc32; `chunk_end`
/// seals the transfer (optionally declaring the whole payload's crc32);
/// `chunk_abort` discards it.
struct ChunkMessage {
  ChunkType type = ChunkType::kBegin;
  std::string transfer;            ///< sender-chosen id, 1..64 chars
  std::uint64_t total_bytes = 0;   ///< begin: declared payload size
  std::uint64_t seq = 0;           ///< data: 0-based in-order chunk index
  std::uint32_t crc32 = 0;         ///< data: crc of this chunk; end: whole payload
  bool has_crc32 = false;          ///< end: whether crc32 was declared
  std::vector<std::uint8_t> payload;  ///< data: decoded chunk bytes

  /// True when \p v is an object whose "type" is one of the chunk_* kinds.
  [[nodiscard]] static bool is_chunk(const json::Value& v);
  /// Validates and decodes one chunk message; throws FormatError on any
  /// malformed field (bad id, bad base64, absurd sizes).
  [[nodiscard]] static ChunkMessage parse(const json::Value& v);
  [[nodiscard]] json::Value to_json() const;
};

/// Bounds on one connection's reassembly state. The budget counts
/// *declared* bytes of every open or completed-but-unclaimed transfer, so
/// an over-budget chunk_begin is refused before any buffering.
struct TransferLimits {
  std::uint64_t max_transfer_bytes = 1ull << 30;  ///< per-transfer cap (1 GiB)
  std::uint64_t budget_bytes = 3ull << 29;        ///< per-connection cap (1.5 GiB)
  std::size_t max_transfers = 16;                 ///< concurrent ids per connection
};

/// Per-connection chunk reassembly: the protocol-level state machine both
/// the daemon (uploads) and the client (streamed responses) run. All
/// methods are thread-safe; rejections are returned as reasons, never
/// thrown, so a bad transfer costs its own id and nothing else. A failed
/// id lands in a bounded dead-set whose members are ignored silently —
/// the sender already heard the rejection once, so a half-sent stream
/// cannot generate an ack storm.
class TransferTable {
 public:
  /// Outcome of applying one chunk message. `send` says whether an ack
  /// frame should go back (begin/end/abort always; data only on failure).
  struct Ack {
    std::string transfer;
    bool ok = true;
    bool send = true;
    const char* reason = nullptr;       ///< set when !ok (stable string)
    bool completed = false;             ///< end accepted: transfer is claimable
    std::uint64_t received_bytes = 0;   ///< end: total reassembled size
    std::uint32_t crc32 = 0;            ///< end: crc of the whole payload
  };

  /// \p reserved_gauge (optional) is adjusted by every reserve/release so
  /// an owner can observe aggregate buffered bytes across tables.
  explicit TransferTable(TransferLimits limits,
                         std::atomic<std::int64_t>* reserved_gauge = nullptr);
  ~TransferTable();
  TransferTable(const TransferTable&) = delete;
  TransferTable& operator=(const TransferTable&) = delete;

  /// Advances the state machine by one message.
  Ack apply(const ChunkMessage& m);

  enum class ClaimStatus { kOk, kMissing, kIncomplete };

  /// Moves a completed transfer's bytes out (freeing its budget).
  ClaimStatus claim(const std::string& id, std::vector<std::uint8_t>& out);

  /// Re-inserts bytes as a completed transfer (undo of claim, e.g. when
  /// the job that claimed them was refused admission). No-op when the
  /// bytes no longer fit the budget.
  void deposit(const std::string& id, std::vector<std::uint8_t> bytes);

  /// True when \p id exists (sealed or still receiving).
  [[nodiscard]] bool contains(const std::string& id) const;
  /// True when \p id has been sealed by chunk_end and not yet claimed.
  [[nodiscard]] bool complete(const std::string& id) const;
  /// Size of a completed transfer, or nullopt when absent/incomplete.
  [[nodiscard]] std::optional<std::uint64_t> complete_size(const std::string& id) const;

  /// Declared bytes currently reserved (open + unclaimed transfers).
  [[nodiscard]] std::uint64_t reserved_bytes() const;
  [[nodiscard]] std::size_t open_transfers() const;

  /// Drops transfers with no activity for \p idle_seconds (the watchdog's
  /// reaping pass for abandoned uploads). Returns how many were dropped.
  std::size_t reap_idle(double idle_seconds);

  /// Drops everything (connection teardown / drain).
  void clear();

 private:
  struct Transfer {
    std::uint64_t total = 0;
    std::uint64_t next_seq = 0;
    bool sealed = false;
    std::vector<std::uint8_t> bytes;
    Timer idle;  ///< reset on every accepted chunk
  };

  Ack fail_locked(const std::string& id, const char* reason);
  void release_locked(std::uint64_t n);

  mutable std::mutex mu_;
  TransferLimits limits_;
  std::atomic<std::int64_t>* gauge_;
  std::map<std::string, Transfer> transfers_;
  std::set<std::string> dead_;  ///< recently failed ids, bounded
  std::uint64_t reserved_ = 0;
};

/// Builds the chunk_ack frame for an apply() outcome.
[[nodiscard]] json::Value make_chunk_ack(const TransferTable::Ack& ack);

// ---------------------------------------------------------------------------
// Message schema
// ---------------------------------------------------------------------------

/// Request kinds. Control requests (ping/metrics/shutdown) are answered
/// inline by the IO thread; job requests go through admission and the
/// worker pool.
enum class RequestType {
  kPing,
  kHello,
  kMetrics,
  kShutdown,
  kCompress,
  kDecompress,
  kRoundtrip,
  kSweep,
};

[[nodiscard]] const char* request_type_name(RequestType t);
[[nodiscard]] bool is_job_request(RequestType t);

/// A parsed request. Fields beyond `type` are meaningful for job requests
/// only; parse() validates per-type requirements and throws FormatError on
/// anything malformed (unknown type, missing codec, bad base64 payload
/// size, negative deadline, ...).
struct JobRequest {
  RequestType type = RequestType::kPing;
  std::uint64_t id = 0;        ///< client-chosen correlation id, echoed back
  int proto_major = 0;         ///< 0 = no `proto` field sent (served as kProtoMajor)
  int proto_minor = 0;
  std::string codec;           ///< codec name, e.g. "sz-cpu"
  foresight::CompressorConfig config;  ///< single-config job types
  json::Value dataset;         ///< dataset spec: {type, dim/particles, seed}, {type:"file", path}, or {type:"inline", transfer, dims}
  std::string field;           ///< field name within the dataset
  double deadline_seconds = 0; ///< 0 = no per-job deadline (daemon default applies)
  int priority = 1;            ///< 0 = highest
  std::string payload_b64;     ///< compressed input, inline (decompress jobs)
  std::string payload_transfer; ///< compressed input as a completed transfer id
  bool return_bytes = false;   ///< include compressed bytes in the response
  /// Sweep jobs: the config lattice to run over `field`.
  std::vector<foresight::CompressorConfig> configs;

  [[nodiscard]] static JobRequest parse(const json::Value& v);
  [[nodiscard]] json::Value to_json() const;
};

/// Dims declared by an `{type:"inline", transfer, dims:[nx,ny,nz]}` dataset
/// spec. Throws FormatError when dims are absent/malformed/overflowing.
[[nodiscard]] Dims inline_dims(const json::Value& dataset_spec);

/// Terminal job statuses. Every admitted job reports exactly one of these;
/// rejected jobs report "rejected" with an admission reason instead.
inline constexpr const char* kStatusOk = "ok";
inline constexpr const char* kStatusFailed = "failed";
inline constexpr const char* kStatusRejected = "rejected";
inline constexpr const char* kStatusCancelled = "cancelled";
inline constexpr const char* kStatusDeadline = "deadline";

/// Builds the rejection response for a request refused at admission.
[[nodiscard]] json::Value make_rejection(std::uint64_t id, const char* reason);

/// Builds an error response for a malformed request (still a valid frame).
[[nodiscard]] json::Value make_error(const std::string& what);

/// Builds the structured `unsupported_version` error sent for a request
/// whose `proto` major this daemon cannot serve. Carries the daemon's own
/// version so the client can downgrade.
[[nodiscard]] json::Value make_version_error(std::uint64_t id, int major, int minor);

}  // namespace cosmo::foresightd
