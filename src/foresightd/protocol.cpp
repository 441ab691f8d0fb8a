#include "foresightd/protocol.hpp"

#include <array>
#include <cctype>
#include <cmath>

#include "common/error.hpp"
#include "io/crc32.hpp"

namespace cosmo::foresightd {

// ---------------------------------------------------------------------------
// Protocol version
// ---------------------------------------------------------------------------

std::string proto_version_string() {
  return std::to_string(kProtoMajor) + "." + std::to_string(kProtoMinor);
}

bool proto_major_supported(int major) { return major == kProtoMajor; }

namespace {

int parse_proto_int(const std::string& text) {
  require_format(!text.empty() && text.size() <= 6, "protocol: bad proto version");
  int value = 0;
  for (const char c : text) {
    require_format(std::isdigit(static_cast<unsigned char>(c)) != 0,
                   "protocol: bad proto version");
    value = value * 10 + (c - '0');
  }
  return value;
}

}  // namespace

std::pair<int, int> parse_proto(const std::string& text) {
  const std::size_t dot = text.find('.');
  if (dot == std::string::npos) return {parse_proto_int(text), 0};
  return {parse_proto_int(text.substr(0, dot)), parse_proto_int(text.substr(dot + 1))};
}

void append_frame(std::vector<std::uint8_t>& out, const json::Value& v) {
  const std::string payload = v.dump();
  require(payload.size() >= 1 && payload.size() <= kMaxFrameBytes,
          "protocol: frame payload out of range");
  const auto len = static_cast<std::uint32_t>(payload.size());
  out.push_back(static_cast<std::uint8_t>(len & 0xFF));
  out.push_back(static_cast<std::uint8_t>((len >> 8) & 0xFF));
  out.push_back(static_cast<std::uint8_t>((len >> 16) & 0xFF));
  out.push_back(static_cast<std::uint8_t>((len >> 24) & 0xFF));
  out.insert(out.end(), payload.begin(), payload.end());
}

std::vector<std::uint8_t> encode_frame(const json::Value& v) {
  std::vector<std::uint8_t> out;
  append_frame(out, v);
  return out;
}

namespace {

/// Decodes the little-endian length prefix at \p p (the byte order
/// append_frame writes, on any host) and checks its range.
std::uint32_t read_frame_length(const std::uint8_t* p) {
  const std::uint32_t len = static_cast<std::uint32_t>(p[0]) |
                            static_cast<std::uint32_t>(p[1]) << 8 |
                            static_cast<std::uint32_t>(p[2]) << 16 |
                            static_cast<std::uint32_t>(p[3]) << 24;
  if (len < 1 || len > kMaxFrameBytes) {
    throw FormatError("protocol: frame length " + std::to_string(len) + " outside [1, " +
                      std::to_string(kMaxFrameBytes) + "]");
  }
  return len;
}

}  // namespace

void FrameParser::feed(const std::uint8_t* data, std::size_t n) {
  // Compact once the consumed prefix dominates, so long-lived connections
  // don't grow the buffer without bound.
  if (consumed_ > 0 && consumed_ >= buffer_.size() / 2) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  buffer_.insert(buffer_.end(), data, data + n);
  // Validate the declared length as soon as the header is complete — a
  // hostile length fails here, before any payload bytes are buffered for
  // it. (Bytes already received stay bounded by the socket read size.)
  if (buffer_.size() - consumed_ >= 4) (void)read_frame_length(buffer_.data() + consumed_);
}

std::optional<json::Value> FrameParser::next() {
  if (buffer_.size() - consumed_ < 4) return std::nullopt;
  const std::uint32_t len = read_frame_length(buffer_.data() + consumed_);
  if (buffer_.size() - consumed_ < 4 + static_cast<std::size_t>(len)) {
    return std::nullopt;
  }
  const char* begin = reinterpret_cast<const char*>(buffer_.data() + consumed_ + 4);
  const std::string payload(begin, begin + len);
  consumed_ += 4 + static_cast<std::size_t>(len);
  return json::parse(payload);  // throws FormatError on malformed JSON
}

// ---------------------------------------------------------------------------
// Base64
// ---------------------------------------------------------------------------

namespace {

constexpr char kB64Alphabet[] =
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

constexpr std::uint8_t kB64Pad = 64;
constexpr std::uint8_t kB64Invalid = 255;

/// Decode table: 0-63 for alphabet chars, kB64Pad for '=', kB64Invalid for
/// anything else. Both non-alphabet values have bit 6 set, so OR-ing the
/// looked-up values of a run and testing 0xC0 checks the whole run at once.
constexpr std::array<std::uint8_t, 256> kB64Decode = [] {
  std::array<std::uint8_t, 256> t{};
  t.fill(kB64Invalid);
  for (std::uint8_t i = 0; i < 64; ++i) t[static_cast<unsigned char>(kB64Alphabet[i])] = i;
  t['='] = kB64Pad;
  return t;
}();

/// The message for a text the decoder rejected: the first quartet that
/// breaks a rule names it, and an invalid character takes precedence over
/// misplaced padding within a quartet.
[[gnu::cold]] const char* base64_error(const unsigned char* in, std::size_t n) {
  for (std::size_t i = 0; i < n; i += 4) {
    const std::uint8_t v[4] = {kB64Decode[in[i]], kB64Decode[in[i + 1]],
                               kB64Decode[in[i + 2]], kB64Decode[in[i + 3]]};
    for (const std::uint8_t x : v) {
      if (x == kB64Invalid) return "base64: invalid character";
    }
    // Padding only in the last two positions of the last quartet.
    const bool last = i + 4 == n;
    if (v[0] == kB64Pad || v[1] == kB64Pad || (!last && (v[2] == kB64Pad || v[3] == kB64Pad)) ||
        (v[2] == kB64Pad && v[3] != kB64Pad)) {
      break;
    }
  }
  return "base64: misplaced padding";
}

}  // namespace

std::string base64_encode(const std::uint8_t* data, std::size_t n) {
  std::string out((n + 2) / 3 * 4, '=');
  char* o = out.data();
  std::size_t i = 0;
  for (; i + 3 <= n; i += 3, o += 4) {
    const std::uint32_t triple = static_cast<std::uint32_t>(data[i]) << 16 |
                                 static_cast<std::uint32_t>(data[i + 1]) << 8 | data[i + 2];
    o[0] = kB64Alphabet[(triple >> 18) & 0x3F];
    o[1] = kB64Alphabet[(triple >> 12) & 0x3F];
    o[2] = kB64Alphabet[(triple >> 6) & 0x3F];
    o[3] = kB64Alphabet[triple & 0x3F];
  }
  if (i < n) {  // 1 or 2 trailing bytes; the '=' fill is the padding
    const std::uint32_t b1 = i + 1 < n ? data[i + 1] : 0;
    const std::uint32_t triple = static_cast<std::uint32_t>(data[i]) << 16 | b1 << 8;
    o[0] = kB64Alphabet[(triple >> 18) & 0x3F];
    o[1] = kB64Alphabet[(triple >> 12) & 0x3F];
    if (i + 1 < n) o[2] = kB64Alphabet[(triple >> 6) & 0x3F];
  }
  return out;
}

std::string base64_encode(const std::vector<std::uint8_t>& data) {
  return base64_encode(data.data(), data.size());
}

std::vector<std::uint8_t> base64_decode(const std::string& text) {
  require_format(text.size() % 4 == 0, "base64: length not a multiple of 4");
  if (text.empty()) return {};
  const auto* in = reinterpret_cast<const unsigned char*>(text.data());
  const std::size_t n = text.size();
  // Only the last quartet may carry padding; it alone decides the size.
  const unsigned char* tail = in + n - 4;
  const std::uint8_t t[4] = {kB64Decode[tail[0]], kB64Decode[tail[1]], kB64Decode[tail[2]],
                             kB64Decode[tail[3]]};
  const bool tail_ok = ((t[0] | t[1]) & 0xC0) == 0 && t[2] != kB64Invalid &&
                       t[3] != kB64Invalid && (t[2] != kB64Pad || t[3] == kB64Pad);
  if (!tail_ok) throw FormatError(base64_error(in, n));
  const std::size_t pad = (t[2] == kB64Pad) + (t[3] == kB64Pad);
  std::vector<std::uint8_t> out(n / 4 * 3 - pad);
  std::uint8_t* o = out.data();
  // Interior quartets: decode unchecked and OR every looked-up value, so a
  // single test after the loop covers invalid characters and padding alike.
  std::uint32_t seen = 0;
  for (const unsigned char* q = in; q != tail; q += 4, o += 3) {
    const std::uint32_t a = kB64Decode[q[0]];
    const std::uint32_t b = kB64Decode[q[1]];
    const std::uint32_t c = kB64Decode[q[2]];
    const std::uint32_t d = kB64Decode[q[3]];
    seen |= a | b | c | d;
    const std::uint32_t triple = a << 18 | b << 12 | c << 6 | d;
    o[0] = static_cast<std::uint8_t>(triple >> 16);
    o[1] = static_cast<std::uint8_t>(triple >> 8);
    o[2] = static_cast<std::uint8_t>(triple);
  }
  if ((seen & 0xC0) != 0) throw FormatError(base64_error(in, n));
  const std::uint32_t triple = static_cast<std::uint32_t>(t[0]) << 18 | t[1] << 12 |
                               (t[2] & 0x3Fu) << 6 | (t[3] & 0x3Fu);
  o[0] = static_cast<std::uint8_t>(triple >> 16);
  if (t[2] != kB64Pad) o[1] = static_cast<std::uint8_t>(triple >> 8);
  if (t[3] != kB64Pad) o[2] = static_cast<std::uint8_t>(triple);
  return out;
}

// ---------------------------------------------------------------------------
// Chunked transfers
// ---------------------------------------------------------------------------

namespace {

/// Parse-level sanity ceiling on a declared transfer size; real budgets are
/// enforced by TransferLimits. Keeps a hostile begin from minting absurd
/// uint64 reservations that overflow budget arithmetic.
constexpr std::uint64_t kMaxDeclaredTransferBytes = 1ull << 40;

/// Bound on the recently-failed-id set.
constexpr std::size_t kMaxDeadIds = 64;

const char* chunk_type_name(ChunkType t) {
  switch (t) {
    case ChunkType::kBegin: return "chunk_begin";
    case ChunkType::kData: return "chunk_data";
    case ChunkType::kEnd: return "chunk_end";
    case ChunkType::kAbort: return "chunk_abort";
  }
  return "unknown";
}

std::string require_transfer_id(const json::Value& v) {
  const std::string id = v.get("transfer", std::string());
  require_format(!id.empty() && id.size() <= kMaxTransferIdChars,
                 "protocol: transfer id must be 1..64 chars");
  return id;
}

}  // namespace

bool ChunkMessage::is_chunk(const json::Value& v) {
  if (!v.is_object()) return false;
  const std::string t = v.get("type", std::string());
  return t == "chunk_begin" || t == "chunk_data" || t == "chunk_end" ||
         t == "chunk_abort";
}

ChunkMessage ChunkMessage::parse(const json::Value& v) {
  require_format(v.is_object(), "protocol: chunk message must be a JSON object");
  ChunkMessage m;
  const std::string t = v.get("type", std::string());
  if (t == "chunk_begin") {
    m.type = ChunkType::kBegin;
  } else if (t == "chunk_data") {
    m.type = ChunkType::kData;
  } else if (t == "chunk_end") {
    m.type = ChunkType::kEnd;
  } else if (t == "chunk_abort") {
    m.type = ChunkType::kAbort;
  } else {
    throw FormatError("protocol: unknown chunk type '" + t + "'");
  }
  m.transfer = require_transfer_id(v);
  switch (m.type) {
    case ChunkType::kBegin: {
      const double total = v.get("total_bytes", -1.0);
      require_format(total >= 1 &&
                         total <= static_cast<double>(kMaxDeclaredTransferBytes),
                     "protocol: chunk_begin total_bytes out of range");
      m.total_bytes = static_cast<std::uint64_t>(total);
      break;
    }
    case ChunkType::kData: {
      const double seq = v.get("seq", -1.0);
      require_format(seq >= 0 && seq <= 1e15, "protocol: chunk_data seq out of range");
      m.seq = static_cast<std::uint64_t>(seq);
      const double crc = v.get("crc32", -1.0);
      require_format(crc >= 0 && crc <= 4294967295.0,
                     "protocol: chunk_data crc32 out of range");
      m.crc32 = static_cast<std::uint32_t>(crc);
      m.has_crc32 = true;
      const std::string payload = v.get("payload", std::string());
      require_format(!payload.empty(), "protocol: chunk_data missing payload");
      m.payload = base64_decode(payload);
      require_format(!m.payload.empty(), "protocol: chunk_data with empty payload");
      break;
    }
    case ChunkType::kEnd: {
      if (v.contains("crc32")) {
        const double crc = v.at("crc32").as_number();
        require_format(crc >= 0 && crc <= 4294967295.0,
                       "protocol: chunk_end crc32 out of range");
        m.crc32 = static_cast<std::uint32_t>(crc);
        m.has_crc32 = true;
      }
      break;
    }
    case ChunkType::kAbort:
      break;
  }
  return m;
}

json::Value ChunkMessage::to_json() const {
  json::Object o;
  o["type"] = chunk_type_name(type);
  o["transfer"] = transfer;
  switch (type) {
    case ChunkType::kBegin:
      o["total_bytes"] = static_cast<double>(total_bytes);
      break;
    case ChunkType::kData:
      o["seq"] = static_cast<double>(seq);
      o["crc32"] = static_cast<double>(crc32);
      o["payload"] = base64_encode(payload);
      break;
    case ChunkType::kEnd:
      if (has_crc32) o["crc32"] = static_cast<double>(crc32);
      break;
    case ChunkType::kAbort:
      break;
  }
  return json::Value(std::move(o));
}

TransferTable::TransferTable(TransferLimits limits,
                             std::atomic<std::int64_t>* reserved_gauge)
    : limits_(limits), gauge_(reserved_gauge) {}

TransferTable::~TransferTable() { clear(); }

void TransferTable::release_locked(std::uint64_t n) {
  reserved_ -= n;
  if (gauge_ != nullptr) gauge_->fetch_sub(static_cast<std::int64_t>(n));
}

TransferTable::Ack TransferTable::fail_locked(const std::string& id,
                                              const char* reason) {
  const auto it = transfers_.find(id);
  if (it != transfers_.end()) {
    release_locked(it->second.total);
    transfers_.erase(it);
  }
  if (dead_.size() >= kMaxDeadIds) dead_.erase(dead_.begin());
  dead_.insert(id);
  Ack ack;
  ack.transfer = id;
  ack.ok = false;
  ack.send = true;
  ack.reason = reason;
  return ack;
}

TransferTable::Ack TransferTable::apply(const ChunkMessage& m) {
  std::lock_guard<std::mutex> lock(mu_);
  Ack ack;
  ack.transfer = m.transfer;
  switch (m.type) {
    case ChunkType::kBegin: {
      dead_.erase(m.transfer);  // a fresh begin revives a failed id
      if (transfers_.count(m.transfer) != 0) {
        return fail_locked(m.transfer, "duplicate_begin");
      }
      if (m.total_bytes > limits_.max_transfer_bytes) {
        return fail_locked(m.transfer, "transfer_too_large");
      }
      if (transfers_.size() >= limits_.max_transfers) {
        return fail_locked(m.transfer, "too_many_transfers");
      }
      if (reserved_ + m.total_bytes > limits_.budget_bytes) {
        return fail_locked(m.transfer, "transfer_budget_exceeded");
      }
      Transfer& t = transfers_[m.transfer];
      t.total = m.total_bytes;
      t.bytes.reserve(static_cast<std::size_t>(m.total_bytes));
      reserved_ += m.total_bytes;
      if (gauge_ != nullptr) gauge_->fetch_add(static_cast<std::int64_t>(m.total_bytes));
      return ack;  // ok, send
    }
    case ChunkType::kData: {
      if (dead_.count(m.transfer) != 0) {
        ack.ok = false;
        ack.send = false;  // sender already heard the failure once
        return ack;
      }
      const auto it = transfers_.find(m.transfer);
      if (it == transfers_.end()) return fail_locked(m.transfer, "unknown_transfer");
      Transfer& t = it->second;
      if (t.sealed) return fail_locked(m.transfer, "transfer_sealed");
      if (m.seq != t.next_seq) return fail_locked(m.transfer, "bad_sequence");
      if (t.bytes.size() + m.payload.size() > t.total) {
        return fail_locked(m.transfer, "size_overflow");
      }
      if (cosmo::crc32(m.payload.data(), m.payload.size()) != m.crc32) {
        return fail_locked(m.transfer, "crc_mismatch");
      }
      t.bytes.insert(t.bytes.end(), m.payload.begin(), m.payload.end());
      t.next_seq += 1;
      t.idle.reset();
      ack.send = false;  // accepted data chunks are not acked
      return ack;
    }
    case ChunkType::kEnd: {
      if (dead_.count(m.transfer) != 0) {
        // Unlike data chunks, the end of a dead transfer is answered: the
        // uploader blocks on this ack, and a failure mid-stream (reap,
        // budget, crc) may have raced past its remaining data chunks.
        ack.ok = false;
        ack.reason = "unknown_transfer";
        return ack;
      }
      const auto it = transfers_.find(m.transfer);
      if (it == transfers_.end()) return fail_locked(m.transfer, "unknown_transfer");
      Transfer& t = it->second;
      if (t.sealed) return fail_locked(m.transfer, "transfer_sealed");
      if (t.bytes.size() != t.total) return fail_locked(m.transfer, "size_mismatch");
      const std::uint32_t whole = cosmo::crc32(t.bytes.data(), t.bytes.size());
      if (m.has_crc32 && whole != m.crc32) {
        return fail_locked(m.transfer, "crc_mismatch");
      }
      t.sealed = true;
      t.idle.reset();
      ack.completed = true;
      ack.received_bytes = t.total;
      ack.crc32 = whole;
      return ack;
    }
    case ChunkType::kAbort: {
      dead_.erase(m.transfer);
      const auto it = transfers_.find(m.transfer);
      if (it != transfers_.end()) {
        release_locked(it->second.total);
        transfers_.erase(it);
      }
      return ack;  // abort is idempotent: always ok
    }
  }
  return ack;
}

TransferTable::ClaimStatus TransferTable::claim(const std::string& id,
                                                std::vector<std::uint8_t>& out) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = transfers_.find(id);
  if (it == transfers_.end()) return ClaimStatus::kMissing;
  if (!it->second.sealed) return ClaimStatus::kIncomplete;
  out = std::move(it->second.bytes);
  release_locked(it->second.total);
  transfers_.erase(it);
  return ClaimStatus::kOk;
}

void TransferTable::deposit(const std::string& id, std::vector<std::uint8_t> bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto size = static_cast<std::uint64_t>(bytes.size());
  if (size == 0 || size > limits_.max_transfer_bytes) return;
  if (transfers_.count(id) != 0 || transfers_.size() >= limits_.max_transfers) return;
  if (reserved_ + size > limits_.budget_bytes) return;
  Transfer& t = transfers_[id];
  t.total = size;
  t.sealed = true;
  t.bytes = std::move(bytes);
  reserved_ += size;
  if (gauge_ != nullptr) gauge_->fetch_add(static_cast<std::int64_t>(size));
}

bool TransferTable::contains(const std::string& id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return transfers_.count(id) != 0;
}

bool TransferTable::complete(const std::string& id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = transfers_.find(id);
  return it != transfers_.end() && it->second.sealed;
}

std::optional<std::uint64_t> TransferTable::complete_size(const std::string& id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = transfers_.find(id);
  if (it == transfers_.end() || !it->second.sealed) return std::nullopt;
  return it->second.total;
}

std::uint64_t TransferTable::reserved_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return reserved_;
}

std::size_t TransferTable::open_transfers() const {
  std::lock_guard<std::mutex> lock(mu_);
  return transfers_.size();
}

std::size_t TransferTable::reap_idle(double idle_seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t reaped = 0;
  for (auto it = transfers_.begin(); it != transfers_.end();) {
    if (it->second.idle.seconds() > idle_seconds) {
      release_locked(it->second.total);
      if (dead_.size() >= kMaxDeadIds) dead_.erase(dead_.begin());
      dead_.insert(it->first);
      it = transfers_.erase(it);
      ++reaped;
    } else {
      ++it;
    }
  }
  return reaped;
}

void TransferTable::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [id, t] : transfers_) release_locked(t.total);
  transfers_.clear();
  dead_.clear();
}

json::Value make_chunk_ack(const TransferTable::Ack& ack) {
  json::Object o;
  o["type"] = "chunk_ack";
  o["transfer"] = ack.transfer;
  o["ok"] = ack.ok;
  if (ack.reason != nullptr) o["reason"] = ack.reason;
  if (ack.completed) {
    o["completed"] = true;
    o["received_bytes"] = static_cast<double>(ack.received_bytes);
    o["crc32"] = static_cast<double>(ack.crc32);
  }
  return json::Value(std::move(o));
}

// ---------------------------------------------------------------------------
// Message schema
// ---------------------------------------------------------------------------

const char* request_type_name(RequestType t) {
  switch (t) {
    case RequestType::kPing: return "ping";
    case RequestType::kHello: return "hello";
    case RequestType::kMetrics: return "metrics";
    case RequestType::kShutdown: return "shutdown";
    case RequestType::kCompress: return "compress";
    case RequestType::kDecompress: return "decompress";
    case RequestType::kRoundtrip: return "roundtrip";
    case RequestType::kSweep: return "sweep";
  }
  return "unknown";
}

bool is_job_request(RequestType t) {
  return t == RequestType::kCompress || t == RequestType::kDecompress ||
         t == RequestType::kRoundtrip || t == RequestType::kSweep;
}

namespace {

RequestType parse_type(const std::string& name) {
  for (const RequestType t :
       {RequestType::kPing, RequestType::kHello, RequestType::kMetrics,
        RequestType::kShutdown, RequestType::kCompress, RequestType::kDecompress,
        RequestType::kRoundtrip, RequestType::kSweep}) {
    if (name == request_type_name(t)) return t;
  }
  throw FormatError("protocol: unknown request type '" + name + "'");
}

/// 2^53: every integer up to it survives a JSON number (a double) exactly.
constexpr double kMaxRequestId = 9007199254740992.0;

}  // namespace

JobRequest JobRequest::parse(const json::Value& v) {
  require_format(v.is_object(), "protocol: request must be a JSON object");
  JobRequest r;
  r.type = parse_type(v.get("type", std::string()));
  const double id = v.get("id", 0.0);
  require_format(id >= 0 && id <= kMaxRequestId && id == std::floor(id),
                 "protocol: request id must be an integer in [0, 2^53]");
  r.id = static_cast<std::uint64_t>(id);
  if (v.contains("proto")) {
    const auto [major, minor] = parse_proto(v.at("proto").as_string());
    require_format(major >= 1, "protocol: proto major must be >= 1");
    r.proto_major = major;
    r.proto_minor = minor;
  }
  if (!is_job_request(r.type)) return r;

  r.deadline_seconds = v.get("deadline_seconds", 0.0);
  require_format(r.deadline_seconds >= 0, "protocol: negative deadline");
  const double priority = v.get("priority", 1.0);
  require_format(priority >= 0 && priority <= 15 && priority == std::floor(priority),
                 "protocol: priority must be an integer in [0, 15]");
  r.priority = static_cast<int>(priority);
  r.codec = v.get("codec", std::string());
  require_format(!r.codec.empty(), "protocol: job request missing codec");
  r.return_bytes = v.get("return_bytes", false);

  if (r.type == RequestType::kDecompress) {
    r.payload_b64 = v.get("payload", std::string());
    r.payload_transfer = v.get("payload_transfer", std::string());
    require_format(r.payload_b64.empty() || r.payload_transfer.empty(),
                   "protocol: decompress payload and payload_transfer are exclusive");
    require_format(!r.payload_b64.empty() || !r.payload_transfer.empty(),
                   "protocol: decompress request missing payload");
    require_format(r.payload_b64.size() <= static_cast<std::size_t>(kMaxFrameBytes),
                   "protocol: decompress payload too large");
    require_format(r.payload_transfer.size() <= kMaxTransferIdChars,
                   "protocol: transfer id must be 1..64 chars");
    return r;
  }

  require_format(v.contains("dataset"), "protocol: job request missing dataset spec");
  r.dataset = v.at("dataset");
  require_format(r.dataset.is_object(), "protocol: dataset spec must be an object");
  r.field = v.get("field", std::string());
  require_format(!r.field.empty(), "protocol: job request missing field");

  if (r.type == RequestType::kSweep) {
    require_format(v.contains("configs"), "protocol: sweep request missing configs");
    r.configs = foresight::parse_config_list(v.at("configs"));
    require_format(!r.configs.empty(), "protocol: sweep request with no configs");
    require_format(r.configs.size() <= 1024, "protocol: sweep config list too large");
  } else {
    r.config.mode = v.get("mode", std::string());
    require_format(!r.config.mode.empty(), "protocol: job request missing mode");
    r.config.value = v.get("value", 0.0);
  }
  return r;
}

json::Value JobRequest::to_json() const {
  json::Object o;
  o["type"] = request_type_name(type);
  if (id != 0) o["id"] = static_cast<double>(id);
  if (proto_major != 0) {
    o["proto"] = std::to_string(proto_major) + "." + std::to_string(proto_minor);
  }
  if (!is_job_request(type)) return json::Value(std::move(o));
  o["codec"] = codec;
  if (deadline_seconds > 0) o["deadline_seconds"] = deadline_seconds;
  if (priority != 1) o["priority"] = priority;
  if (return_bytes) o["return_bytes"] = true;
  if (type == RequestType::kDecompress) {
    if (!payload_transfer.empty()) {
      o["payload_transfer"] = payload_transfer;
    } else {
      o["payload"] = payload_b64;
    }
    return json::Value(std::move(o));
  }
  o["dataset"] = dataset;
  o["field"] = field;
  if (type == RequestType::kSweep) {
    o["configs"] = foresight::config_list_json(configs);
  } else {
    o["mode"] = config.mode;
    o["value"] = config.value;
  }
  return json::Value(std::move(o));
}

json::Value make_rejection(std::uint64_t id, const char* reason) {
  json::Object o;
  o["type"] = "result";
  if (id != 0) o["id"] = static_cast<double>(id);
  o["status"] = kStatusRejected;
  o["reason"] = reason;
  return json::Value(std::move(o));
}

json::Value make_error(const std::string& what) {
  json::Object o;
  o["type"] = "error";
  o["error"] = what;
  return json::Value(std::move(o));
}

json::Value make_version_error(std::uint64_t id, int major, int minor) {
  json::Object o;
  o["type"] = "error";
  if (id != 0) o["id"] = static_cast<double>(id);
  o["error_code"] = "unsupported_version";
  o["error"] = "protocol: unsupported version " + std::to_string(major) + "." +
               std::to_string(minor) + " (daemon speaks " + proto_version_string() + ")";
  o["proto"] = proto_version_string();
  return json::Value(std::move(o));
}

Dims inline_dims(const json::Value& dataset_spec) {
  require_format(dataset_spec.is_object() && dataset_spec.contains("dims"),
                 "protocol: inline dataset missing dims");
  const auto& dims_json = dataset_spec.at("dims").as_array();
  require_format(!dims_json.empty() && dims_json.size() <= 3,
                 "protocol: inline dataset dims must have 1..3 extents");
  std::size_t extents[3] = {1, 1, 1};
  for (std::size_t i = 0; i < dims_json.size(); ++i) {
    const double e = dims_json[i].as_number();
    require_format(e >= 1 && e <= 1e9, "protocol: inline dataset extent out of range");
    extents[i] = static_cast<std::size_t>(e);
  }
  const Dims dims = Dims::d3(extents[0], extents[1], extents[2]);
  checked_stream_count(dims, "inline dataset");
  return dims;
}

}  // namespace cosmo::foresightd
