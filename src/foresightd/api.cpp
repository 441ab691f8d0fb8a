#include "foresightd/api.hpp"

#include "common/error.hpp"

namespace cosmo::foresightd {

json::Value nyx_dataset(std::size_t dim, std::uint64_t seed) {
  json::Object o;
  o["type"] = "nyx";
  o["dim"] = static_cast<double>(dim);
  o["seed"] = static_cast<double>(seed);
  return json::Value(std::move(o));
}

json::Value hacc_dataset(std::size_t particles, std::uint64_t seed) {
  json::Object o;
  o["type"] = "hacc";
  o["particles"] = static_cast<double>(particles);
  o["seed"] = static_cast<double>(seed);
  return json::Value(std::move(o));
}

json::Value file_dataset(const std::string& path) {
  json::Object o;
  o["type"] = "file";
  o["path"] = path;
  return json::Value(std::move(o));
}

json::Value inline_dataset(const std::string& transfer, const Dims& dims) {
  json::Object o;
  o["type"] = "inline";
  o["transfer"] = transfer;
  json::Array extents;
  extents.push_back(json::Value(static_cast<double>(dims.nx)));
  if (dims.ny > 1 || dims.nz > 1) extents.push_back(json::Value(static_cast<double>(dims.ny)));
  if (dims.nz > 1) extents.push_back(json::Value(static_cast<double>(dims.nz)));
  o["dims"] = std::move(extents);
  return json::Value(std::move(o));
}

namespace {

JobRequest base_request(RequestType type, std::uint64_t id, const JobOptions& options) {
  JobRequest r;
  r.type = type;
  r.id = id;
  r.proto_major = kProtoMajor;
  r.proto_minor = kProtoMinor;
  r.deadline_seconds = options.deadline_seconds;
  r.priority = options.priority;
  return r;
}

}  // namespace

JobRequest CompressRequest::to_request(std::uint64_t id) const {
  JobRequest r = base_request(RequestType::kCompress, id, options);
  r.codec = codec;
  r.config = {mode, value};
  r.dataset = dataset;
  r.field = field;
  r.return_bytes = return_bytes;
  return r;
}

JobRequest DecompressRequest::to_request(std::uint64_t id) const {
  JobRequest r = base_request(RequestType::kDecompress, id, options);
  r.codec = codec;
  if (!payload_transfer.empty()) {
    r.payload_transfer = payload_transfer;
  } else {
    r.payload_b64 = base64_encode(payload);
  }
  return r;
}

JobRequest RoundtripRequest::to_request(std::uint64_t id) const {
  JobRequest r = base_request(RequestType::kRoundtrip, id, options);
  r.codec = codec;
  r.config = {mode, value};
  r.dataset = dataset;
  r.field = field;
  return r;
}

JobRequest SweepRequest::to_request(std::uint64_t id) const {
  JobRequest r = base_request(RequestType::kSweep, id, options);
  r.codec = codec;
  r.dataset = dataset;
  r.field = field;
  r.configs = configs;
  return r;
}

HelloReply HelloReply::parse(const json::Value& frame) {
  require_format(frame.is_object() && frame.get("type", std::string()) == "hello",
                 "foresightd api: not a hello reply");
  HelloReply h;
  const auto [major, minor] = parse_proto(frame.get("proto", std::string("0")));
  h.proto_major = major;
  h.proto_minor = minor;
  h.max_frame_bytes = static_cast<std::uint64_t>(frame.get("max_frame_bytes", 0.0));
  h.max_transfer_bytes = static_cast<std::uint64_t>(frame.get("max_transfer_bytes", 0.0));
  h.transfer_budget_bytes =
      static_cast<std::uint64_t>(frame.get("transfer_budget_bytes", 0.0));
  h.chunk_bytes = static_cast<std::uint64_t>(frame.get("chunk_bytes", 0.0));
  h.draining = frame.get("draining", false);
  return h;
}

JobReply JobReply::parse(json::Value frame) {
  require_format(frame.is_object(), "foresightd api: reply must be a JSON object");
  JobReply r;
  const std::string type = frame.get("type", std::string());
  const double id = frame.get("id", 0.0);
  if (id > 0) r.id = static_cast<std::uint64_t>(id);
  if (type == "result") {
    r.kind = ReplyKind::kResult;
    r.status = frame.get("status", std::string());
    r.reason = frame.get("reason", std::string());
    r.payload_transfer = frame.get("payload_transfer", std::string());
    const std::string payload_b64 = frame.get("payload", std::string());
    if (!payload_b64.empty()) r.payload = base64_decode(payload_b64);
  } else if (type == "error") {
    r.kind = ReplyKind::kError;
    r.error = frame.get("error", std::string());
    r.error_code = frame.get("error_code", std::string());
  } else if (type == "chunk_ack") {
    r.kind = ReplyKind::kChunkAck;
    r.transfer = frame.get("transfer", std::string());
    r.chunk_ok = frame.get("ok", false);
    r.chunk_completed = frame.get("completed", false);
    r.reason = frame.get("reason", std::string());
  } else if (type == "pong") {
    r.kind = ReplyKind::kPong;
  } else if (type == "hello") {
    r.kind = ReplyKind::kHello;
  } else if (type == "metrics") {
    r.kind = ReplyKind::kMetrics;
  } else if (type == "ok") {
    r.kind = ReplyKind::kOk;
  }
  r.raw = std::move(frame);
  return r;
}

}  // namespace cosmo::foresightd
