/// \file test_foresightd.cpp
/// \brief foresightd service daemon: backoff, cancellation, admission,
/// wire protocol, session-cache isolation, and end-to-end daemon behavior.
///
/// Suites are all named Foresightd* so check.sh's tsan mode can select the
/// whole service surface with one gtest filter. The e2e suite starts real
/// daemons on per-test AF_UNIX sockets; every test drains its daemon before
/// returning so sockets and threads never leak across tests.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common/admission_queue.hpp"
#include "common/backoff.hpp"
#include "common/cancel.hpp"
#include "common/error.hpp"
#include "foresight/pipeline.hpp"
#include "foresight/session_cache.hpp"
#include "foresightd/api.hpp"
#include "foresightd/client.hpp"
#include "foresightd/daemon.hpp"
#include "foresightd/dataset_cache.hpp"
#include "foresightd/protocol.hpp"
#include "io/crc32.hpp"
#include "json/json.hpp"

namespace cosmo {
namespace {

using foresightd::base64_decode;
using foresightd::base64_encode;
using foresightd::ChunkMessage;
using foresightd::ChunkType;
using foresightd::Client;
using foresightd::CompressRequest;
using foresightd::Daemon;
using foresightd::DaemonOptions;
using foresightd::DatasetCache;
using foresightd::encode_frame;
using foresightd::FrameParser;
using foresightd::HelloReply;
using foresightd::inline_dataset;
using foresightd::JobReply;
using foresightd::JobRequest;
using foresightd::kMaxFrameBytes;
using foresightd::kProtoMajor;
using foresightd::ReplyKind;
using foresightd::RequestType;
using foresightd::TransferLimits;
using foresightd::TransferTable;

// ---------------------------------------------------------------------------
// ForesightdBackoff
// ---------------------------------------------------------------------------

TEST(ForesightdBackoff, DeterministicForSameInputs) {
  const backoff::Policy policy;
  for (int attempt = 1; attempt <= 8; ++attempt) {
    EXPECT_DOUBLE_EQ(backoff::delay_seconds(policy, attempt, 7),
                     backoff::delay_seconds(policy, attempt, 7));
  }
  EXPECT_DOUBLE_EQ(backoff::jitter_uniform(1, 2, 3), backoff::jitter_uniform(1, 2, 3));
}

TEST(ForesightdBackoff, DelayStaysWithinJitteredEnvelope) {
  backoff::Policy policy;
  policy.base_delay_seconds = 1e-3;
  policy.max_delay_seconds = 8e-3;
  policy.jitter_fraction = 0.5;
  for (int attempt = 1; attempt <= 12; ++attempt) {
    const double exp_delay =
        std::min(policy.base_delay_seconds * static_cast<double>(1 << (attempt - 1)),
                 policy.max_delay_seconds);
    for (std::uint64_t salt = 0; salt < 4; ++salt) {
      const double d = backoff::delay_seconds(policy, attempt, salt);
      EXPECT_GE(d, exp_delay * (1.0 - policy.jitter_fraction));
      EXPECT_LE(d, exp_delay);
      EXPECT_LE(d, policy.max_delay_seconds);  // cap never exceeded
    }
  }
}

TEST(ForesightdBackoff, ZeroJitterIsPureExponential) {
  backoff::Policy policy;
  policy.base_delay_seconds = 0.5e-3;
  policy.max_delay_seconds = 50e-3;
  policy.jitter_fraction = 0.0;
  EXPECT_DOUBLE_EQ(backoff::delay_seconds(policy, 1, 99), 0.5e-3);
  EXPECT_DOUBLE_EQ(backoff::delay_seconds(policy, 2, 99), 1e-3);
  EXPECT_DOUBLE_EQ(backoff::delay_seconds(policy, 3, 99), 2e-3);
  EXPECT_DOUBLE_EQ(backoff::delay_seconds(policy, 20, 99), 50e-3);  // capped
}

TEST(ForesightdBackoff, SaltsDecorrelateSchedules) {
  const backoff::Policy policy;  // default jitter_fraction = 0.5
  int distinct = 0;
  for (std::uint64_t salt = 1; salt <= 16; ++salt) {
    if (backoff::delay_seconds(policy, 3, salt) !=
        backoff::delay_seconds(policy, 3, salt + 16)) {
      ++distinct;
    }
  }
  // A thundering herd needs equal delays; decorrelated salts make that
  // vanishingly unlikely. Allow a couple of hash collisions.
  EXPECT_GE(distinct, 14);
}

TEST(ForesightdBackoff, JitterUniformInHalfOpenUnitInterval) {
  for (std::uint64_t i = 0; i < 256; ++i) {
    const double u = backoff::jitter_uniform(0xB0FF, i, i * 3);
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

// ---------------------------------------------------------------------------
// ForesightdCancel
// ---------------------------------------------------------------------------

TEST(ForesightdCancel, DefaultTokenNeverStops) {
  const CancelToken token;
  EXPECT_FALSE(token.stop_requested());
  EXPECT_FALSE(token.has_deadline());
  EXPECT_NO_THROW(token.check("stage"));
}

TEST(ForesightdCancel, CancelVisibleAcrossCopies) {
  CancelToken token;
  CancelToken copy = token;
  copy.cancel();
  EXPECT_TRUE(token.cancelled());
  EXPECT_THROW(token.check("stage"), CancelledError);
}

TEST(ForesightdCancel, ExpiredDeadlineThrowsDeadlineError) {
  const CancelToken token = CancelToken::with_deadline(-1.0);
  EXPECT_TRUE(token.deadline_expired());
  EXPECT_LT(token.remaining_seconds(), 0.0);
  EXPECT_THROW(token.check("stage"), DeadlineExceededError);
}

TEST(ForesightdCancel, CancellationWinsOverDeadline) {
  CancelToken token = CancelToken::with_deadline(-1.0);
  token.cancel();
  EXPECT_THROW(token.check("stage"), CancelledError);
}

TEST(ForesightdCancel, FutureDeadlineDoesNotFirePrematurely) {
  const CancelToken token = CancelToken::with_deadline(3600.0);
  EXPECT_FALSE(token.stop_requested());
  EXPECT_GT(token.remaining_seconds(), 3000.0);
  EXPECT_NO_THROW(token.check("stage"));
}

// ---------------------------------------------------------------------------
// ForesightdQueue
// ---------------------------------------------------------------------------

TEST(ForesightdQueue, FifoWithinOnePriority) {
  AdmissionQueue<int> q({.capacity = 8, .per_client_quota = 0, .priorities = 1});
  ASSERT_EQ(q.try_push(1, 1, 0), Admission::kAccepted);
  ASSERT_EQ(q.try_push(2, 1, 0), Admission::kAccepted);
  int out = 0;
  ASSERT_TRUE(q.try_pop(out));
  EXPECT_EQ(out, 1);
  ASSERT_TRUE(q.try_pop(out));
  EXPECT_EQ(out, 2);
  EXPECT_FALSE(q.try_pop(out));
}

TEST(ForesightdQueue, HigherPriorityPopsFirst) {
  AdmissionQueue<int> q({.capacity = 8, .per_client_quota = 0, .priorities = 3});
  ASSERT_EQ(q.try_push(10, 1, 2), Admission::kAccepted);  // low
  ASSERT_EQ(q.try_push(20, 1, 0), Admission::kAccepted);  // high
  ASSERT_EQ(q.try_push(30, 1, 1), Admission::kAccepted);  // middle
  int out = 0;
  ASSERT_TRUE(q.try_pop(out));
  EXPECT_EQ(out, 20);
  ASSERT_TRUE(q.try_pop(out));
  EXPECT_EQ(out, 30);
  ASSERT_TRUE(q.try_pop(out));
  EXPECT_EQ(out, 10);
}

TEST(ForesightdQueue, CapacityRejectsWithQueueFull) {
  AdmissionQueue<int> q({.capacity = 2, .per_client_quota = 0, .priorities = 1});
  ASSERT_EQ(q.try_push(1, 1), Admission::kAccepted);
  ASSERT_EQ(q.try_push(2, 1), Admission::kAccepted);
  EXPECT_EQ(q.try_push(3, 1), Admission::kQueueFull);
  int out = 0;
  ASSERT_TRUE(q.try_pop(out));
  EXPECT_EQ(q.try_push(3, 1), Admission::kAccepted);  // capacity freed by pop
}

TEST(ForesightdQueue, QuotaCountsOutstandingUntilRelease) {
  AdmissionQueue<int> q({.capacity = 8, .per_client_quota = 1, .priorities = 1});
  ASSERT_EQ(q.try_push(1, 7), Admission::kAccepted);
  EXPECT_EQ(q.try_push(2, 7), Admission::kQuotaExceeded);
  EXPECT_EQ(q.try_push(2, 8), Admission::kAccepted);  // other clients unaffected
  int out = 0;
  ASSERT_TRUE(q.try_pop(out));
  // Popped but not released: still outstanding, still over quota.
  EXPECT_EQ(q.outstanding(7), 1u);
  EXPECT_EQ(q.try_push(3, 7), Admission::kQuotaExceeded);
  q.release(7);
  EXPECT_EQ(q.outstanding(7), 0u);
  EXPECT_EQ(q.try_push(3, 7), Admission::kAccepted);
}

TEST(ForesightdQueue, CloseDrainsAdmittedThenPopReturnsFalse) {
  AdmissionQueue<int> q({.capacity = 8, .per_client_quota = 0, .priorities = 1});
  ASSERT_EQ(q.try_push(1, 1), Admission::kAccepted);
  ASSERT_EQ(q.try_push(2, 1), Admission::kAccepted);
  q.close();
  EXPECT_TRUE(q.draining());
  EXPECT_EQ(q.try_push(3, 1), Admission::kDraining);
  int out = 0;
  ASSERT_TRUE(q.pop(out));  // already-admitted items keep coming
  EXPECT_EQ(out, 1);
  ASSERT_TRUE(q.pop(out));
  EXPECT_EQ(out, 2);
  EXPECT_FALSE(q.pop(out));  // drained and empty: exactly-once handout is over
}

TEST(ForesightdQueue, HighWaterTracksPeakDepth) {
  AdmissionQueue<int> q({.capacity = 8, .per_client_quota = 0, .priorities = 1});
  ASSERT_EQ(q.try_push(1, 1), Admission::kAccepted);
  ASSERT_EQ(q.try_push(2, 1), Admission::kAccepted);
  ASSERT_EQ(q.try_push(3, 1), Admission::kAccepted);
  int out = 0;
  while (q.try_pop(out)) {
  }
  EXPECT_EQ(q.high_water(), 3u);
  EXPECT_EQ(q.size(), 0u);
}

TEST(ForesightdQueue, AdmissionNamesAreStable) {
  EXPECT_STREQ(admission_name(Admission::kAccepted), "accepted");
  EXPECT_STREQ(admission_name(Admission::kQueueFull), "queue_full");
  EXPECT_STREQ(admission_name(Admission::kQuotaExceeded), "quota");
  EXPECT_STREQ(admission_name(Admission::kDraining), "draining");
}

// ---------------------------------------------------------------------------
// ForesightdProtocol
// ---------------------------------------------------------------------------

json::Value sample_request_json() {
  json::Object o;
  o["type"] = "roundtrip";
  o["id"] = 42;
  o["codec"] = "sz-cpu";
  o["mode"] = "abs";
  o["value"] = 0.1;
  json::Object ds;
  ds["type"] = "nyx";
  ds["dim"] = 16;
  ds["seed"] = 42;
  o["dataset"] = json::Value(std::move(ds));
  o["field"] = "baryon_density";
  return json::Value(std::move(o));
}

TEST(ForesightdProtocol, FrameRoundTrip) {
  const json::Value v = sample_request_json();
  const std::vector<std::uint8_t> wire = encode_frame(v);
  FrameParser parser;
  parser.feed(wire.data(), wire.size());
  const auto decoded = parser.next();
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->dump(), v.dump());
  EXPECT_FALSE(parser.next().has_value());
  EXPECT_EQ(parser.pending_bytes(), 0u);
}

TEST(ForesightdProtocol, ByteAtATimeFeed) {
  const json::Value v = sample_request_json();
  std::vector<std::uint8_t> wire = encode_frame(v);
  wire.reserve(wire.size() * 3);
  const std::size_t one = wire.size();
  // Three back-to-back frames, delivered one byte at a time.
  for (int i = 0; i < 2; ++i) wire.insert(wire.end(), wire.begin(), wire.begin() + one);
  FrameParser parser;
  int frames = 0;
  for (const std::uint8_t byte : wire) {
    parser.feed(&byte, 1);
    while (const auto decoded = parser.next()) {
      EXPECT_EQ(decoded->dump(), v.dump());
      ++frames;
    }
  }
  EXPECT_EQ(frames, 3);
}

TEST(ForesightdProtocol, TruncatedPrefixYieldsNothing) {
  const std::vector<std::uint8_t> wire = encode_frame(sample_request_json());
  FrameParser parser;
  parser.feed(wire.data(), 3);  // not even a full header
  EXPECT_FALSE(parser.next().has_value());
  parser.feed(wire.data() + 3, wire.size() - 3 - 1);  // all but the last byte
  EXPECT_FALSE(parser.next().has_value());
  parser.feed(wire.data() + wire.size() - 1, 1);
  EXPECT_TRUE(parser.next().has_value());
}

TEST(ForesightdProtocol, ZeroLengthHeaderRejectedBeforeBuffering) {
  const std::uint8_t zero[4] = {0, 0, 0, 0};
  FrameParser parser;
  EXPECT_THROW(parser.feed(zero, 4), FormatError);
}

TEST(ForesightdProtocol, HostileLengthRejectedAtHeaderTime) {
  // 4 GiB - 1 declared; must throw at feed() with nothing allocated for it.
  const std::uint8_t huge[4] = {0xFF, 0xFF, 0xFF, 0xFF};
  FrameParser parser;
  EXPECT_THROW(parser.feed(huge, 4), FormatError);
}

TEST(ForesightdProtocol, OverMaxLengthRejected) {
  const std::uint32_t len = kMaxFrameBytes + 1;
  std::uint8_t header[4];
  std::memcpy(header, &len, 4);
  FrameParser parser;
  EXPECT_THROW(parser.feed(header, 4), FormatError);
}

TEST(ForesightdProtocol, MalformedJsonPayloadThrows) {
  const std::string payload = "{not json";
  std::vector<std::uint8_t> wire;
  const auto len = static_cast<std::uint32_t>(payload.size());
  wire.resize(4);
  std::memcpy(wire.data(), &len, 4);
  wire.insert(wire.end(), payload.begin(), payload.end());
  FrameParser parser;
  parser.feed(wire.data(), wire.size());
  EXPECT_THROW(parser.next(), FormatError);
}

TEST(ForesightdProtocol, ParseValidatesPerType) {
  json::Object o;
  o["type"] = "bogus";
  EXPECT_THROW(JobRequest::parse(json::Value(o)), FormatError);

  o["type"] = "roundtrip";  // job request with no codec
  EXPECT_THROW(JobRequest::parse(json::Value(o)), FormatError);

  o["codec"] = "sz-cpu";  // still no dataset/field/mode
  EXPECT_THROW(JobRequest::parse(json::Value(o)), FormatError);

  json::Object decomp;
  decomp["type"] = "decompress";
  decomp["codec"] = "sz-cpu";
  EXPECT_THROW(JobRequest::parse(json::Value(decomp)), FormatError);  // no payload

  json::Object bad_deadline = sample_request_json().as_object();
  bad_deadline["deadline_seconds"] = -1.0;
  EXPECT_THROW(JobRequest::parse(json::Value(bad_deadline)), FormatError);

  json::Object control;
  control["type"] = "ping";  // control requests need nothing else
  EXPECT_NO_THROW(JobRequest::parse(json::Value(control)));
}

TEST(ForesightdProtocol, ParseToJsonRoundTrip) {
  const JobRequest parsed = JobRequest::parse(sample_request_json());
  EXPECT_EQ(parsed.type, RequestType::kRoundtrip);
  EXPECT_EQ(parsed.id, 42u);
  EXPECT_EQ(parsed.codec, "sz-cpu");
  EXPECT_EQ(parsed.mode, "abs");
  EXPECT_DOUBLE_EQ(parsed.value, 0.1);
  EXPECT_EQ(parsed.field, "baryon_density");
  const JobRequest again = JobRequest::parse(parsed.to_json());
  EXPECT_EQ(again.to_json().dump(), parsed.to_json().dump());
}

TEST(ForesightdProtocol, SweepConfigsRoundTrip) {
  JobRequest request;
  request.type = RequestType::kSweep;
  request.id = 7;
  request.codec = "zfp-cpu";
  request.dataset = sample_request_json().at("dataset");
  request.field = "baryon_density";
  request.configs = {{"rate", 4.0}, {"rate", 8.0}, {"abs", 0.1}};
  const JobRequest parsed = JobRequest::parse(request.to_json());
  ASSERT_EQ(parsed.configs.size(), 3u);
  EXPECT_EQ(parsed.configs[0].first, "rate");
  EXPECT_DOUBLE_EQ(parsed.configs[1].second, 8.0);
  EXPECT_EQ(parsed.configs[2].first, "abs");
}

// ---------------------------------------------------------------------------
// ForesightdBase64
// ---------------------------------------------------------------------------

TEST(ForesightdBase64, RoundTripsAllSmallLengths) {
  std::uint8_t raw[10];
  for (std::size_t i = 0; i < sizeof(raw); ++i) {
    raw[i] = static_cast<std::uint8_t>(i * 37 + 11);
  }
  for (std::size_t n = 0; n <= 9; ++n) {
    const std::vector<std::uint8_t> data(raw, raw + n);
    const std::string text = base64_encode(data);
    EXPECT_EQ(text.size() % 4, 0u);
    EXPECT_EQ(base64_decode(text), data);
  }
}

TEST(ForesightdBase64, KnownVector) {
  const std::string text = base64_encode(
      reinterpret_cast<const std::uint8_t*>("foobar"), 6);
  EXPECT_EQ(text, "Zm9vYmFy");
  EXPECT_EQ(base64_encode(reinterpret_cast<const std::uint8_t*>("foob"), 4), "Zm9vYg==");
}

TEST(ForesightdBase64, RejectsMalformedInput) {
  const auto what = [](const std::string& text) -> std::string {
    try {
      (void)base64_decode(text);
    } catch (const FormatError& e) {
      return e.what();
    }
    return "accepted";
  };
  EXPECT_EQ(what("AAA"), "base64: length not a multiple of 4");
  EXPECT_EQ(what("AA!A"), "base64: invalid character");
  EXPECT_EQ(what("=AAA"), "base64: misplaced padding");       // padding up front
  EXPECT_EQ(what("AA=A"), "base64: misplaced padding");       // padding mid-quartet
  EXPECT_EQ(what("AB==CD=="), "base64: misplaced padding");   // padding not terminal
  EXPECT_EQ(what("AAAAA!AAAAAA"), "base64: invalid character");  // interior quartet
  EXPECT_EQ(what("AAAA\x80" "AAAAAAA"), "base64: invalid character");  // non-ASCII byte
  // The first bad quartet names the error; within a quartet an invalid
  // character outranks misplaced padding.
  EXPECT_EQ(what("A=AAAAA!"), "base64: misplaced padding");
  EXPECT_EQ(what("AAAAA=!A"), "base64: invalid character");
}

// ---------------------------------------------------------------------------
// ForesightdTransfer (chunk reassembly state machine)
// ---------------------------------------------------------------------------

ChunkMessage chunk_begin(const std::string& id, std::uint64_t total) {
  ChunkMessage m;
  m.type = ChunkType::kBegin;
  m.transfer = id;
  m.total_bytes = total;
  return m;
}

ChunkMessage chunk_data(const std::string& id, std::uint64_t seq,
                        std::vector<std::uint8_t> bytes) {
  ChunkMessage m;
  m.type = ChunkType::kData;
  m.transfer = id;
  m.seq = seq;
  m.crc32 = crc32(bytes.data(), bytes.size());
  m.payload = std::move(bytes);
  return m;
}

ChunkMessage chunk_end(const std::string& id, const std::vector<std::uint8_t>& whole) {
  ChunkMessage m;
  m.type = ChunkType::kEnd;
  m.transfer = id;
  m.crc32 = crc32(whole.data(), whole.size());
  m.has_crc32 = true;
  return m;
}

std::vector<std::uint8_t> pattern_bytes(std::size_t n) {
  std::vector<std::uint8_t> data(n);
  std::size_t i = 0;
  for (std::uint8_t& byte : data) byte = static_cast<std::uint8_t>((i++ * 131) >> 3);
  return data;
}

TEST(ForesightdTransfer, BeginDataEndClaimRoundTrip) {
  TransferTable table{TransferLimits{}};
  const std::vector<std::uint8_t> data = pattern_bytes(300000);

  const auto begin = table.apply(chunk_begin("t", data.size()));
  EXPECT_TRUE(begin.ok);
  EXPECT_TRUE(begin.send);  // begin is always acked
  EXPECT_FALSE(begin.completed);
  EXPECT_EQ(table.reserved_bytes(), data.size());

  const std::vector<std::uint8_t> first(data.begin(), data.begin() + 200000);
  const std::vector<std::uint8_t> rest(data.begin() + 200000, data.end());
  const auto d0 = table.apply(chunk_data("t", 0, first));
  EXPECT_TRUE(d0.ok);
  EXPECT_FALSE(d0.send);  // accepted data chunks are silent
  EXPECT_TRUE(table.apply(chunk_data("t", 1, rest)).ok);

  const auto end = table.apply(chunk_end("t", data));
  EXPECT_TRUE(end.ok);
  EXPECT_TRUE(end.completed);
  EXPECT_EQ(end.received_bytes, data.size());
  EXPECT_EQ(end.crc32, crc32(data.data(), data.size()));
  EXPECT_TRUE(table.complete("t"));
  EXPECT_EQ(table.complete_size("t").value_or(0), data.size());

  std::vector<std::uint8_t> out;
  EXPECT_EQ(table.claim("t", out), TransferTable::ClaimStatus::kOk);
  EXPECT_EQ(out, data);
  EXPECT_EQ(table.reserved_bytes(), 0u);  // claim frees the budget
  EXPECT_EQ(table.claim("t", out), TransferTable::ClaimStatus::kMissing);
}

TEST(ForesightdTransfer, BudgetsRefuseAtBeginTimeBeforeBuffering) {
  TransferLimits limits;
  limits.max_transfer_bytes = 1000;
  limits.budget_bytes = 1500;
  limits.max_transfers = 2;
  std::atomic<std::int64_t> gauge{0};
  TransferTable table{limits, &gauge};

  const auto too_large = table.apply(chunk_begin("big", 1001));
  EXPECT_FALSE(too_large.ok);
  EXPECT_STREQ(too_large.reason, "transfer_too_large");
  EXPECT_EQ(gauge.load(), 0);

  EXPECT_TRUE(table.apply(chunk_begin("a", 900)).ok);
  EXPECT_EQ(gauge.load(), 900);

  const auto over_budget = table.apply(chunk_begin("b", 700));
  EXPECT_FALSE(over_budget.ok);
  EXPECT_STREQ(over_budget.reason, "transfer_budget_exceeded");

  EXPECT_TRUE(table.apply(chunk_begin("c", 400)).ok);
  EXPECT_EQ(gauge.load(), 1300);
  const auto too_many = table.apply(chunk_begin("d", 100));
  EXPECT_FALSE(too_many.ok);
  EXPECT_STREQ(too_many.reason, "too_many_transfers");

  table.clear();
  EXPECT_EQ(gauge.load(), 0);  // teardown returns every reservation
}

TEST(ForesightdTransfer, FailureKillsTransferAndSilencesFollowingData) {
  TransferTable table{TransferLimits{}};
  const std::vector<std::uint8_t> data = pattern_bytes(64);
  EXPECT_TRUE(table.apply(chunk_begin("t", data.size())).ok);

  ChunkMessage corrupt = chunk_data("t", 0, data);
  corrupt.crc32 ^= 1;
  const auto failed = table.apply(corrupt);
  EXPECT_FALSE(failed.ok);
  EXPECT_STREQ(failed.reason, "crc_mismatch");
  EXPECT_TRUE(failed.send);  // first failure is reported once
  EXPECT_EQ(table.reserved_bytes(), 0u);

  // Later chunks of the half-sent stream cannot generate an ack storm...
  const auto late = table.apply(chunk_data("t", 1, data));
  EXPECT_FALSE(late.ok);
  EXPECT_FALSE(late.send);
  // ...but the end is answered: the uploader blocks waiting for its verdict.
  const auto end = table.apply(chunk_end("t", data));
  EXPECT_FALSE(end.ok);
  EXPECT_TRUE(end.send);
  EXPECT_STREQ(end.reason, "unknown_transfer");

  // A fresh begin revives the id.
  EXPECT_TRUE(table.apply(chunk_begin("t", data.size())).ok);
  EXPECT_TRUE(table.apply(chunk_data("t", 0, data)).ok);
  EXPECT_TRUE(table.apply(chunk_end("t", data)).completed);
}

TEST(ForesightdTransfer, SequenceAndSizeViolationsNameTheirReason) {
  TransferTable table{TransferLimits{}};
  const std::vector<std::uint8_t> data = pattern_bytes(10);

  EXPECT_STREQ(table.apply(chunk_data("ghost", 0, data)).reason, "unknown_transfer");

  EXPECT_TRUE(table.apply(chunk_begin("s", 10)).ok);
  EXPECT_STREQ(table.apply(chunk_data("s", 1, data)).reason, "bad_sequence");

  EXPECT_TRUE(table.apply(chunk_begin("o", 10)).ok);
  EXPECT_STREQ(table.apply(chunk_data("o", 0, pattern_bytes(20))).reason,
               "size_overflow");

  EXPECT_TRUE(table.apply(chunk_begin("m", 20)).ok);
  EXPECT_TRUE(table.apply(chunk_data("m", 0, data)).ok);
  EXPECT_STREQ(table.apply(chunk_end("m", data)).reason, "size_mismatch");

  EXPECT_TRUE(table.apply(chunk_begin("w", 10)).ok);
  EXPECT_TRUE(table.apply(chunk_data("w", 0, data)).ok);
  ChunkMessage bad_end = chunk_end("w", data);
  bad_end.crc32 ^= 1;
  EXPECT_STREQ(table.apply(bad_end).reason, "crc_mismatch");

  EXPECT_TRUE(table.apply(chunk_begin("dup", 10)).ok);
  EXPECT_STREQ(table.apply(chunk_begin("dup", 10)).reason, "duplicate_begin");
}

TEST(ForesightdTransfer, ReapIdleDropsOnlyIdleTransfers) {
  std::atomic<std::int64_t> gauge{0};
  TransferTable table{TransferLimits{}, &gauge};
  EXPECT_TRUE(table.apply(chunk_begin("t", 1 << 20)).ok);
  EXPECT_EQ(table.reap_idle(3600.0), 0u);  // fresh: not idle yet
  EXPECT_EQ(table.reap_idle(0.0), 1u);
  EXPECT_EQ(table.reserved_bytes(), 0u);
  EXPECT_EQ(gauge.load(), 0);
  // The reaped id is dead: more data is silenced, the end is answered.
  EXPECT_FALSE(table.apply(chunk_data("t", 0, pattern_bytes(8))).send);
  EXPECT_STREQ(table.apply(chunk_end("t", pattern_bytes(8))).reason,
               "unknown_transfer");
}

TEST(ForesightdTransfer, ClaimIncompleteAndDepositUndo) {
  TransferTable table{TransferLimits{}};
  const std::vector<std::uint8_t> data = pattern_bytes(100);
  EXPECT_TRUE(table.apply(chunk_begin("t", data.size())).ok);
  EXPECT_TRUE(table.apply(chunk_data("t", 0, data)).ok);

  std::vector<std::uint8_t> out;
  EXPECT_EQ(table.claim("t", out), TransferTable::ClaimStatus::kIncomplete);
  EXPECT_FALSE(table.complete("t"));
  EXPECT_EQ(table.complete_size("t"), std::nullopt);

  // deposit() re-inserts claimed bytes (the undo when admission refuses the
  // job that claimed them).
  table.deposit("back", data);
  EXPECT_TRUE(table.complete("back"));
  EXPECT_EQ(table.claim("back", out), TransferTable::ClaimStatus::kOk);
  EXPECT_EQ(out, data);

  // Abort is idempotent and frees the open transfer.
  ChunkMessage abort;
  abort.type = ChunkType::kAbort;
  abort.transfer = "t";
  EXPECT_TRUE(table.apply(abort).ok);
  EXPECT_EQ(table.reserved_bytes(), 0u);
  EXPECT_TRUE(table.apply(abort).ok);
}

TEST(ForesightdTransfer, ChunkMessageJsonRoundTrip) {
  const std::vector<std::uint8_t> data = pattern_bytes(33);
  const ChunkMessage sent = chunk_data("xfer-7", 3, data);
  const json::Value wire = sent.to_json();
  ASSERT_TRUE(ChunkMessage::is_chunk(wire));
  EXPECT_FALSE(ChunkMessage::is_chunk(sample_request_json()));
  const ChunkMessage parsed = ChunkMessage::parse(wire);
  EXPECT_EQ(parsed.transfer, "xfer-7");
  EXPECT_EQ(parsed.seq, 3u);
  EXPECT_EQ(parsed.crc32, sent.crc32);
  EXPECT_EQ(parsed.payload, data);

  // A begin declaring zero bytes is malformed, not merely refused.
  EXPECT_THROW(ChunkMessage::parse(chunk_begin("t", 0).to_json()), FormatError);
  EXPECT_THROW(ChunkMessage::parse(chunk_begin(std::string(65, 'x'), 8).to_json()),
               FormatError);
}

// ---------------------------------------------------------------------------
// ForesightdProtocolV2 (version negotiation)
// ---------------------------------------------------------------------------

TEST(ForesightdProtocolV2, ParseProtoAcceptsMajorDotMinor) {
  EXPECT_EQ(foresightd::parse_proto("2"), (std::pair<int, int>{2, 0}));
  EXPECT_EQ(foresightd::parse_proto("2.0"), (std::pair<int, int>{2, 0}));
  EXPECT_EQ(foresightd::parse_proto("1.7"), (std::pair<int, int>{1, 7}));
  EXPECT_THROW(foresightd::parse_proto(""), FormatError);
  EXPECT_THROW(foresightd::parse_proto("two"), FormatError);
  EXPECT_THROW(foresightd::parse_proto("2.x"), FormatError);
  EXPECT_THROW(foresightd::parse_proto("-1"), FormatError);
}

TEST(ForesightdProtocolV2, DaemonSpeaksV2AndServesV1) {
  EXPECT_EQ(foresightd::proto_version_string(),
            std::to_string(kProtoMajor) + "." + std::to_string(foresightd::kProtoMinor));
  EXPECT_TRUE(foresightd::proto_major_supported(1));
  EXPECT_TRUE(foresightd::proto_major_supported(kProtoMajor));
  EXPECT_FALSE(foresightd::proto_major_supported(kProtoMajor + 1));
}

TEST(ForesightdProtocolV2, VersionErrorIsStructured) {
  const json::Value v = foresightd::make_version_error(7, 3, 1);
  EXPECT_EQ(v.get("type", std::string()), "error");
  EXPECT_EQ(v.get("error_code", std::string()), "unsupported_version");
  EXPECT_EQ(static_cast<std::uint64_t>(v.get("id", 0.0)), 7u);
  // Carries the daemon's own version so the client can downgrade.
  EXPECT_EQ(v.get("proto", std::string()), foresightd::proto_version_string());

  JobReply reply = JobReply::parse(v);
  EXPECT_EQ(reply.kind, ReplyKind::kError);
  EXPECT_EQ(reply.error_code, "unsupported_version");
}

TEST(ForesightdProtocolV2, TypedRequestsCarryCurrentProto) {
  CompressRequest compress;
  compress.codec = "sz-cpu";
  compress.mode = "abs";
  compress.value = 0.1;
  compress.dataset = foresightd::nyx_dataset(16);
  compress.field = "baryon_density";
  const JobRequest request = compress.to_request(42);
  EXPECT_EQ(request.proto_major, kProtoMajor);
  const JobRequest reparsed = JobRequest::parse(request.to_json());
  EXPECT_EQ(reparsed.proto_major, kProtoMajor);
  EXPECT_EQ(reparsed.id, 42u);
  // Absent proto parses as major 0: the daemon's v1-compatible path.
  EXPECT_EQ(JobRequest::parse(sample_request_json()).proto_major, 0);
}

// ---------------------------------------------------------------------------
// ForesightdDatasetCache (byte-budgeted LRU)
// ---------------------------------------------------------------------------

DatasetCache::Value build_nyx_container(std::size_t dim) {
  return std::make_shared<const io::Container>(
      foresight::build_dataset(foresightd::nyx_dataset(dim)));
}

TEST(ForesightdDatasetCache, CountsHitsAndMisses) {
  DatasetCache cache(1ull << 30);
  int builds = 0;
  const DatasetCache::Builder build = [&] {
    ++builds;
    return build_nyx_container(16);
  };
  const DatasetCache::Value first = cache.get_or_build("a", build);
  const DatasetCache::Value again = cache.get_or_build("a", build);
  EXPECT_EQ(first.get(), again.get());  // same shared container, not a rebuild
  EXPECT_EQ(builds, 1);
  const DatasetCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.resident_bytes, first->payload_bytes());
}

TEST(ForesightdDatasetCache, EvictsByBytesOldestUseFirst) {
  const std::uint64_t one = build_nyx_container(16)->payload_bytes();
  ASSERT_GT(one, 0u);
  // Room for exactly two entries of this size.
  DatasetCache cache(2 * one);
  const DatasetCache::Builder build = [] { return build_nyx_container(16); };
  (void)cache.get_or_build("a", build);
  (void)cache.get_or_build("b", build);
  EXPECT_EQ(cache.stats().entries, 2u);

  // Touch "a" so "b" is the LRU victim when "c" arrives.
  (void)cache.get_or_build("a", build);
  (void)cache.get_or_build("c", build);
  DatasetCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.resident_bytes, 2 * one);

  // "a" survived the eviction, "b" did not.
  (void)cache.get_or_build("a", build);
  EXPECT_EQ(cache.stats().hits, 2u);
  (void)cache.get_or_build("b", build);
  EXPECT_EQ(cache.stats().misses, 4u);  // a, b, c, and the re-miss of b
}

TEST(ForesightdDatasetCache, OversizedEntryReturnedButNeverCached) {
  DatasetCache cache(64);  // smaller than any real container
  int builds = 0;
  const DatasetCache::Builder build = [&] {
    ++builds;
    return build_nyx_container(16);
  };
  const DatasetCache::Value v = cache.get_or_build("huge", build);
  ASSERT_NE(v, nullptr);
  EXPECT_GT(v->payload_bytes(), 64u);
  const DatasetCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.resident_bytes, 0u);
  EXPECT_EQ(stats.evictions, 0u);  // nothing resident was displaced
  (void)cache.get_or_build("huge", build);
  EXPECT_EQ(builds, 2);  // every lookup rebuilds: it can never fit
}

// ---------------------------------------------------------------------------
// ForesightdSessionCache
// ---------------------------------------------------------------------------

const Field& test_field() {
  static const io::Container container = [] {
    json::Object spec;
    spec["type"] = "nyx";
    spec["dim"] = 16;
    spec["seed"] = 42;
    return foresight::build_dataset(json::Value(spec));
  }();
  return container.find("baryon_density").field;
}

TEST(ForesightdSessionCache, ReusesSessionsPerCodec) {
  foresight::SessionCache cache;
  auto& first = cache.session("sz-cpu");
  auto& second = cache.session("sz-cpu");
  EXPECT_EQ(&first, &second);
  EXPECT_EQ(cache.sessions_opened(), 1u);
  (void)cache.session("zfp-cpu");
  EXPECT_EQ(cache.sessions_opened(), 2u);
}

TEST(ForesightdSessionCache, InvalidateReopensAgainstFreshArena) {
  foresight::SessionCache cache;
  auto& before = cache.session("sz-cpu");
  (void)before;
  cache.invalidate();
  EXPECT_EQ(cache.invalidations(), 1u);
  (void)cache.session("sz-cpu");
  EXPECT_EQ(cache.sessions_opened(), 2u);  // reopened after the reset
}

TEST(ForesightdSessionCache, DirtyReuseStreamsStayByteIdentical) {
  const Field& field = test_field();
  const foresight::CompressorConfig config{"abs", 0.1};

  // Clean single-shot reference.
  foresight::SessionCache reference_cache;
  const foresight::CompressResult clean =
      reference_cache.session("sz-cpu").compress(field, config);
  const std::uint32_t clean_crc = crc32(clean.bytes.data(), clean.bytes.size());

  // Fail a job in a long-lived cache: truncate the stream so decompress
  // throws, exactly like an injected corruption in the daemon.
  foresight::SessionCache cache;
  foresight::CompressResult corrupt = cache.session("sz-cpu").compress(field, config);
  EXPECT_EQ(crc32(corrupt.bytes.data(), corrupt.bytes.size()), clean_crc);
  corrupt.bytes.resize(4);
  EXPECT_THROW((void)cache.session("sz-cpu").decompress(corrupt), Error);

  // The daemon's containment step after any failure.
  cache.invalidate();

  // The next job on this worker must see pristine state: byte-identical
  // stream and a working decompress path.
  const foresight::CompressResult after = cache.session("sz-cpu").compress(field, config);
  EXPECT_EQ(after.bytes.size(), clean.bytes.size());
  EXPECT_EQ(crc32(after.bytes.data(), after.bytes.size()), clean_crc);
  const foresight::DecompressResult out = cache.session("sz-cpu").decompress(after);
  EXPECT_EQ(out.values.size(), field.data.size());
}

// ---------------------------------------------------------------------------
// ForesightdDaemon (end-to-end over real sockets)
// ---------------------------------------------------------------------------

std::string test_socket_path(const char* tag) {
  return "/tmp/fsd_gtest_" + std::to_string(::getpid()) + "_" + tag + ".sock";
}

json::Value nyx_spec(std::size_t dim) {
  json::Object spec;
  spec["type"] = "nyx";
  spec["dim"] = dim;
  spec["seed"] = 42;
  return json::Value(std::move(spec));
}

JobRequest roundtrip_request(std::uint64_t id, std::size_t dim = 16) {
  JobRequest request;
  request.type = RequestType::kRoundtrip;
  request.id = id;
  request.codec = "sz-cpu";
  request.mode = "abs";
  request.value = 0.1;
  request.dataset = nyx_spec(dim);
  request.field = "baryon_density";
  return request;
}

/// A sweep heavy enough that it cannot finish inside a small drain budget.
JobRequest slow_sweep_request(std::uint64_t id, std::size_t configs, std::size_t dim) {
  JobRequest request;
  request.type = RequestType::kSweep;
  request.id = id;
  request.codec = "sz-cpu";
  request.dataset = nyx_spec(dim);
  request.field = "baryon_density";
  for (std::size_t i = 0; i < configs; ++i) request.configs.emplace_back("abs", 0.1);
  return request;
}

TEST(ForesightdDaemon, PingReportsLivenessAndShutdownDrains) {
  DaemonOptions options;
  options.socket_path = test_socket_path("ping");
  options.workers = 1;
  Daemon daemon(options);
  daemon.start();
  {
    Client client(options.socket_path);
    const json::Value pong = client.ping();
    EXPECT_EQ(pong.get("type", std::string()), "pong");
    EXPECT_FALSE(pong.get("draining", true));
    const json::Value metrics = client.metrics();
    EXPECT_EQ(metrics.get("type", std::string()), "metrics");
    EXPECT_TRUE(metrics.contains("metrics"));
    (void)client.shutdown();
  }
  daemon.wait();
  EXPECT_EQ(daemon.stats().admitted, 0u);
}

TEST(ForesightdDaemon, RoundtripMatchesSingleShotReference) {
  // Reference stream computed with no daemon involved.
  const foresight::CompressResult reference =
      foresight::SessionCache().session("sz-cpu").compress(test_field(), {"abs", 0.1});
  const std::uint32_t reference_crc = crc32(reference.bytes.data(), reference.bytes.size());

  DaemonOptions options;
  options.socket_path = test_socket_path("roundtrip");
  options.workers = 2;
  Daemon daemon(options);
  daemon.start();
  {
    Client client(options.socket_path);
    const json::Value reply = client.call(roundtrip_request(1).to_json());
    EXPECT_EQ(reply.get("status", std::string()), foresightd::kStatusOk) << reply.dump();
    EXPECT_EQ(static_cast<std::uint32_t>(reply.at("crc32").as_number()), reference_crc);
    EXPECT_EQ(static_cast<std::size_t>(reply.get("compressed_bytes", 0.0)),
              reference.bytes.size());
    EXPECT_TRUE(reply.contains("psnr_db"));
  }
  daemon.request_shutdown();
  daemon.wait();
}

TEST(ForesightdDaemon, ExpiredDeadlineReportsDeadlineStatus) {
  DaemonOptions options;
  options.socket_path = test_socket_path("deadline");
  options.workers = 1;
  Daemon daemon(options);
  daemon.start();
  {
    Client client(options.socket_path);
    JobRequest request = roundtrip_request(5);
    request.deadline_seconds = 1e-9;
    const json::Value reply = client.call(request.to_json());
    EXPECT_EQ(reply.get("status", std::string()), foresightd::kStatusDeadline);
    EXPECT_EQ(static_cast<std::uint64_t>(reply.get("id", 0.0)), 5u);
  }
  daemon.request_shutdown();
  daemon.wait();
  EXPECT_EQ(daemon.stats().deadline, 1u);
}

TEST(ForesightdDaemon, QuotaRejectsSecondOutstandingJob) {
  DaemonOptions options;
  options.socket_path = test_socket_path("quota");
  options.workers = 1;
  options.per_client_quota = 1;
  Daemon daemon(options);
  daemon.start();
  {
    Client client(options.socket_path);
    // Job 1 occupies the worker; job 2 lands while job 1 is outstanding.
    client.send(slow_sweep_request(1, 24, 16).to_json());
    client.send(roundtrip_request(2).to_json());
    const json::Value first = client.recv();  // the quota rejection, answered inline
    EXPECT_EQ(static_cast<std::uint64_t>(first.get("id", 0.0)), 2u);
    EXPECT_EQ(first.get("status", std::string()), foresightd::kStatusRejected);
    EXPECT_EQ(first.get("reason", std::string()), "quota");
    const json::Value second = client.recv();
    EXPECT_EQ(static_cast<std::uint64_t>(second.get("id", 0.0)), 1u);
    EXPECT_EQ(second.get("status", std::string()), foresightd::kStatusOk);
  }
  daemon.request_shutdown();
  daemon.wait();
  EXPECT_EQ(daemon.stats().rejected, 1u);
}

TEST(ForesightdDaemon, QueueFullRejectsOverCapacity) {
  DaemonOptions options;
  options.socket_path = test_socket_path("queuefull");
  options.workers = 1;
  options.queue_capacity = 1;
  Daemon daemon(options);
  daemon.start();
  std::size_t rejected = 0;
  std::size_t responses = 0;
  {
    Client client(options.socket_path);
    for (std::uint64_t id = 1; id <= 3; ++id) {
      client.send(slow_sweep_request(id, 16, 16).to_json());
    }
    for (int i = 0; i < 3; ++i) {
      const json::Value reply = client.recv();
      ++responses;
      const std::string status = reply.get("status", std::string());
      if (status == foresightd::kStatusRejected) {
        EXPECT_EQ(reply.get("reason", std::string()), "queue_full");
        ++rejected;
      } else {
        EXPECT_EQ(status, foresightd::kStatusOk);
      }
    }
  }
  EXPECT_EQ(responses, 3u);
  // Capacity 1 with three back-to-back submissions must shed at least one.
  EXPECT_GE(rejected, 1u);
  daemon.request_shutdown();
  daemon.wait();
  const Daemon::Stats stats = daemon.stats();
  EXPECT_EQ(stats.admitted, stats.ok + stats.failed + stats.cancelled + stats.deadline);
}

TEST(ForesightdDaemon, DrainRejectsNewWorkAndCancelsOnBudget) {
  DaemonOptions options;
  options.socket_path = test_socket_path("drain");
  options.workers = 1;
  options.drain_budget_seconds = 0.05;
  Daemon daemon(options);
  daemon.start();
  {
    Client loader(options.socket_path);
    Client prober(options.socket_path);  // opened pre-drain: listen closes at drain
    loader.send(slow_sweep_request(1, 256, 32).to_json());
    while (daemon.stats().admitted < 1) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    daemon.request_shutdown();
    while (!prober.ping().get("draining", false)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    // New work after the drain started: rejected, never queued.
    const json::Value late = prober.call(roundtrip_request(9).to_json());
    EXPECT_EQ(late.get("status", std::string()), foresightd::kStatusRejected);
    EXPECT_EQ(late.get("reason", std::string()), "draining");
    // The in-flight sweep still gets its one answer: cancelled when the
    // 50 ms budget expires long before 256 configs can finish.
    const json::Value reply = loader.recv();
    EXPECT_EQ(static_cast<std::uint64_t>(reply.get("id", 0.0)), 1u);
    EXPECT_EQ(reply.get("status", std::string()), foresightd::kStatusCancelled);
  }
  daemon.wait();
  const Daemon::Stats stats = daemon.stats();
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.admitted, stats.ok + stats.failed + stats.cancelled + stats.deadline);
}

TEST(ForesightdDaemon, ProtocolErrorClosesOnlyTheOffendingConnection) {
  DaemonOptions options;
  options.socket_path = test_socket_path("proto");
  options.workers = 1;
  Daemon daemon(options);
  daemon.start();
  {
    // Raw socket speaking garbage: a zero-length frame header.
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, options.socket_path.c_str(), sizeof(addr.sun_path) - 1);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    const std::uint8_t zeros[4] = {0, 0, 0, 0};
    ASSERT_EQ(::send(fd, zeros, 4, 0), 4);
    // The daemon answers with an error frame and hangs up on us.
    std::uint8_t buf[256];
    while (::recv(fd, buf, sizeof(buf), 0) > 0) {
    }
    ::close(fd);

    // A well-behaved client is unaffected.
    Client client(options.socket_path);
    EXPECT_EQ(client.ping().get("type", std::string()), "pong");
    const json::Value reply = client.call(roundtrip_request(3).to_json());
    EXPECT_EQ(reply.get("status", std::string()), foresightd::kStatusOk);
  }
  daemon.request_shutdown();
  daemon.wait();
  EXPECT_GE(daemon.stats().protocol_errors, 1u);
}

// ---------------------------------------------------------------------------
// ForesightdStreaming (chunked transfers + TCP, end-to-end)
// ---------------------------------------------------------------------------

bool poll_until(double timeout_seconds, const std::function<bool()>& cond) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(static_cast<long>(timeout_seconds * 1000));
  while (std::chrono::steady_clock::now() < deadline) {
    if (cond()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return cond();
}

/// Daemon wired for streaming tests: TCP enabled on an ephemeral port and a
/// response_stream_threshold of 1 so even tiny compress results stream back
/// to v2 clients.
DaemonOptions streaming_options(const char* tag) {
  DaemonOptions options;
  options.socket_path = test_socket_path(tag);
  options.tcp_port = 0;
  options.workers = 1;
  options.response_stream_threshold = 1;
  return options;
}

CompressRequest inline_compress_request(const std::string& transfer, const Dims& dims) {
  CompressRequest request;
  request.codec = "sz-cpu";
  request.mode = "abs";
  request.value = 0.1;
  request.dataset = inline_dataset(transfer, dims);
  request.field = "baryon_density";
  request.return_bytes = true;
  return request;
}

TEST(ForesightdStreaming, HelloAdvertisesLimitsOnBothTransports) {
  const DaemonOptions options = streaming_options("hello");
  Daemon daemon(options);
  daemon.start();
  ASSERT_GT(daemon.bound_tcp_port(), 0);
  for (const std::string endpoint :
       {options.socket_path, "tcp:127.0.0.1:" + std::to_string(daemon.bound_tcp_port())}) {
    Client client(endpoint);
    const HelloReply hello = client.hello();
    EXPECT_EQ(hello.proto_major, kProtoMajor) << endpoint;
    EXPECT_EQ(hello.max_frame_bytes, kMaxFrameBytes);
    EXPECT_EQ(hello.max_transfer_bytes, options.transfer_limits.max_transfer_bytes);
    EXPECT_EQ(hello.transfer_budget_bytes, options.transfer_limits.budget_bytes);
    EXPECT_GT(hello.chunk_bytes, 0u);
    EXPECT_FALSE(hello.draining);
  }
  daemon.request_shutdown();
  daemon.wait();
}

TEST(ForesightdStreaming, TcpAndUnixStreamedResponsesByteIdentical) {
  const Field& field = test_field();
  const foresight::CompressResult reference =
      foresight::SessionCache().session("sz-cpu").compress(field, {"abs", 0.1});

  const DaemonOptions options = streaming_options("xport");
  Daemon daemon(options);
  daemon.start();
  std::vector<std::vector<std::uint8_t>> streams;
  for (const std::string endpoint :
       {options.socket_path, "tcp:127.0.0.1:" + std::to_string(daemon.bound_tcp_port())}) {
    Client client(endpoint);
    // Upload the raw field, then compress it as an inline dataset. The
    // result streams back (threshold 1) and recv_reply reassembles it.
    const Client::UploadResult up = client.upload(
        "f", reinterpret_cast<const std::uint8_t*>(field.data.data()), field.bytes());
    ASSERT_TRUE(up.ok) << endpoint << ": " << up.reason;
    EXPECT_EQ(up.received_bytes, field.bytes());
    const JobReply reply =
        client.call_reply(inline_compress_request("f", field.dims).to_request(1));
    ASSERT_TRUE(reply.ok()) << endpoint << ": " << reply.raw.dump();
    EXPECT_FALSE(reply.payload_transfer.empty()) << "expected a streamed payload";
    EXPECT_EQ(reply.payload, reference.bytes) << endpoint;
    streams.push_back(reply.payload);
  }
  ASSERT_EQ(streams.size(), 2u);
  EXPECT_EQ(streams[0], streams[1]);  // AF_UNIX and TCP: byte-identical
  daemon.request_shutdown();
  daemon.wait();
  EXPECT_EQ(daemon.stats().transfer_reserved_bytes, 0);
}

TEST(ForesightdStreaming, V1InlinePayloadMatchesV2Stream) {
  const DaemonOptions options = streaming_options("compat");
  Daemon daemon(options);
  daemon.start();
  {
    CompressRequest request;
    request.codec = "sz-cpu";
    request.mode = "abs";
    request.value = 0.1;
    request.dataset = foresightd::nyx_dataset(16);
    request.field = "baryon_density";
    request.return_bytes = true;

    // A v2 client gets the payload as a stream (threshold 1 forces it).
    Client v2(options.socket_path);
    const JobReply streamed = v2.call_reply(request.to_request(1));
    ASSERT_TRUE(streamed.ok()) << streamed.raw.dump();
    EXPECT_FALSE(streamed.payload_transfer.empty());
    ASSERT_FALSE(streamed.payload.empty());

    // The same request without a proto field takes the v1 path: the payload
    // is inlined in the result frame, byte-equal to the v2 stream.
    Client v1(options.socket_path);
    JobRequest old = request.to_request(2);
    old.proto_major = 0;
    old.proto_minor = 0;
    const JobReply inlined = JobReply::parse(v1.call(old.to_json()));
    ASSERT_TRUE(inlined.ok()) << inlined.raw.dump();
    EXPECT_TRUE(inlined.payload_transfer.empty());
    EXPECT_FALSE(inlined.payload_omitted);
    EXPECT_EQ(inlined.payload, streamed.payload);

    // A future major is refused with a structured error naming the
    // daemon's own version.
    Client future(options.socket_path);
    json::Value frame = request.to_request(3).to_json();
    frame.as_object()["proto"] = "3.0";
    const JobReply refused = JobReply::parse(future.call(frame));
    EXPECT_EQ(refused.kind, ReplyKind::kError);
    EXPECT_EQ(refused.error_code, "unsupported_version");
    EXPECT_EQ(refused.raw.get("proto", std::string()),
              foresightd::proto_version_string());
  }
  daemon.request_shutdown();
  daemon.wait();
}

TEST(ForesightdStreaming, JobReferencingMissingTransferIsRejected) {
  const DaemonOptions options = streaming_options("missing");
  Daemon daemon(options);
  daemon.start();
  {
    Client client(options.socket_path);
    const JobReply reply = client.call_reply(
        inline_compress_request("ghost", Dims::d3(16, 16, 16)).to_request(4));
    EXPECT_EQ(reply.status, foresightd::kStatusRejected) << reply.raw.dump();
    EXPECT_EQ(reply.reason, "transfer_missing");
  }
  daemon.request_shutdown();
  daemon.wait();
  EXPECT_EQ(daemon.stats().rejected, 1u);
}

TEST(ForesightdStreaming, MidTransferDisconnectFreesReservedBytes) {
  const DaemonOptions options = streaming_options("hangup");
  Daemon daemon(options);
  daemon.start();
  {
    Client dropper(options.socket_path);
    ChunkMessage begin;
    begin.type = ChunkType::kBegin;
    begin.transfer = "doomed";
    begin.total_bytes = 1u << 20;
    dropper.send(begin.to_json());
    const std::vector<std::uint8_t> slice = pattern_bytes(64 * 1024);
    dropper.send(chunk_data("doomed", 0, slice).to_json());
    ASSERT_TRUE(poll_until(10.0, [&] {
      return daemon.stats().transfer_reserved_bytes >= (1 << 20);
    }));
  }  // disconnect mid-transfer: the whole table goes with the connection
  EXPECT_TRUE(poll_until(10.0, [&] {
    return daemon.stats().transfer_reserved_bytes == 0;
  }));
  daemon.request_shutdown();
  daemon.wait();
  EXPECT_EQ(daemon.stats().transfers_completed, 0u);
}

TEST(ForesightdStreaming, AbandonedTransferReapedThenJobRejected) {
  DaemonOptions options = streaming_options("reap");
  options.transfer_idle_seconds = 0.05;
  Daemon daemon(options);
  daemon.start();
  {
    Client idler(options.socket_path);
    ChunkMessage begin;
    begin.type = ChunkType::kBegin;
    begin.transfer = "idle";
    begin.total_bytes = 1u << 20;
    idler.send(begin.to_json());
    const JobReply ack = idler.recv_reply();
    ASSERT_EQ(ack.kind, ReplyKind::kChunkAck);
    ASSERT_TRUE(ack.chunk_ok);
    // Silence: the IO-thread reaper drops the transfer and frees its budget.
    ASSERT_TRUE(poll_until(10.0, [&] {
      const Daemon::Stats stats = daemon.stats();
      return stats.transfers_reaped >= 1 && stats.transfer_reserved_bytes == 0;
    }));
    // A job naming the reaped transfer is refused, not hung.
    const JobReply reply = idler.call_reply(
        inline_compress_request("idle", Dims::d3(64, 64, 64)).to_request(5));
    EXPECT_EQ(reply.status, foresightd::kStatusRejected) << reply.raw.dump();
    EXPECT_EQ(reply.reason, "transfer_missing");
  }
  daemon.request_shutdown();
  daemon.wait();
}

}  // namespace
}  // namespace cosmo
