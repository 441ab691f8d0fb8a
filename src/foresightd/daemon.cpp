#include "foresightd/daemon.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>

#include "analysis/stats.hpp"
#include "common/error.hpp"
#include "common/telemetry.hpp"
#include "foresight/cbench.hpp"
#include "foresight/pipeline.hpp"
#include "foresight/session_cache.hpp"
#include "gpu/sim.hpp"
#include "io/crc32.hpp"

namespace cosmo::foresightd {

namespace {

/// Outbound sends block at most this long before the connection is declared
/// dead; a worker must never hang forever on a client that stopped reading.
constexpr double kSendTimeoutSeconds = 5.0;

constexpr const char* kMetricPrefix = "foresightd.";

void set_timeout(int fd, int option, double seconds) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(seconds);
  tv.tv_usec = static_cast<suseconds_t>((seconds - static_cast<double>(tv.tv_sec)) * 1e6);
  ::setsockopt(fd, SOL_SOCKET, option, &tv, sizeof(tv));
}

telemetry::Counter& counter(const std::string& suffix) {
  return telemetry::MetricsRegistry::instance().counter(kMetricPrefix + suffix);
}

}  // namespace

/// One accepted connection (AF_UNIX or TCP — identical from here on). The
/// IO thread owns reads; any thread may send a response under write_mu. The
/// fd is closed by the destructor, so a worker holding a shared_ptr past
/// the IO thread's erase can still answer safely (the send fails cleanly
/// instead of racing a reused descriptor). The TransferTable dies with the
/// connection, so a mid-transfer disconnect frees its reassembly buffers —
/// and the daemon-wide reserved-bytes gauge — automatically.
struct Daemon::Conn {
  Conn(TransferLimits limits, std::atomic<std::int64_t>* reserved_gauge)
      : transfers(limits, reserved_gauge) {}
  ~Conn() {
    if (fd >= 0) ::close(fd);
  }
  int fd = -1;
  std::uint64_t id = 0;
  FrameParser parser;
  TransferTable transfers;
  std::mutex write_mu;
  std::atomic<bool> open{true};
  /// Monotonic nanoseconds of the last input read. The transfer reaper
  /// skips connections with recent input: a large chunk frame can take
  /// seconds to arrive and parse, and its transfer must not be declared
  /// idle while the bytes are still flowing.
  std::atomic<std::int64_t> last_input_ns{monotonic_ns()};

  static std::int64_t monotonic_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }
};

Daemon::Daemon(DaemonOptions options)
    : options_(std::move(options)),
      queue_({.capacity = options_.queue_capacity,
              .per_client_quota = options_.per_client_quota,
              .priorities = options_.priorities}),
      dataset_cache_(options_.dataset_cache_bytes) {
  require(!options_.socket_path.empty(), "foresightd: socket_path is required");
  if (options_.workers == 0) options_.workers = 1;
}

Daemon::~Daemon() {
  if (started_ && !finished_) {
    request_shutdown();
    wait();
  }
  for (const int fd : wake_fds_) {
    if (fd >= 0) ::close(fd);
  }
}

void Daemon::start() {
  require(!started_, "foresightd: start() called twice");

  if (options_.faults) {
    fault_plan_ = std::make_unique<fault::FaultPlan>(*options_.faults);
    fault_scope_.emplace(*fault_plan_);
  }

  if (::pipe(wake_fds_) != 0) {
    throw IoError("foresightd: pipe() failed: " + std::string(std::strerror(errno)));
  }
  ::fcntl(wake_fds_[0], F_SETFL, O_NONBLOCK);
  ::fcntl(wake_fds_[1], F_SETFL, O_NONBLOCK);

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw IoError("foresightd: socket() failed: " + std::string(std::strerror(errno)));
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  require(options_.socket_path.size() < sizeof(addr.sun_path),
          "foresightd: socket path too long: " + options_.socket_path);
  std::strncpy(addr.sun_path, options_.socket_path.c_str(), sizeof(addr.sun_path) - 1);
  ::unlink(options_.socket_path.c_str());
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 128) != 0) {
    const std::string why = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw IoError("foresightd: cannot listen on " + options_.socket_path + ": " + why);
  }
  ::fcntl(listen_fd_, F_SETFL, O_NONBLOCK);

  if (options_.tcp_port >= 0) {
    tcp_listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (tcp_listen_fd_ < 0) {
      throw IoError("foresightd: tcp socket() failed: " +
                    std::string(std::strerror(errno)));
    }
    const int one = 1;
    ::setsockopt(tcp_listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in tcp_addr{};
    tcp_addr.sin_family = AF_INET;
    tcp_addr.sin_port = htons(static_cast<std::uint16_t>(options_.tcp_port));
    if (::inet_pton(AF_INET, options_.tcp_host.c_str(), &tcp_addr.sin_addr) != 1) {
      ::close(tcp_listen_fd_);
      tcp_listen_fd_ = -1;
      throw IoError("foresightd: bad tcp_host '" + options_.tcp_host +
                    "' (numeric IPv4 required)");
    }
    if (::bind(tcp_listen_fd_, reinterpret_cast<const sockaddr*>(&tcp_addr),
               sizeof(tcp_addr)) != 0 ||
        ::listen(tcp_listen_fd_, 128) != 0) {
      const std::string why = std::strerror(errno);
      ::close(tcp_listen_fd_);
      tcp_listen_fd_ = -1;
      throw IoError("foresightd: cannot listen on tcp:" + options_.tcp_host + ":" +
                    std::to_string(options_.tcp_port) + ": " + why);
    }
    sockaddr_in bound{};
    socklen_t bound_len = sizeof(bound);
    if (::getsockname(tcp_listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                      &bound_len) == 0) {
      tcp_port_bound_ = static_cast<int>(ntohs(bound.sin_port));
    }
    ::fcntl(tcp_listen_fd_, F_SETFL, O_NONBLOCK);
  }

  started_ = true;
  live_workers_.store(options_.workers);
  for (std::size_t i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
  watchdog_ = std::thread([this] { watchdog_loop(); });
  io_thread_ = std::thread([this] { io_loop(); });
}

void Daemon::wait() {
  require(started_, "foresightd: wait() before start()");
  if (finished_) return;
  io_thread_.join();
  for (auto& w : workers_) w.join();
  watchdog_.join();
  ::unlink(options_.socket_path.c_str());
  if (!options_.metrics_out.empty()) {
    std::ofstream out(options_.metrics_out, std::ios::trunc);
    if (out.good()) out << telemetry::MetricsRegistry::instance().to_json();
  }
  finished_ = true;
}

void Daemon::request_shutdown() {
  if (wake_fds_[1] < 0) return;
  const char byte = 's';
  // EAGAIN just means a wake-up is already pending; any write result is fine.
  [[maybe_unused]] const auto n = ::write(wake_fds_[1], &byte, 1);
}

Daemon::Stats Daemon::stats() const {
  Stats s;
  s.admitted = admitted_.load();
  s.rejected = rejected_.load();
  s.ok = ok_.load();
  s.failed = failed_.load();
  s.cancelled = cancelled_.load();
  s.deadline = deadline_.load();
  s.protocol_errors = protocol_errors_.load();
  s.queue_high_water = queue_.high_water();
  s.transfers_completed = transfers_completed_.load();
  s.transfers_reaped = transfers_reaped_.load();
  s.transfer_reserved_bytes = transfer_reserved_.load();
  s.dataset_cache = dataset_cache_.stats();
  return s;
}

// ---------------------------------------------------------------------------
// IO thread
// ---------------------------------------------------------------------------

bool Daemon::send_json(Conn& conn, const json::Value& v) {
  if (!conn.open.load(std::memory_order_relaxed)) return false;
  const std::vector<std::uint8_t> frame = encode_frame(v);
  std::lock_guard<std::mutex> lock(conn.write_mu);
  std::size_t sent = 0;
  while (sent < frame.size()) {
    const ssize_t n =
        ::send(conn.fd, frame.data() + sent, frame.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      // Peer gone or send-timeout expired: the connection is dead. Drop the
      // response — the contract is one *attempted* answer per request.
      conn.open.store(false, std::memory_order_relaxed);
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

void Daemon::io_loop() {
  std::map<int, std::shared_ptr<Conn>> conns;
  std::uint64_t next_client = 1;
  bool accepting = true;
  std::vector<std::uint8_t> buf(64 * 1024);
  Timer reap_timer;
  telemetry::Counter& accepted_metric = counter("connections");

  // Both listeners feed the same accept path; a connection's transport is
  // invisible past this point.
  const auto accept_from = [&](int listen_fd, bool tcp) {
    for (;;) {
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) break;
      set_timeout(fd, SO_SNDTIMEO, kSendTimeoutSeconds);
      if (tcp) {
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      }
      auto conn = std::make_shared<Conn>(options_.transfer_limits, &transfer_reserved_);
      conn->fd = fd;
      conn->id = next_client++;
      {
        std::lock_guard<std::mutex> lock(conns_mu_);
        conn_registry_.push_back(conn);
      }
      conns.emplace(fd, std::move(conn));
      accepted_metric.add();
    }
  };
  const auto close_listeners = [&] {
    accepting = false;
    ::close(listen_fd_);
    listen_fd_ = -1;
    if (tcp_listen_fd_ >= 0) {
      ::close(tcp_listen_fd_);
      tcp_listen_fd_ = -1;
    }
  };

  for (;;) {
    const bool had_listen = accepting;
    const bool had_tcp = accepting && tcp_listen_fd_ >= 0;
    std::vector<pollfd> fds;
    fds.push_back({wake_fds_[0], POLLIN, 0});
    if (had_listen) fds.push_back({listen_fd_, POLLIN, 0});
    if (had_tcp) fds.push_back({tcp_listen_fd_, POLLIN, 0});
    for (const auto& [fd, conn] : conns) fds.push_back({fd, POLLIN, 0});

    // The timeout makes drain completion (workers_done_) observable even
    // with no socket activity.
    if (::poll(fds.data(), fds.size(), 50) < 0 && errno != EINTR) {
      // poll itself failing is unrecoverable for the IO thread; make sure
      // the workers still drain so wait() terminates.
      if (accepting) close_listeners();
      begin_drain();
      break;
    }

    std::size_t idx = 0;
    if (fds[idx++].revents & POLLIN) {  // wake pipe: drain it, start draining
      char sink[64];
      while (::read(wake_fds_[0], sink, sizeof(sink)) > 0) {
      }
      if (accepting) {
        close_listeners();
        begin_drain();
      }
    }
    if (had_listen) {
      if (accepting && (fds[idx].revents & POLLIN)) accept_from(listen_fd_, false);
      ++idx;
    }
    if (had_tcp) {
      if (accepting && (fds[idx].revents & POLLIN)) accept_from(tcp_listen_fd_, true);
      ++idx;
    }

    std::vector<int> dead;
    for (; idx < fds.size(); ++idx) {
      if ((fds[idx].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      const auto it = conns.find(fds[idx].fd);
      if (it == conns.end()) continue;
      const std::shared_ptr<Conn>& conn = it->second;
      const ssize_t n = ::recv(conn->fd, buf.data(), buf.size(), 0);
      if (n <= 0) {
        if (n < 0 && (errno == EINTR || errno == EAGAIN)) continue;
        conn->open.store(false, std::memory_order_relaxed);
        dead.push_back(fds[idx].fd);
        continue;
      }
      try {
        conn->last_input_ns.store(Conn::monotonic_ns(), std::memory_order_relaxed);
        conn->parser.feed(buf.data(), static_cast<std::size_t>(n));
        while (auto frame = conn->parser.next()) handle_frame(conn, *frame);
      } catch (const Error& e) {
        // Framing is lost (bad length or bad JSON): answer once, hang up.
        protocol_errors_.fetch_add(1);
        counter("protocol_errors").add();
        send_json(*conn, make_error(e.what()));
        conn->open.store(false, std::memory_order_relaxed);
        dead.push_back(fds[idx].fd);
      }
    }
    for (const int fd : dead) conns.erase(fd);

    // Reap abandoned transfers from the IO thread: it is the only frame
    // processor, so a reap can never land mid-parse of a chunk, and
    // between-iteration quiet time is real socket silence (not the
    // seconds a multi-megabyte frame spends being decoded).
    if (reap_timer.seconds() > 0.25) {
      reap_transfers();
      reap_timer.reset();
    }

    if (!accepting) {
      std::lock_guard<std::mutex> lock(state_mu_);
      if (workers_done_) break;
    }
  }
  conns.clear();  // destructors close the fds workers are no longer using
}

void Daemon::handle_chunk(const std::shared_ptr<Conn>& conn, const json::Value& frame) {
  if (queue_.draining()) {
    // New transfer traffic is refused during drain; transfers referenced
    // by already-admitted jobs stay claimable (the table is untouched).
    TransferTable::Ack ack;
    ack.transfer = frame.get("transfer", std::string("?"));
    ack.ok = false;
    ack.reason = "draining";
    counter("rejected.draining").add();
    send_json(*conn, make_chunk_ack(ack));
    return;
  }
  const ChunkMessage m = ChunkMessage::parse(frame);  // FormatError → caller
  const TransferTable::Ack ack = conn->transfers.apply(m);
  if (ack.completed) {
    transfers_completed_.fetch_add(1);
    counter("transfers_completed").add();
  }
  if (!ack.ok && ack.send) counter("transfers_failed").add();
  telemetry::MetricsRegistry::instance()
      .gauge("foresightd.transfer_reserved_bytes")
      .set(transfer_reserved_.load());
  if (ack.send) send_json(*conn, make_chunk_ack(ack));
}

void Daemon::handle_frame(const std::shared_ptr<Conn>& conn, const json::Value& frame) {
  if (ChunkMessage::is_chunk(frame)) {
    try {
      handle_chunk(conn, frame);
    } catch (const Error& e) {
      // The chunk message itself was malformed (bad base64, bad fields).
      // Framing survived, so answer and keep the connection.
      counter("bad_requests").add();
      send_json(*conn, make_error(e.what()));
    }
    return;
  }

  JobRequest request;
  try {
    request = JobRequest::parse(frame);
  } catch (const Error& e) {
    // Framing survived; only this request is bad. Answer and keep the
    // connection.
    counter("bad_requests").add();
    send_json(*conn, make_error(e.what()));
    return;
  }

  if (request.proto_major != 0 && !proto_major_supported(request.proto_major)) {
    counter("unsupported_version").add();
    send_json(*conn,
              make_version_error(request.id, request.proto_major, request.proto_minor));
    return;
  }

  if (is_job_request(request.type)) {
    admit_job(conn, std::move(request));
    return;
  }

  json::Object reply;
  if (request.id != 0) reply["id"] = static_cast<double>(request.id);
  switch (request.type) {
    case RequestType::kPing:
      reply["type"] = "pong";
      reply["proto"] = proto_version_string();
      reply["draining"] = queue_.draining();
      break;
    case RequestType::kHello:
      reply["type"] = "hello";
      reply["proto"] = proto_version_string();
      reply["max_frame_bytes"] = static_cast<double>(kMaxFrameBytes);
      reply["chunk_bytes"] = static_cast<double>(options_.stream_chunk_bytes);
      reply["max_transfer_bytes"] =
          static_cast<double>(options_.transfer_limits.max_transfer_bytes);
      reply["transfer_budget_bytes"] =
          static_cast<double>(options_.transfer_limits.budget_bytes);
      {
        json::Array transports;
        transports.push_back(json::Value(std::string("unix")));
        if (tcp_port_bound_ >= 0) transports.push_back(json::Value(std::string("tcp")));
        reply["transports"] = std::move(transports);
      }
      reply["draining"] = queue_.draining();
      break;
    case RequestType::kMetrics:
      reply["type"] = "metrics";
      reply["metrics"] = json::parse(telemetry::MetricsRegistry::instance().to_json());
      break;
    case RequestType::kShutdown:
      reply["type"] = "ok";
      request_shutdown();
      break;
    default:
      reply = make_error("unhandled control request").as_object();
      break;
  }
  send_json(*conn, json::Value(std::move(reply)));
}

void Daemon::admit_job(const std::shared_ptr<Conn>& conn, JobRequest request) {
  const std::uint64_t request_id = request.id;
  const int priority = request.priority;

  // Transfer-backed inputs must be fully reassembled before admission: a
  // job never waits in the queue for bytes that may not arrive. The peek
  // leaves the transfer in place — the worker claims the bytes when it
  // actually executes, so a queue_full rejection costs nothing re-uploadable.
  const auto reject = [&](const char* reason) {
    rejected_.fetch_add(1);
    counter(std::string("rejected.") + reason).add();
    send_json(*conn, make_rejection(request_id, reason));
  };
  std::string transfer_ref = request.payload_transfer;
  std::uint64_t expected_bytes = 0;
  if (request.type != RequestType::kDecompress && request.dataset.is_object() &&
      request.dataset.get("type", std::string()) == "inline") {
    transfer_ref = request.dataset.get("transfer", std::string());
    try {
      require_format(!transfer_ref.empty() && transfer_ref.size() <= kMaxTransferIdChars,
                     "protocol: inline dataset missing transfer id");
      expected_bytes = inline_dims(request.dataset).count() * sizeof(float);
    } catch (const Error& e) {
      counter("bad_requests").add();
      send_json(*conn, make_error(e.what()));
      return;
    }
  }
  if (!transfer_ref.empty()) {
    const auto size = conn->transfers.complete_size(transfer_ref);
    if (!size) {
      reject(conn->transfers.contains(transfer_ref) ? "transfer_incomplete"
                                                    : "transfer_missing");
      return;
    }
    if (expected_bytes != 0 && *size != expected_bytes) {
      reject("transfer_size_mismatch");
      return;
    }
  }

  Job job;
  job.request = std::move(request);
  job.conn = conn;
  job.client = conn->id;
  job.seq = next_job_seq_++;
  const double deadline = job.request.deadline_seconds > 0
                              ? job.request.deadline_seconds
                              : options_.default_deadline_seconds;
  job.token = deadline > 0 ? CancelToken::with_deadline(deadline) : CancelToken();
  job.queued.reset();

  {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    inflight_.emplace(job.seq, job.token);
  }
  const std::uint64_t seq = job.seq;
  const Admission admission = queue_.try_push(std::move(job), conn->id, priority);
  if (admission == Admission::kAccepted) {
    admitted_.fetch_add(1);
    counter("admitted").add();
    telemetry::MetricsRegistry::instance()
        .gauge("foresightd.queue_depth")
        .set(static_cast<std::int64_t>(queue_.size()));
    return;
  }
  {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    inflight_.erase(seq);
  }
  rejected_.fetch_add(1);
  counter(std::string("rejected.") + admission_name(admission)).add();
  send_json(*conn, make_rejection(request_id, admission_name(admission)));
}

// ---------------------------------------------------------------------------
// Drain
// ---------------------------------------------------------------------------

void Daemon::begin_drain() {
  queue_.close();
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    drain_started_ = true;
  }
  done_cv_.notify_all();
}

void Daemon::cancel_inflight() {
  std::lock_guard<std::mutex> lock(inflight_mu_);
  for (auto& [seq, token] : inflight_) token.cancel();
}

void Daemon::reap_transfers() {
  std::lock_guard<std::mutex> lock(conns_mu_);
  std::size_t reaped = 0;
  const std::int64_t idle_ns =
      static_cast<std::int64_t>(options_.transfer_idle_seconds * 1e9);
  auto it = conn_registry_.begin();
  while (it != conn_registry_.end()) {
    if (const std::shared_ptr<Conn> conn = it->lock()) {
      // Only connections with no recent input can hold abandoned
      // transfers; anything still sending is mid-chunk, not idle.
      const std::int64_t quiet =
          Conn::monotonic_ns() - conn->last_input_ns.load(std::memory_order_relaxed);
      if (quiet > idle_ns) {
        reaped += conn->transfers.reap_idle(options_.transfer_idle_seconds);
      }
      ++it;
    } else {
      it = conn_registry_.erase(it);  // connection gone; its table died with it
    }
  }
  if (reaped > 0) {
    transfers_reaped_.fetch_add(reaped);
    counter("transfers_reaped").add(reaped);
  }
  telemetry::MetricsRegistry::instance()
      .gauge("foresightd.transfer_reserved_bytes")
      .set(transfer_reserved_.load());
}

void Daemon::watchdog_loop() {
  std::unique_lock<std::mutex> lock(state_mu_);
  done_cv_.wait(lock, [&] { return drain_started_ || workers_done_; });
  if (workers_done_) return;
  const auto budget = std::chrono::duration<double>(options_.drain_budget_seconds);
  if (!done_cv_.wait_for(lock, budget, [&] { return workers_done_; })) {
    // Budget spent: cooperative cancellation. Each still-running job
    // observes its token at the next stage boundary and reports
    // "cancelled"; still-queued jobs are popped, fail their first check,
    // and report "cancelled" too — one status each, always.
    lock.unlock();
    counter("drain_budget_expired").add();
    cancel_inflight();
    lock.lock();
    done_cv_.wait(lock, [&] { return workers_done_; });
  }
}

// ---------------------------------------------------------------------------
// Workers
// ---------------------------------------------------------------------------

void Daemon::worker_loop(std::size_t index) {
  // Per-worker simulator + session cache: sessions are not thread-safe, so
  // worker isolation is structural. Distinct seeds decorrelate the modeled
  // timing jitter; compressed streams are seed-independent.
  gpu::GpuSimulator sim(gpu::find_device(options_.gpu), 1234 + index);
  foresight::SessionCache cache(&sim);

  for (;;) {
    // Scoped per job: the conn/token refs are released before blocking in
    // the next pop().
    Job job;
    if (!queue_.pop(job)) break;
    execute_job(job, cache);
  }
  if (live_workers_.fetch_sub(1) == 1) {
    {
      std::lock_guard<std::mutex> lock(state_mu_);
      workers_done_ = true;
    }
    done_cv_.notify_all();
  }
}

void Daemon::execute_job(Job& job, foresight::SessionCache& cache) {
  auto& registry = telemetry::MetricsRegistry::instance();
  const double wait_seconds = job.queued.seconds();
  registry.histogram("foresightd.queue_wait_seconds").observe_seconds(wait_seconds);
  registry.gauge("foresightd.queue_depth").set(static_cast<std::int64_t>(queue_.size()));

  json::Object reply;
  reply["type"] = "result";
  if (job.request.id != 0) reply["id"] = static_cast<double>(job.request.id);
  reply["job"] = request_type_name(job.request.type);
  reply["queue_wait_seconds"] = wait_seconds;

  const char* status = kStatusOk;
  std::string error;
  try {
    TRACE_SPAN("foresightd.job");
    job.token.check("admission");
    run_job(job, cache, reply);
    job.token.check("respond");
  } catch (const CancelledError& e) {
    status = kStatusCancelled;
    error = e.what();
  } catch (const DeadlineExceededError& e) {
    status = kStatusDeadline;
    error = e.what();
  } catch (const std::exception& e) {
    // Any other throw — a cosmo::Error or not — fails this job alone; it
    // must never escape the worker thread and take the process down.
    status = kStatusFailed;
    error = e.what();
  }
  if (status != kStatusOk) {
    // Containment: whatever state the aborted job left in this worker's
    // sessions/arena dies here, not in the next job.
    cache.invalidate();
  }

  reply["status"] = status;
  if (!error.empty()) reply["error"] = error;

  if (status == kStatusOk) {
    ok_.fetch_add(1);
  } else if (status == kStatusCancelled) {
    cancelled_.fetch_add(1);
  } else if (status == kStatusDeadline) {
    deadline_.fetch_add(1);
  } else {
    failed_.fetch_add(1);
  }
  counter(std::string("status.") + status).add();

  {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    inflight_.erase(job.seq);
  }
  queue_.release(job.client);
  send_json(*job.conn, json::Value(std::move(reply)));
}

// ---------------------------------------------------------------------------
// Job execution
// ---------------------------------------------------------------------------

std::shared_ptr<const io::Container> Daemon::dataset_for(const json::Value& spec) {
  // A generated field faces the same ceiling as an uploaded one.
  return dataset_cache_.get_or_build(spec.dump(), [&] {
    return std::make_shared<const io::Container>(foresight::build_dataset(
        spec, options_.transfer_limits.max_transfer_bytes));
  });
}

namespace {

std::uint32_t bytes_crc(const std::vector<std::uint8_t>& bytes) {
  return crc32(bytes.data(), bytes.size());
}

std::uint32_t values_crc(const std::vector<float>& values) {
  return crc32(reinterpret_cast<const std::uint8_t*>(values.data()),
               values.size() * sizeof(float));
}

/// The reply keys of one CBench roundtrip. crc32 and compressed_bytes
/// describe the clean stream (pre-corruption), which is what single-shot
/// byte-identity comparisons want.
void put_roundtrip(const foresight::CBenchResult& r, json::Object& out) {
  out["compressed_bytes"] = r.compressed_bytes;
  out["original_bytes"] = r.original_bytes;
  out["ratio"] = r.ratio;
  out["crc32"] = static_cast<double>(r.stream_crc32);
  out["compress_seconds"] = r.compress.seconds;
  out["corrupted"] = r.corrupted;
  out["decompress_seconds"] = r.decompress.seconds;
  out["psnr_db"] = r.distortion.psnr_db;
  out["max_abs_err"] = r.distortion.max_abs_err;
  out["nrmse"] = r.distortion.nrmse;
}

}  // namespace

void Daemon::stream_payload(Job& job, const std::vector<std::uint8_t>& bytes,
                            json::Object& reply) {
  const std::string id = "srv-" + std::to_string(job.seq);
  const std::size_t chunk_bytes =
      options_.stream_chunk_bytes >= 1 ? options_.stream_chunk_bytes : kDefaultChunkBytes;

  ChunkMessage begin;
  begin.type = ChunkType::kBegin;
  begin.transfer = id;
  begin.total_bytes = bytes.size();
  bool alive = send_json(*job.conn, begin.to_json());
  for (std::size_t offset = 0, seq = 0; alive && offset < bytes.size();
       offset += chunk_bytes, ++seq) {
    const std::size_t len = std::min(chunk_bytes, bytes.size() - offset);
    ChunkMessage chunk;
    chunk.type = ChunkType::kData;
    chunk.transfer = id;
    chunk.seq = seq;
    chunk.crc32 = crc32(bytes.data() + offset, len);
    chunk.payload.assign(bytes.begin() + static_cast<std::ptrdiff_t>(offset),
                         bytes.begin() + static_cast<std::ptrdiff_t>(offset + len));
    alive = send_json(*job.conn, chunk.to_json());
  }
  if (alive) {
    ChunkMessage end;
    end.type = ChunkType::kEnd;
    end.transfer = id;
    end.crc32 = bytes_crc(bytes);
    end.has_crc32 = true;
    send_json(*job.conn, end.to_json());
  }
  // A send failure marked the conn closed; the result frame below will be
  // dropped the same way, preserving one *attempted* answer per request.
  reply["payload_transfer"] = id;
  reply["payload_crc32"] = static_cast<double>(bytes_crc(bytes));
  counter("responses_streamed").add();
}

void Daemon::run_job(Job& job, foresight::SessionCache& cache, json::Object& reply) {
  const JobRequest& r = job.request;
  foresight::Compressor& compressor = cache.compressor(r.codec);
  std::unique_lock<std::mutex> serial;
  if (!compressor.concurrent_sessions_safe()) {
    serial = std::unique_lock<std::mutex>(serial_mu_);
  }

  // Transfer-backed inputs were verified complete at admission; the bytes
  // can still be gone here if the watchdog reaped them while the job sat
  // in the queue — that is a plain job failure ("failed"), never a hang.
  const auto claim = [&](const std::string& id) {
    std::vector<std::uint8_t> bytes;
    if (job.conn->transfers.claim(id, bytes) != TransferTable::ClaimStatus::kOk) {
      throw IoError("foresightd: transfer '" + id + "' expired before execution");
    }
    return bytes;
  };

  if (r.type == RequestType::kDecompress) {
    foresight::CompressResult c;
    c.bytes = r.payload_transfer.empty() ? base64_decode(r.payload_b64)
                                         : claim(r.payload_transfer);
    job.token.check("decompress");
    foresight::DecompressResult d = cache.session(r.codec).decompress(c);
    reply["values"] = d.values.size();
    reply["values_crc32"] = static_cast<double>(values_crc(d.values));
    reply["decompress_seconds"] = d.seconds();
    return;
  }

  // Inline datasets are connection-local uploaded bytes: build the Field
  // here (transfers are single-use) and skip the dataset cache.
  Field inline_field;
  std::shared_ptr<const io::Container> dataset;
  const Field* field = nullptr;
  if (r.dataset.get("type", std::string()) == "inline") {
    const Dims dims = inline_dims(r.dataset);
    const std::size_t count = checked_stream_count(dims, "inline dataset");
    const std::vector<std::uint8_t> bytes =
        claim(r.dataset.get("transfer", std::string()));
    require_format(bytes.size() == count * sizeof(float),
                   "foresightd: inline dataset size mismatch");
    std::vector<float> values(count);
    std::memcpy(values.data(), bytes.data(), bytes.size());
    inline_field = Field(r.field, dims, std::move(values));
    field = &inline_field;
  } else {
    dataset = dataset_for(r.dataset);
    field = &dataset->find(r.field).field;
  }

  if (r.type == RequestType::kCompress) {
    job.token.check("compress");
    foresight::CompressResult c =
        cache.session(r.codec).compress(*field, r.config);
    reply["compressed_bytes"] = c.bytes.size();
    reply["original_bytes"] = field->bytes();
    reply["ratio"] = analysis::compression_ratio(field->bytes(), c.bytes.size());
    reply["crc32"] = static_cast<double>(bytes_crc(c.bytes));
    reply["compress_seconds"] = c.seconds();
    if (r.return_bytes) {
      // Base64 expands 3→4; the encoded payload plus JSON overhead must
      // still fit one frame to be inlined.
      const std::size_t encoded = (c.bytes.size() + 2) / 3 * 4;
      const bool fits = encoded + 1024 < kMaxFrameBytes;
      const bool over_threshold = options_.response_stream_threshold > 0 &&
                                  c.bytes.size() > options_.response_stream_threshold;
      if (!fits || over_threshold) {
        stream_payload(job, c.bytes, reply);
      } else {
        reply["payload"] = base64_encode(c.bytes);
      }
      reply["original_values"] = c.original_values;
    }
    return;
  }

  const foresight::CBench bench({.keep_reconstructed = false});
  if (r.type == RequestType::kRoundtrip) {
    put_roundtrip(
        bench.run_session(*field, r.codec, cache.session(r.codec), r.config, &job.token),
        reply);
    return;
  }

  // Sweep: one row per lattice point, in request order. A failing point
  // becomes a failed row and the next one starts on a fresh session.
  std::vector<json::Object> rows(r.configs.size());
  std::size_t failed_rows = 0;
  foresight::JobScheduler(compressor, nullptr, foresight::OnError::kContinue, "sweep.worker",
                          [&]() -> foresight::CodecSession& { return cache.session(r.codec); })
      .run(
          rows.size(),
          [&](std::size_t i, foresight::CodecSession& session, foresight::CompressResult& c,
              foresight::DecompressResult& d) {
            job.token.check("sweep");
            put_roundtrip(
                bench.run_session(*field, r.codec, session, r.configs[i], c, d, &job.token),
                rows[i]);
            rows[i]["row_status"] = kStatusOk;
          },
          [&](std::size_t i, const Error& e) {
            rows[i]["row_status"] = kStatusFailed;
            rows[i]["error"] = std::string(e.what());
            ++failed_rows;
            cache.invalidate();
          });
  for (std::size_t i = 0; i < rows.size(); ++i) {
    rows[i]["mode"] = r.configs[i].mode;
    rows[i]["value"] = r.configs[i].value;
  }
  reply["rows"] = json::Array(std::make_move_iterator(rows.begin()),
                              std::make_move_iterator(rows.end()));
  reply["failed_rows"] = failed_rows;
}

}  // namespace cosmo::foresightd
