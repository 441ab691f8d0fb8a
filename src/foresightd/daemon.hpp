/// \file daemon.hpp
/// \brief foresightd: a fault-contained compression service daemon.
///
/// One Daemon instance is one service: a Unix-domain stream socket (and,
/// when enabled, a TCP listener — both feed the same FrameParser, poll
/// loop, admission and worker pipeline) speaking the length-prefixed JSON
/// protocol (protocol.hpp), an IO thread that accepts connections,
/// reassembles chunked transfers and admits jobs, and a pool of worker
/// threads each owning its own GpuSimulator + SessionCache (sessions are
/// not thread-safe, so isolation is per-worker by construction).
///
/// The robustness contracts, in the order they matter:
///
///  - Bounded admission. Jobs pass through an AdmissionQueue with a
///    capacity limit, per-client outstanding quotas and priority lanes.
///    Over-capacity work is refused immediately with a reason
///    ("queue_full" / "quota" / "draining") — the daemon never buffers
///    unbounded work, and the client always hears back.
///
///  - Exactly one terminal status per request. Rejections are answered by
///    the IO thread at admission time; every admitted job is popped by
///    exactly one worker, which sends exactly one result with status
///    ok / failed / cancelled / deadline.
///
///  - Fault isolation. A failing job (malformed payload, injected
///    corruption, device fault past its retry budget) is contained to its
///    own result row: the worker catches cosmo::Error, reports "failed",
///    and invalidates its SessionCache (sessions + arena) so no partially
///    written scratch state can leak into the next job.
///
///  - Deadlines and cancellation are cooperative. Each job carries a
///    CancelToken (per-request deadline, or the daemon default); workers
///    check it at stage boundaries — before compress, between compress and
///    decompress, before responding — and report "deadline" / "cancelled"
///    as statuses distinct from "failed".
///
///  - Bounded transfer reassembly. Each connection owns a TransferTable
///    whose budget counts declared bytes at chunk_begin time — an
///    over-budget transfer is refused before any buffering. A job that
///    references a transfer is admitted only once that transfer is
///    complete; abandoned transfers are reaped on the IO thread after
///    options().transfer_idle_seconds of silence; a disconnect frees the
///    connection's whole table with it (the reserved-bytes gauge returns
///    to zero). During drain, chunk messages are answered with a
///    "draining" rejection, but transfers referenced by already-admitted
///    jobs stay claimable so those jobs still complete.
///
///  - Graceful drain. request_shutdown() (or one byte written to
///    signal_fd() from a signal handler) stops accepting connections,
///    closes the queue (new jobs → "draining" rejections), lets workers
///    finish the already-admitted backlog, and cancels whatever is still
///    running once the drain budget expires — so shutdown completes in
///    bounded time with every job answered. Final metrics are flushed to
///    options().metrics_out before run() returns.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/admission_queue.hpp"
#include "common/cancel.hpp"
#include "common/fault.hpp"
#include "common/timer.hpp"
#include "foresightd/dataset_cache.hpp"
#include "foresightd/protocol.hpp"
#include "io/container.hpp"
#include "json/json.hpp"

namespace cosmo::foresight {
class SessionCache;
}

namespace cosmo::foresightd {

struct DaemonOptions {
  std::string socket_path;           ///< AF_UNIX path (required; unlinked on exit)
  int tcp_port = -1;                 ///< TCP listener port (-1 = disabled, 0 = ephemeral)
  std::string tcp_host = "127.0.0.1";  ///< TCP bind address
  std::size_t workers = 2;           ///< job worker threads
  std::size_t queue_capacity = 64;   ///< admission queue capacity
  std::size_t per_client_quota = 0;  ///< max outstanding jobs per connection (0 = unlimited)
  int priorities = 3;                ///< priority lanes (request priority clamps into range)
  double default_deadline_seconds = 0;  ///< applied when a job carries none (0 = none)
  double drain_budget_seconds = 5.0;    ///< shutdown: grace before in-flight jobs are cancelled
  TransferLimits transfer_limits;       ///< per-connection chunk reassembly bounds
  /// Watchdog reaps a transfer once BOTH it and its connection have seen no
  /// progress/input for this long (input-idle too, so a slow many-second
  /// chunk still in flight never counts as abandoned).
  double transfer_idle_seconds = 30.0;
  std::size_t stream_chunk_bytes = kDefaultChunkBytes;  ///< server→client stream slice
  /// Compress results whose payload exceeds this are streamed in chunks
  /// instead of inlined (0 = only when the frame cap forces it). Tests
  /// lower it to force streaming on small payloads.
  std::uint64_t response_stream_threshold = 0;
  std::uint64_t dataset_cache_bytes = 256ull << 20;  ///< LRU dataset cache budget
  std::string gpu = "Tesla V100";       ///< device spec backing the simulated-GPU codecs
  std::optional<fault::Config> faults;  ///< installed process-wide for the daemon's lifetime
  std::string metrics_out;              ///< metrics JSON flushed here at shutdown ("" = none)
};

/// The service. start() spawns the IO + worker threads; wait() blocks until
/// a shutdown request has fully drained; run() is start()+wait().
class Daemon {
 public:
  explicit Daemon(DaemonOptions options);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Binds the socket and spawns the IO, worker and watchdog threads.
  /// Throws IoError when the socket cannot be created.
  void start();

  /// Blocks until shutdown has completed (all threads joined, socket
  /// unlinked, metrics flushed). Requires start().
  void wait();

  /// start() + wait().
  void run() {
    start();
    wait();
  }

  /// Thread-safe drain trigger (also reachable via a "shutdown" request).
  void request_shutdown();

  /// A file descriptor a signal handler may write one byte to (this is the
  /// only async-signal-safe way to stop the daemon). Valid after start().
  [[nodiscard]] int signal_fd() const { return wake_fds_[1]; }

  /// The TCP port actually bound (resolves an ephemeral tcp_port = 0), or
  /// -1 when the TCP listener is disabled. Valid after start().
  [[nodiscard]] int bound_tcp_port() const { return tcp_port_bound_; }

  [[nodiscard]] const DaemonOptions& options() const { return options_; }

  /// Aggregate service counters (also exported through MetricsRegistry;
  /// these are instance-local so concurrent daemons in one test process
  /// don't alias).
  struct Stats {
    std::uint64_t admitted = 0;
    std::uint64_t rejected = 0;
    std::uint64_t ok = 0;
    std::uint64_t failed = 0;
    std::uint64_t cancelled = 0;
    std::uint64_t deadline = 0;
    std::uint64_t protocol_errors = 0;
    std::size_t queue_high_water = 0;
    std::uint64_t transfers_completed = 0;
    std::uint64_t transfers_reaped = 0;     ///< watchdog-dropped idle transfers
    std::int64_t transfer_reserved_bytes = 0;  ///< currently buffered across conns
    DatasetCache::Stats dataset_cache;
  };
  [[nodiscard]] Stats stats() const;

 private:
  struct Conn;
  struct Job {
    JobRequest request;
    CancelToken token;
    std::shared_ptr<Conn> conn;
    std::uint64_t seq = 0;     ///< daemon-wide job sequence (inflight registry key)
    std::uint64_t client = 0;  ///< admitting connection id (quota key)
    Timer queued;              ///< measures queue wait
  };

  void io_loop();
  void worker_loop(std::size_t index);
  void watchdog_loop();
  void begin_drain();
  void cancel_inflight();
  void reap_transfers();
  void handle_frame(const std::shared_ptr<Conn>& conn, const json::Value& frame);
  void handle_chunk(const std::shared_ptr<Conn>& conn, const json::Value& frame);
  void admit_job(const std::shared_ptr<Conn>& conn, JobRequest request);
  void execute_job(Job& job, foresight::SessionCache& cache);
  void run_job(Job& job, foresight::SessionCache& cache, json::Object& reply);
  void stream_payload(Job& job, const std::vector<std::uint8_t>& bytes,
                      json::Object& reply);
  std::shared_ptr<const io::Container> dataset_for(const json::Value& spec);
  static bool send_json(Conn& conn, const json::Value& v);

  DaemonOptions options_;
  std::unique_ptr<fault::FaultPlan> fault_plan_;
  std::optional<fault::Scope> fault_scope_;

  int listen_fd_ = -1;
  int tcp_listen_fd_ = -1;
  int tcp_port_bound_ = -1;
  int wake_fds_[2] = {-1, -1};
  bool started_ = false;
  bool finished_ = false;

  AdmissionQueue<Job> queue_;
  std::thread io_thread_;
  std::thread watchdog_;
  std::vector<std::thread> workers_;
  std::atomic<std::size_t> live_workers_{0};

  std::mutex state_mu_;  // guards drain_started_/workers_done_ with done_cv_
  std::condition_variable done_cv_;
  bool drain_started_ = false;
  bool workers_done_ = false;

  std::mutex inflight_mu_;
  std::map<std::uint64_t, CancelToken> inflight_;
  std::uint64_t next_job_seq_ = 1;  // IO thread only

  /// Live connections, for the watchdog's idle-transfer reaping pass.
  /// weak_ptrs: the IO thread (and workers) own lifetime, not the reaper.
  std::mutex conns_mu_;
  std::vector<std::weak_ptr<Conn>> conn_registry_;

  DatasetCache dataset_cache_;

  /// Serializes jobs whose codec sessions cannot run concurrently
  /// (the simulated-GPU codecs' shared timing stream); their streams stay
  /// byte-identical either way, this keeps modeled timings sane.
  std::mutex serial_mu_;

  std::atomic<std::uint64_t> admitted_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> ok_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<std::uint64_t> cancelled_{0};
  std::atomic<std::uint64_t> deadline_{0};
  std::atomic<std::uint64_t> protocol_errors_{0};
  std::atomic<std::uint64_t> transfers_completed_{0};
  std::atomic<std::uint64_t> transfers_reaped_{0};
  /// Sum of every connection's reserved transfer bytes (each Conn's
  /// TransferTable points its gauge here); drops to zero when abandoned
  /// buffers are reaped or a disconnect tears the table down.
  std::atomic<std::int64_t> transfer_reserved_{0};
};

}  // namespace cosmo::foresightd
