#ifndef TUFFY_NET_SERVER_H_
#define TUFFY_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/protocol.h"
#include "obs/metrics.h"
#include "serve/session_manager.h"
#include "util/thread_pool.h"

namespace tuffy {

class ReplSource;
class ReplicaSession;

struct ServerOptions {
  /// Bind address; tests and the bench stay on loopback.
  std::string host = "127.0.0.1";
  /// 0 = ephemeral (read the kernel's pick back via port()).
  uint16_t port = 0;
  /// Worker threads executing decoded jobs (session opens, deltas,
  /// queries). Search inside one delta runs inline on its worker, so
  /// this is also the cross-session parallelism degree.
  int num_workers = 2;
  /// Bound on queued-plus-running jobs across all sessions. A request
  /// arriving past the bound is answered kOverloaded immediately — the
  /// event loop never blocks on a full queue, it sheds.
  size_t max_queue = 64;
  /// Per-frame payload cap; a peer announcing more is disconnected.
  size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Template for sessions opened over the wire (flip budget, seed,
  /// marginal tracking, ...). wal_dir inside it is ignored — durability
  /// comes from durability_root so each named session logs under its
  /// own directory.
  SessionOptions session;
  /// SessionManagerOptions pass-throughs.
  uint64_t memory_budget_bytes = 0;
  std::string durability_root;
  uint32_t snapshot_every = 0;
  bool wal_fsync = true;
  /// Connection hygiene: a non-subscriber connection with no traffic in
  /// either direction for this long is reaped (0 = never). Replication
  /// subscribers are exempt — an idle follower is the healthy state.
  double idle_timeout_seconds = 300.0;
  /// A half-open peer — one that started a frame and then went silent —
  /// is reaped once the partial frame is older than this (0 = never).
  /// Tighter than the idle timeout because a stuck partial frame holds
  /// buffer memory and can never become a request.
  double read_deadline_seconds = 10.0;
  /// Cadence of replication heartbeats (empty kWalRecords frames) to
  /// caught-up subscribers; also the lag-gauge refresh tick.
  double repl_heartbeat_seconds = 0.5;
  /// Replica fronting: when set, the server serves this hot standby
  /// instead of a SessionManager — queries read the replicated state,
  /// deltas are refused with kNotPrimary until the replica is promoted,
  /// and only the replicated session exists. The pointer must outlive
  /// the server.
  ReplicaSession* replica = nullptr;
};

/// Point-in-time server-wide figures, read from the metrics registry
/// (see Server::metrics).
struct ServerMetrics {
  uint64_t connections_accepted = 0;
  uint64_t connections_open = 0;
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
  uint64_t requests = 0;
  uint64_t responses = 0;
  uint64_t errors_sent = 0;
  uint64_t overloaded = 0;
  uint64_t protocol_errors = 0;
  /// Connections closed by hygiene (idle timeout or read deadline).
  uint64_t connections_reaped = 0;
  uint64_t deltas_applied = 0;
  size_t queue_depth = 0;
  size_t queue_peak = 0;
  /// Read from the session manager itself (0 on a replica front).
  uint64_t sessions_open = 0;
  /// ApplyDelta wire latency (decode to response enqueue, including
  /// queue wait), from the registry's atomic-bucket histogram
  /// ("net.delta.wire.seconds"), baselined at Start like the counters.
  double delta_p50_ms = 0.0;
  double delta_p99_ms = 0.0;
  double delta_mean_ms = 0.0;
};

/// The network serving front end: a poll-based async TCP server that
/// exposes a SessionManager (or a hot-standby ReplicaSession, through
/// the same SessionAccess interface) over the framed binary protocol in
/// net/protocol.h. One event-loop thread owns every socket: it accepts,
/// reads, decodes frames, and writes responses, never blocking on I/O
/// or on session work. Decoded requests become jobs on a bounded queue
/// executed by a small worker pool; per session there is at most one
/// job in flight ("lanes"), so a session's requests apply strictly in
/// arrival order — the invariant that makes pipelined deltas safe —
/// while different sessions proceed in parallel. When the queue is
/// full the request is answered kOverloaded instead of queuing: load
/// sheds at the edge, in the rippled JobQueue tradition, rather than
/// stalling the loop.
///
/// Sessions belong to the manager, not to connections: a client that
/// disconnects mid-stream loses nothing, and a later OpenSession of the
/// same name re-attaches to the live state.
class Server {
 public:
  /// `program` and `evidence` must outlive the server; every session
  /// opened over the wire grounds this program against this initial
  /// evidence.
  Server(const MlnProgram& program, const EvidenceDb& evidence,
         ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and starts the event loop + workers. The server
  /// is accepting when this returns OK.
  Status Start();

  /// Stops the event loop, drains workers, closes every connection.
  /// Sessions (and their durable state) survive until destruction.
  /// Idempotent; also called by the destructor.
  void Stop();

  /// The bound port (after Start) — the way to find an ephemeral bind.
  uint16_t port() const { return port_; }

  /// Registry counters as their movement since Start, gauges as levels.
  /// Two live servers in one process share the counts, and the figures
  /// obey the SetMetricsEnabled kill switch (docs/OBSERVABILITY.md).
  ServerMetrics metrics() const;
  /// Multi-line human-readable metrics dump (the SIGINT report).
  std::string MetricsReport() const;

 private:
  struct Connection {
    int fd = -1;
    std::string in;
    std::string out;
    /// Monotonic seconds of the last byte in or response queued out;
    /// feeds the idle-timeout sweep.
    double last_activity = 0.0;
    /// When nonzero, `in` has held an incomplete frame since this
    /// instant; feeds the read-deadline sweep.
    double partial_since = 0.0;
    /// Replication subscribers are push-mode and hygiene-exempt.
    bool subscriber = false;
  };

  /// One decoded request bound to the connection that sent it.
  struct Job {
    uint64_t conn_id = 0;
    NetRequest request;
    double enqueued_at = 0.0;  // monotonic seconds
  };

  /// Per-session FIFO dispatch state: at most one job of a lane runs at
  /// a time. Owned by the event-loop thread.
  struct Lane {
    std::deque<Job> waiting;
    bool running = false;
  };

  /// A finished job's response travelling back to the event loop.
  struct Completion {
    uint64_t conn_id = 0;
    std::string lane;
    std::string frame;  // already framed response bytes
    bool is_delta = false;
    bool is_error = false;
    double latency_seconds = 0.0;
  };

  void Loop();
  void AcceptReady();
  /// Reads a connection; returns false if it should be closed.
  bool ReadReady(uint64_t conn_id, Connection* conn);
  bool WriteReady(Connection* conn);
  void CloseConnection(uint64_t conn_id);
  /// Decodes and routes one frame payload from `conn_id`.
  void HandlePayload(uint64_t conn_id, const std::string& payload);
  /// Queues a response frame on the connection (if still open).
  void SendToConnection(uint64_t conn_id, const std::string& frame);
  void SendError(uint64_t conn_id, uint64_t request_id, WireError error,
                 std::string message);
  /// Submits the lane's next waiting job to the worker pool.
  void PumpLane(const std::string& lane_name);
  void DrainCompletions();
  /// Hands `job` to the worker pool (shared by HandlePayload and
  /// PumpLane). The worker builds the delta trace — lane queue wait
  /// span, then the session's ApplyDelta spans — and records latency.
  void SubmitJob(Job job);
  /// Worker-side: executes one request against sessions_, the same way
  /// for a primary and a replica front. `trace` is non-null only for
  /// kApplyDelta jobs.
  NetResponse Execute(const NetRequest& request, TraceBuilder* trace);
  NetResponse ServerStatsResponse(uint64_t request_id);
  void Wake();

  // ---- replication shipping (event-loop-owned) ----
  /// kSubscribe handshake: builds the ReplSource (snapshot staging /
  /// tailer fast-forward), replies, and pumps the first frames.
  void HandleSubscribe(uint64_t conn_id, const std::string& payload);
  void HandleReplAck(uint64_t conn_id, const std::string& payload);
  /// Ships pending snapshot chunks + committed WAL records to one
  /// subscriber; with `heartbeat`, a caught-up subscriber still gets an
  /// empty frame carrying the committed position. Never erases the
  /// connection — a fatal stream problem shuts the socket down and lets
  /// the poll loop reap it.
  void PumpSubscription(uint64_t conn_id, bool heartbeat);
  /// Publishes repl.lag.records / repl.lag.seconds for a subscription.
  void UpdateLagGauges(const ReplSource& source, uint64_t committed,
                       double now);
  /// Idle-timeout and read-deadline reaping.
  void SweepConnections(double now);

  const MlnProgram& program_;
  const EvidenceDb& evidence_;
  ServerOptions options_;
  uint64_t program_fp_ = 0;

  /// Owns the sessions of a primary; null on a replica front.
  std::unique_ptr<SessionManager> manager_;
  /// Where requests go: manager_ or options_.replica.
  SessionAccess* sessions_ = nullptr;
  std::unique_ptr<ThreadPool> workers_;

  int listen_fd_ = -1;
  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;
  uint16_t port_ = 0;
  std::thread loop_thread_;
  std::atomic<bool> stop_{false};
  bool started_ = false;

  // Event-loop-owned state (no lock needed).
  std::unordered_map<uint64_t, Connection> conns_;
  uint64_t next_conn_id_ = 1;
  std::unordered_map<std::string, Lane> lanes_;
  size_t jobs_pending_ = 0;  // queued + running, vs options_.max_queue
  /// Live replication subscriptions, keyed by connection.
  std::unordered_map<uint64_t, std::unique_ptr<ReplSource>> subs_;
  double last_heartbeat_tick_ = 0.0;

  // Completions cross the worker -> loop boundary under this mutex.
  std::mutex completion_mu_;
  std::vector<Completion> completions_;

  // The registry is process-wide, so Start() captures a baseline and
  // metrics() reports the movement since it.
  Histogram* wire_latency_ = nullptr;       // net.delta.wire.seconds
  Histogram* lane_wait_ = nullptr;          // net.lane.queue.wait.seconds
  HistogramSnapshot wire_latency_base_;
  std::vector<MetricSample> metrics_base_;
};

}  // namespace tuffy

#endif  // TUFFY_NET_SERVER_H_
