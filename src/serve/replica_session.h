#ifndef TUFFY_SERVE_REPLICA_SESSION_H_
#define TUFFY_SERVE_REPLICA_SESSION_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "serve/inference_session.h"
#include "serve/session_access.h"

namespace tuffy {

/// A hot-standby InferenceSession fed by the replication stream
/// (docs/DURABILITY.md, "Replication & failover"). Until Promote(), the
/// session is read-only to clients: queries are served from the live
/// replicated state, while ApplyDelta refuses with a retryable
/// not-primary error carrying the primary's address. Promote() seals the
/// local WAL (fsync barrier) and flips the session writable; a second
/// Promote() is refused — there is exactly one promotion event per
/// replica lifetime, and the operator owns the split-brain question (see
/// the docs caveat: this layer cannot tell a dead primary from a
/// partitioned one).
///
/// As a SessionAccess it serves exactly one session, the one it
/// replicates: any other name is NotFound, Close and Recover are
/// InvalidArgument, and OpenOrAttach attaches once state has arrived.
///
/// Thread model: the follower's streaming thread applies shipped records
/// while server workers and the REPL query concurrently, so every state
/// access goes through mu_ (Read included — grounder read paths are
/// not lock-free against a concurrent apply). position()/promoted()/
/// has_state() are atomics for lock-free monitoring.
class ReplicaSession : public SessionAccess {
 public:
  /// `name` is the replicated session's name on the primary.
  /// `primary_addr` ("host:port") is advertising only — it rides in the
  /// not-primary error so clients know where writes go.
  ReplicaSession(const MlnProgram& program, SessionOptions options,
                 std::string name, std::string primary_addr);

  /// Warm restart: if options.wal_dir holds durable state, Recover it
  /// and resume from its position. Returns true when state was
  /// recovered, false when the directory is empty (cold — the first
  /// subscribe will bootstrap). `shared_pool` must outlive this object.
  Result<bool> RecoverLocal(ThreadPool* shared_pool = nullptr,
                            RecoveryStats* stats = nullptr);

  /// Cold bootstrap from a primary-shipped (rebased) snapshot landing at
  /// `primary_position`. Refused once state exists.
  Status BootstrapFromSnapshot(const std::string& payload,
                               uint64_t primary_position,
                               ThreadPool* shared_pool = nullptr);

  /// Applies one shipped WAL record through the durable replay path and
  /// advances position(). An InvalidArgument result mirrors the
  /// primary's own rejection of that delta — the record is logged and
  /// the position still advances, exactly like recovery replay.
  Result<DeltaApplyResult> ApplyShippedRecord(const std::string& payload);

  /// Runs `fn` under the replica lock; Unavailable while cold.
  Status Read(const std::string& name,
              const std::function<Status(const InferenceSession&)>& fn)
      override;

  /// Client-facing delta entry point. Before promotion: refused with
  /// Status::Unavailable (wire: kNotPrimary, retryable) naming the
  /// primary. After: applied to the local session, which logs it as its
  /// own — the replica's timeline continues the primary's.
  Result<DeltaApplyResult> ApplyDelta(const std::string& name,
                                      const EvidenceDelta& delta,
                                      TraceBuilder* trace = nullptr) override;

  /// Attaches (returns true) once replicated state exists; the program,
  /// evidence and options are the primary's business and go unused.
  Result<bool> OpenOrAttach(const std::string& name,
                            const MlnProgram& program,
                            const EvidenceDb& evidence,
                            SessionOptions options) override;
  Status Close(const std::string& name) override;
  Result<InferenceSession*> Recover(const std::string& name,
                                    const MlnProgram& program,
                                    SessionOptions options,
                                    RecoveryStats* stats = nullptr) override;

  /// position and promoted (1 or 0).
  void AppendOwnerStats(const std::string& name,
                        StatList* out) const override;

  /// Seals the local WAL (fsync) and flips the session writable.
  /// InvalidArgument when no state has arrived yet; AlreadyExists on a
  /// second call (double-promote refusal).
  Status Promote();

  bool promoted() const {
    return promoted_.load(std::memory_order_acquire);
  }
  bool has_state() const {
    return has_state_.load(std::memory_order_acquire);
  }
  /// Primary-timeline position applied so far (wal_base + local records).
  uint64_t position() const {
    return position_.load(std::memory_order_acquire);
  }
  const std::string& primary_addr() const { return primary_addr_; }

 private:
  /// NotFound unless `name` is the replicated session.
  Status CheckName(const std::string& name) const;

  const MlnProgram& program_;
  SessionOptions options_;
  std::string name_;
  std::string primary_addr_;

  std::mutex mu_;
  std::unique_ptr<InferenceSession> session_;
  std::atomic<bool> promoted_{false};
  std::atomic<bool> has_state_{false};
  std::atomic<uint64_t> position_{0};
};

}  // namespace tuffy

#endif  // TUFFY_SERVE_REPLICA_SESSION_H_
