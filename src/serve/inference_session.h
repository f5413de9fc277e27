#ifndef TUFFY_SERVE_INFERENCE_SESSION_H_
#define TUFFY_SERVE_INFERENCE_SESSION_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "durability/wal.h"
#include "infer/problem.h"
#include "mrf/components.h"
#include "obs/trace.h"
#include "serve/delta_grounder.h"
#include "util/thread_pool.h"

namespace tuffy {

/// Knobs of a long-lived inference session. Mirrors the search half of
/// EngineOptions (the serving layer sits below exec and cannot see it);
/// TuffyEngine::OpenSession translates.
struct SessionOptions {
  /// Flip budget of the cold start; each delta re-search scales this by
  /// the dirty fraction of atoms, exactly like the batch engine scales
  /// per-component budgets.
  uint64_t total_flips = 1000000;
  double p_random = 0.5;
  double hard_weight = 1e6;
  /// Worker threads for the session-owned pool. Ignored when a shared
  /// pool is passed to Open (the SessionManager case). Thread count
  /// never affects results, only wall clock.
  int num_threads = 1;
  bool init_random = true;
  uint64_t seed = 42;
  /// If true, per-atom marginals are maintained: MC-SAT runs per dirty
  /// component (the MRF distribution factorizes over components, so
  /// clean components' marginals stay valid verbatim).
  bool track_marginals = false;
  int mcsat_samples = 200;
  int mcsat_burn_in = 20;
  /// Route tractable dirty components (src/infer/exact) to the exact
  /// linear-time solver instead of WalkSAT / MC-SAT. Part of the options
  /// fingerprint: it changes component truths, so durable state is only
  /// compatible with the setting it was produced under.
  bool exact_fast_path = true;
  GroundingOptions grounding;  // lazy_closure is forced off
  OptimizerOptions optimizer;

  // ---- Durability (docs/DURABILITY.md). All three are ignored when
  // wal_dir is empty (a volatile session, the default).

  /// Directory for this session's WAL and snapshots. Open() refuses a
  /// directory that already holds durable state (use Recover); the
  /// guarantee is that a session recovered after a crash is bit-identical
  /// — ground store, best truth, and all future delta results — to one
  /// that never crashed.
  std::string wal_dir;
  /// Write a snapshot after this many effective (non-no-op) deltas;
  /// 0 = only the initial snapshot, so recovery replays the whole WAL.
  uint32_t snapshot_every = 0;
  /// fsync the WAL once per logged delta batch (group commit). Off, the
  /// log trails the session by the OS write-back window — crash recovery
  /// then restores a recent-but-stale prefix of the delta stream.
  bool wal_fsync = true;

  // ---- Observability (docs/OBSERVABILITY.md). Deliberately excluded
  // from OptionsFingerprint: tracing only reads clocks, so a session
  // recovered (or twinned) under different observability knobs is still
  // bit-identical.

  /// A delta slower than this logs its rendered span tree at Warning;
  /// 0 disables the slow-delta log.
  double slow_delta_seconds = 0.0;
};

/// Rejects out-of-range session knobs with an explanatory Status.
Status ValidateSessionOptions(const SessionOptions& options);

/// Outcome of one InferenceSession::ApplyDelta call.
struct DeltaApplyResult {
  GroundEdits edits;
  /// Session-wide delta sequence number: stats().deltas_applied after
  /// this delta, so it is strictly increasing in application order.
  /// The network front end echoes it to clients — a pipelining client
  /// can verify the server applied its deltas in send order.
  uint64_t seq = 0;
  size_t components_total = 0;
  size_t components_dirty = 0;
  uint64_t flips = 0;
  /// Dirty components whose warm re-search the stagnation rule ended
  /// before their flip budget ran out (registry: search.stale_stops).
  uint64_t stale_stops = 0;
  /// Wall clock of the re-search + marginal refresh (grounding time is
  /// in edits.ground_seconds).
  double search_seconds = 0.0;
  /// Session MAP cost after the delta (search cost + fixed cost).
  double map_cost = 0.0;
};

/// What InferenceSession::Recover found and did, for operators ("how
/// much history did the crash cost?") and the fault-injection tests.
struct RecoveryStats {
  /// Snapshot files examined, newest first; > 1 means the newest was
  /// corrupt and an older one backstopped it.
  size_t snapshots_tried = 0;
  /// WAL-record sequence number of the snapshot that loaded.
  uint64_t snapshot_seq = 0;
  /// Valid delta records in the WAL (excluding the header record).
  uint64_t wal_records_total = 0;
  /// Of those, how many were replayed vs. already covered by the
  /// snapshot.
  uint64_t records_replayed = 0;
  uint64_t records_skipped = 0;
  uint64_t bytes_scanned = 0;
  /// Torn/corrupt tail bytes truncated from the WAL (0 for a clean log).
  uint64_t truncated_bytes = 0;
};

/// Decoded WAL header record (record 0 of every durable session log).
struct WalHeaderInfo {
  uint32_t version = 0;
  uint64_t program_fp = 0;
  uint64_t options_fp = 0;
  /// Primary-timeline position of this log's first delta record minus
  /// one: the log retains records (base_records, base_records + count].
  /// 0 for a session that originated its own timeline; a follower
  /// bootstrapped from a shipped snapshot at primary position N writes
  /// N here. This is the retained-prefix accounting the replication
  /// handshake consults — a subscriber behind base_records needs a
  /// snapshot, not a WAL suffix.
  uint64_t base_records = 0;
};

/// Parses a WAL header record payload (Corruption on malformed bytes or
/// a bad magic/version). Headers written before base_records existed
/// parse with base_records = 0.
Status ParseWalHeader(const std::string& payload, WalHeaderInfo* out);

/// Rewrites the wal_records field of a snapshot payload to 0, for
/// shipping to a cold follower: the follower's local log starts empty at
/// exactly this state, so on its local timeline the snapshot has
/// absorbed zero records. The fingerprints and state bytes are untouched.
Status RebaseSnapshotPayloadForShipping(std::string* payload);

/// Cumulative session counters.
struct SessionStats {
  size_t deltas_applied = 0;
  size_t no_op_deltas = 0;
  size_t components_researched = 0;
  /// Of those, components answered by the exact solver.
  size_t components_exact = 0;
  uint64_t flips = 0;
};

/// A standing MLN inference state: grounds once, then serves a stream of
/// evidence deltas without redoing work. Per delta, the DeltaGrounder
/// edits the resident clause set, the dirty-component tracker
/// (MapCleanComponents over the union-find component scan) decides which
/// components the edits touched, and only those are re-searched — warm-
/// started from the previous MAP truth — while clean components keep
/// their cached best truth, cost, and marginals verbatim.
///
/// After any sequence of deltas, map_cost() and marginals() match a
/// from-scratch TuffyEngine::Infer over the accumulated evidence with
/// `lazy_closure = false` (cost exactly, given converged search on both
/// sides; marginals within sampling tolerance).
class InferenceSession {
 public:
  InferenceSession(const MlnProgram& program, SessionOptions options);

  InferenceSession(const InferenceSession&) = delete;
  InferenceSession& operator=(const InferenceSession&) = delete;

  /// Grounds against the initial evidence and runs the cold-start
  /// search (every component dirty). `shared_pool`, if non-null, is used
  /// for all parallel work and must outlive the session; otherwise the
  /// session owns a pool of options.num_threads workers.
  Status Open(const EvidenceDb& initial_evidence,
              ThreadPool* shared_pool = nullptr);

  /// Rebuilds a crashed durable session from `options.wal_dir`: loads
  /// the newest intact snapshot, truncates the WAL's torn tail (if any),
  /// and replays the remaining delta records through the normal
  /// ApplyDelta path. The result is bit-identical to the pre-crash
  /// session's last durable state — same ground store, same best truth —
  /// and continues logging where the WAL left off. Fails with Corruption
  /// if no snapshot is usable or the durable state belongs to a
  /// different program/options (fingerprint mismatch).
  static Result<std::unique_ptr<InferenceSession>> Recover(
      const MlnProgram& program, SessionOptions options,
      ThreadPool* shared_pool = nullptr, RecoveryStats* stats = nullptr);

  /// Builds a durable session for a cold follower from a primary's
  /// shipped snapshot (already rebased via
  /// RebaseSnapshotPayloadForShipping). `primary_position` is the
  /// primary-timeline record count the snapshot state has absorbed; it
  /// becomes this session's wal_base(). The local WAL starts empty (its
  /// header carries the base), a local snapshot-0 re-anchors the state,
  /// and subsequent ApplyReplicatedRecord calls log locally as records
  /// 1, 2, ... — so a restart recovers with plain Recover() and resumes
  /// subscribing at wal_base() + wal_records(). options.wal_dir must not
  /// already hold durable state.
  static Result<std::unique_ptr<InferenceSession>> BootstrapFollower(
      const MlnProgram& program, SessionOptions options,
      const std::string& snapshot_payload, uint64_t primary_position,
      ThreadPool* shared_pool = nullptr);

  /// Applies one shipped WAL record payload (a primary's delta record,
  /// verbatim) through the normal durable ApplyDelta path: the record is
  /// decoded, its logged epoch checked against this session's, and the
  /// delta re-applied — which re-encodes byte-identical bytes into the
  /// local log. Corruption on an epoch mismatch (the streams diverged).
  /// An InvalidArgument result mirrors the primary's own rejection of
  /// that delta and still advances the log, exactly like replay.
  Result<DeltaApplyResult> ApplyReplicatedRecord(const std::string& payload);

  /// fsync barrier on the local WAL, if any — promotion's seal.
  Status SyncWal();

  /// Applies one evidence delta end to end: delta grounding, dirty
  /// component re-search, marginal refresh. An effectively-empty delta
  /// returns the cached result without touching the clause set or any
  /// component. `trace`, if non-null, collects the delta's
  /// lifecycle spans (WAL append/fsync, grounding, per-component
  /// search); the finished trace lands in this session's trace ring and,
  /// above options.slow_delta_seconds, in the log. Tracing never affects
  /// results — it only reads clocks.
  Result<DeltaApplyResult> ApplyDelta(const EvidenceDelta& delta,
                                      TraceBuilder* trace = nullptr);

  /// Recent delta traces, newest last (the last 16 deltas).
  std::vector<DeltaTrace> RecentTraces() const { return traces_.Snapshot(); }

  /// Current MAP cost: sum of per-component best costs plus the
  /// evidence-determined fixed cost. Maintained incrementally.
  double map_cost() const;

  /// Best truth assignment per session atom.
  const std::vector<uint8_t>& truth() const { return truth_; }
  /// P(atom = true) per session atom (empty unless track_marginals).
  const std::vector<double>& marginals() const { return marginals_; }

  const AtomStore& atoms() const { return grounder_.atoms(); }
  const std::vector<GroundClause>& clauses() const {
    return grounder_.clauses();
  }
  const EvidenceDb& evidence() const { return grounder_.evidence(); }
  const MlnProgram& program() const { return program_; }
  bool hard_contradiction() const { return grounder_.hard_contradiction(); }
  size_t num_components() const { return comps_.num_components(); }
  const SessionStats& stats() const { return stats_; }
  /// Cost of the clauses the evidence resolved during grounding.
  double fixed_cost() const { return grounder_.fixed_cost(); }

  /// Re-evaluates the current truth against the full clause set in place
  /// (EvalStoreCost), plus the fixed cost — the sum TuffyEngine::Run
  /// reports as total_cost. Equals map_cost() up to floating-point
  /// association; used by tests and the serving smoke check.
  double EvalCurrentCost() const;

  /// Resident footprint for SessionManager admission: grounder state,
  /// truth/marginal vectors, component structure.
  size_t EstimateBytes() const;

  /// Primary-timeline position of this log's record 0 (see
  /// WalHeaderInfo::base_records). Constant after Open/Recover/Bootstrap.
  uint64_t wal_base() const { return wal_base_; }
  /// Delta records in the local log (local timeline).
  uint64_t wal_records() const { return wal_records_; }
  /// Local records whose bytes have reached the log's durability level
  /// (post-fsync under wal_fsync, post-append otherwise). Safe to read
  /// from any thread; the replication source ships only up to here, so a
  /// follower never applies a record the primary could lose.
  uint64_t committed_records() const {
    return committed_.load(std::memory_order_acquire);
  }

 private:
  /// Per-component wall-clock bounds captured by pool workers. Each
  /// worker writes only its own element (disjoint indices), so the
  /// arrays need no synchronization beyond the TaskGroup join; they are
  /// turned into spans after Wait(), on the applying thread.
  struct ComponentTiming {
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
    uint64_t mcsat_start_ns = 0;
    uint64_t mcsat_end_ns = 0;
  };

  /// How one component's search ended: its flip budget (or cost 0, or
  /// nothing to search), the exact solver, or the warm stagnation rule.
  enum class SearchEnd : uint8_t { kFlips, kExact, kStale };

  /// Runs searches on `shared_pool` if given, else on an owned pool of
  /// options_.num_threads workers (inline for a single thread).
  void AttachPool(ThreadPool* shared_pool);

  /// Searches the given components (and refreshes their marginals),
  /// writing per-component cost/flip slots and the global truth slices.
  /// `cold` selects the initial-assignment policy; warm runs start from
  /// the previous MAP truth and stop once they stagnate.
  void SearchComponents(const std::vector<size_t>& dirty, bool cold,
                        DeltaApplyResult* result,
                        TraceBuilder* trace = nullptr);
  /// `local_of_atom` is the BuildSubProblem remap scratch the dirty
  /// components share.
  void SearchOneComponent(size_t comp, uint64_t budget, bool cold,
                          uint64_t search_seed, uint64_t mcsat_seed,
                          AtomId* local_of_atom, ComponentTiming* timing,
                          SearchEnd* end);

  /// Closes the root span, pushes the finished trace into the ring,
  /// logs it if the delta breached slow_delta_seconds, and stamps the
  /// flight recorder. No-op trace handling when `trace` is null.
  void FinishDeltaTrace(TraceBuilder* trace, int apply_span, double seconds,
                        const DeltaApplyResult* result);

  /// Serializes the full session state and writes it as snapshot
  /// `wal_records_` (atomically; see durability/snapshot.h).
  Status WriteSnapshot();

  /// Writes the WAL header (timeline `base_records`) and snapshot 0 under
  /// wal.log.init, then renames it to wal.log — the commit point. A
  /// crash before the rename leaves only litter the next initialization
  /// overwrites: the directory is never wedged half-initialized.
  Status PublishWal(uint64_t base_records);

  /// Inverse of WriteSnapshot's payload, applied to a freshly-built
  /// session. Corruption on any mismatch (including the program/options
  /// fingerprints, which must equal the caller's).
  Status RestoreFromSnapshot(const std::string& payload, uint64_t program_fp,
                             uint64_t options_fp);

  const MlnProgram& program_;
  SessionOptions options_;
  DeltaGrounder grounder_;

  std::unique_ptr<ThreadPool> owned_pool_;
  ThreadPool* pool_ = nullptr;  // null = run inline

  ComponentSet comps_;
  std::vector<double> comp_cost_;
  std::vector<uint64_t> comp_flips_;
  std::vector<uint8_t> truth_;
  std::vector<double> marginals_;

  /// Delta epoch, folded into per-component seed derivation so repeated
  /// re-searches of one component use fresh, decorrelated streams.
  /// Restoring it restores the session's RNG stream positions — the seeds
  /// of every future search are a function of (options.seed, epoch_,
  /// component), never of wall clock or history.
  uint64_t epoch_ = 0;
  bool open_ = false;
  SessionStats stats_;

  /// Recent finished delta traces (kTrace wire query): TraceRing's
  /// default capacity, the last 16 deltas.
  TraceRing traces_;

  // ---- Durability state (all inert for a volatile session).
  std::unique_ptr<WalWriter> wal_;
  /// Delta records logged so far; doubles as the snapshot sequence
  /// number ("state after consuming N WAL records").
  uint64_t wal_records_ = 0;
  /// Mirror of wal_records_ published after each durability barrier, for
  /// cross-thread readers (committed_records()).
  std::atomic<uint64_t> committed_{0};
  /// Primary-timeline offset of the local log (header base_records).
  uint64_t wal_base_ = 0;
  uint32_t deltas_since_snapshot_ = 0;
  /// Set when a WAL append/sync or snapshot write failed: the durable
  /// log no longer reflects the resident state, so every later delta is
  /// refused rather than silently served non-durably.
  bool durable_failed_ = false;
  /// True while Recover replays the WAL: suppresses logging and
  /// snapshotting (the records being applied are already durable).
  bool replaying_ = false;
  uint64_t program_fp_ = 0;
  uint64_t options_fp_ = 0;
};

}  // namespace tuffy

#endif  // TUFFY_SERVE_INFERENCE_SESSION_H_
