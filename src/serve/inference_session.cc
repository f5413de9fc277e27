#include "serve/inference_session.h"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "durability/serialize.h"
#include "durability/snapshot.h"
#include "infer/component_walksat.h"
#include "infer/exact/exact_solver.h"
#include "infer/mcsat.h"
#include "infer/walksat.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace tuffy {

namespace {

constexpr uint32_t kWalMagic = 0x54465957;  // "TFYW"
constexpr uint32_t kWalVersion = 1;
constexpr uint8_t kWalRecordHeader = 0;
constexpr uint8_t kWalRecordDelta = 1;

/// Floor of a warm re-search's patience, in flips per component atom
/// (see SearchOneComponent).
constexpr uint64_t kWarmPatiencePerAtom = 500;

/// Fingerprint of every option that can alter session results. Mirrors
/// ProgramFingerprint's role: durable state restored under different
/// knobs would diverge from the original session on the first delta, so
/// recovery refuses it up front.
uint64_t OptionsFingerprint(const SessionOptions& o) {
  uint64_t h = 14695981039346656037ull;
  auto mix = [&h](uint64_t v) {
    const unsigned char* p = reinterpret_cast<const unsigned char*>(&v);
    for (size_t i = 0; i < sizeof(v); ++i) {
      h ^= p[i];
      h *= 1099511628211ull;
    }
  };
  auto mixd = [&mix](double d) {
    uint64_t bits;
    std::memcpy(&bits, &d, sizeof(bits));
    mix(bits);
  };
  mix(o.total_flips);
  mixd(o.p_random);
  mixd(o.hard_weight);
  mix(o.init_random ? 1 : 0);
  mix(o.seed);
  mix(o.track_marginals ? 1 : 0);
  mix(o.exact_fast_path ? 1 : 0);
  mix(static_cast<uint64_t>(o.mcsat_samples));
  mix(static_cast<uint64_t>(o.mcsat_burn_in));
  mix(o.grounding.keep_zero_weight_clauses ? 1 : 0);
  mix(o.grounding.binding_level_deltas ? 1 : 0);
  mix(o.grounding.dense_interner ? 1 : 0);
  mix(o.optimizer.enable_hash_join ? 1 : 0);
  mix(o.optimizer.enable_merge_join ? 1 : 0);
  mix(o.optimizer.fixed_join_order ? 1 : 0);
  mix(o.optimizer.disable_predicate_pushdown ? 1 : 0);
  mix(o.optimizer.enable_vectorized ? 1 : 0);
  mix(o.optimizer.analyze ? 1 : 0);
  mix(o.optimizer.enable_antijoin_pruning ? 1 : 0);
  return h;
}

void EncodeAtom(const GroundAtom& atom, BinaryWriter* out) {
  out->I32(atom.pred);
  out->U16(static_cast<uint16_t>(atom.args.size()));
  for (ConstantId c : atom.args) out->I32(c);
}

bool DecodeAtom(BinaryReader* in, GroundAtom* atom) {
  atom->pred = in->I32();
  const uint16_t nargs = in->U16();
  atom->args.resize(nargs);
  for (uint16_t i = 0; i < nargs; ++i) atom->args[i] = in->I32();
  return in->ok();
}

/// One WAL delta record: the batch verbatim — original vector order and
/// all, because the net-op fold iterates a hash map built by inserting
/// in that order, and replay must walk the exact same insertion
/// sequence to reproduce the original binding-enumeration order.
void EncodeDeltaRecord(const EvidenceDelta& delta, uint64_t epoch,
                       BinaryWriter* out) {
  out->U8(kWalRecordDelta);
  out->U64(epoch);
  out->U32(static_cast<uint32_t>(delta.assertions.size()));
  for (const auto& [atom, truth] : delta.assertions) {
    EncodeAtom(atom, out);
    out->U8(truth ? 1 : 0);
  }
  out->U32(static_cast<uint32_t>(delta.retractions.size()));
  for (const GroundAtom& atom : delta.retractions) EncodeAtom(atom, out);
}

Status DecodeDeltaRecord(const std::string& payload, EvidenceDelta* delta,
                         uint64_t* epoch) {
  BinaryReader in(payload);
  if (in.U8() != kWalRecordDelta) {
    return Status::Corruption("wal record is not a delta record");
  }
  *epoch = in.U64();
  const uint32_t nassert = in.U32();
  if (!in.ok()) return Status::Corruption("wal delta record header");
  for (uint32_t i = 0; i < nassert; ++i) {
    GroundAtom atom;
    if (!DecodeAtom(&in, &atom)) {
      return Status::Corruption("wal delta record assertion");
    }
    delta->Assert(std::move(atom), in.U8() != 0);
  }
  const uint32_t nretract = in.U32();
  for (uint32_t i = 0; i < nretract; ++i) {
    GroundAtom atom;
    if (!DecodeAtom(&in, &atom)) {
      return Status::Corruption("wal delta record retraction");
    }
    delta->Retract(std::move(atom));
  }
  if (!in.Exhausted()) {
    return Status::Corruption("wal delta record has trailing bytes");
  }
  return Status::OK();
}

}  // namespace

Status ParseWalHeader(const std::string& payload, WalHeaderInfo* out) {
  BinaryReader hdr(payload);
  const uint8_t type = hdr.U8();
  const uint32_t magic = hdr.U32();
  out->version = hdr.U32();
  out->program_fp = hdr.U64();
  out->options_fp = hdr.U64();
  out->base_records = 0;
  if (!hdr.ok() || type != kWalRecordHeader || magic != kWalMagic) {
    return Status::Corruption("wal header record is malformed");
  }
  // base_records joined the header after version 1 shipped; absent means
  // an original-timeline log (base 0), so old logs stay recoverable.
  if (!hdr.Exhausted()) {
    out->base_records = hdr.U64();
    if (!hdr.ok() || !hdr.Exhausted()) {
      return Status::Corruption("wal header record has trailing bytes");
    }
  }
  if (out->version != kWalVersion) {
    return Status::Corruption(
        StrFormat("wal version %u not supported", out->version));
  }
  return Status::OK();
}

Status RebaseSnapshotPayloadForShipping(std::string* payload) {
  // Snapshot payload layout (WriteSnapshot): [u64 options_fp]
  // [u64 program_fp][u64 wal_records]... — the record counter is the
  // third u64, at byte offset 16.
  if (payload->size() < 24) {
    return Status::Corruption("snapshot payload too short to rebase");
  }
  const uint64_t zero = 0;
  std::memcpy(payload->data() + 16, &zero, sizeof(zero));
  return Status::OK();
}

Status ValidateSessionOptions(const SessionOptions& options) {
  if (options.p_random < 0.0 || options.p_random > 1.0) {
    return Status::InvalidArgument(
        StrFormat("p_random must be in [0, 1], got %g", options.p_random));
  }
  if (!(options.hard_weight > 0.0)) {
    return Status::InvalidArgument(StrFormat(
        "hard_weight must be positive, got %g", options.hard_weight));
  }
  if (options.num_threads <= 0) {
    return Status::InvalidArgument(StrFormat(
        "num_threads must be positive, got %d", options.num_threads));
  }
  if (options.track_marginals) {
    if (options.mcsat_samples <= 0) {
      return Status::InvalidArgument(StrFormat(
          "mcsat_samples must be positive, got %d", options.mcsat_samples));
    }
    if (options.mcsat_burn_in < 0) {
      return Status::InvalidArgument(
          StrFormat("mcsat_burn_in must be non-negative, got %d",
                    options.mcsat_burn_in));
    }
  }
  return Status::OK();
}

InferenceSession::InferenceSession(const MlnProgram& program,
                                   SessionOptions options)
    : program_(program),
      options_(options),
      grounder_(program, options.grounding, options.optimizer) {}

void InferenceSession::AttachPool(ThreadPool* shared_pool) {
  if (shared_pool != nullptr) {
    pool_ = shared_pool;
  } else if (options_.num_threads > 1) {
    owned_pool_ = std::make_unique<ThreadPool>(options_.num_threads);
    pool_ = owned_pool_.get();
  }
}

Status InferenceSession::PublishWal(uint64_t base_records) {
  const std::string wal_path = options_.wal_dir + "/wal.log";
  const std::string init_path = wal_path + ".init";
  TUFFY_ASSIGN_OR_RETURN(wal_, WalWriter::Create(init_path));
  BinaryWriter hdr;
  hdr.U8(kWalRecordHeader);
  hdr.U32(kWalMagic);
  hdr.U32(kWalVersion);
  hdr.U64(program_fp_);
  hdr.U64(options_fp_);
  hdr.U64(base_records);
  TUFFY_RETURN_IF_ERROR(wal_->Append(hdr.Take()));
  TUFFY_RETURN_IF_ERROR(wal_->Sync());
  TUFFY_RETURN_IF_ERROR(WriteSnapshot());
  if (std::rename(init_path.c_str(), wal_path.c_str()) != 0) {
    return Status::IOError(StrFormat("cannot publish wal %s: %s",
                                     wal_path.c_str(), std::strerror(errno)));
  }
  return SyncDir(options_.wal_dir);
}

Status InferenceSession::Open(const EvidenceDb& initial_evidence,
                              ThreadPool* shared_pool) {
  if (open_) return Status::Internal("session already open");
  TUFFY_RETURN_IF_ERROR(ValidateSessionOptions(options_));
  AttachPool(shared_pool);

  TUFFY_RETURN_IF_ERROR(grounder_.Initialize(initial_evidence));

  const size_t num_atoms = grounder_.atoms().num_atoms();
  truth_.assign(num_atoms, 0);
  if (options_.track_marginals) marginals_.assign(num_atoms, 0.5);

  comps_ = DetectComponents(num_atoms, grounder_.clauses());
  comp_cost_.assign(comps_.num_components(), 0.0);
  comp_flips_.assign(comps_.num_components(), 0);

  std::vector<size_t> all(comps_.num_components());
  for (size_t c = 0; c < all.size(); ++c) all[c] = c;
  DeltaApplyResult cold;
  SearchComponents(all, /*cold=*/true, &cold);

  if (!options_.wal_dir.empty()) {
    TUFFY_RETURN_IF_ERROR(EnsureDir(options_.wal_dir));
    const std::string wal_path = options_.wal_dir + "/wal.log";
    if (::access(wal_path.c_str(), F_OK) == 0) {
      return Status::AlreadyExists(
          "durable session state already present in " + options_.wal_dir +
          "; use InferenceSession::Recover");
    }
    program_fp_ = ProgramFingerprint(program_);
    options_fp_ = OptionsFingerprint(options_);
    // Snapshot 0 is the cold-start state: recovery never re-runs the cold
    // search, and the initial evidence never needs to be in the log.
    // Base 0: this session originates its own timeline.
    TUFFY_RETURN_IF_ERROR(PublishWal(/*base_records=*/0));
  }
  open_ = true;  // only a fully-initialized session accepts deltas
  return Status::OK();
}

Result<DeltaApplyResult> InferenceSession::ApplyDelta(
    const EvidenceDelta& delta, TraceBuilder* trace) {
  if (!open_) return Status::Internal("session not open");
  if (durable_failed_) {
    return Status::Internal(
        "durable logging failed on an earlier delta; recover the session "
        "from its wal_dir");
  }
  const int apply_span =
      trace != nullptr ? trace->BeginSpan("apply_delta") : -1;
  Timer delta_timer;

  // Log first, apply second (during recovery replay the record being
  // applied is already durable, so logging is suppressed). A record that
  // the grounder later rejects pre-mutation stays in the log harmlessly:
  // replay re-runs the same rejection.
  if (wal_ != nullptr && !replaying_) {
    BinaryWriter rec;
    EncodeDeltaRecord(delta, epoch_, &rec);
    Status logged;
    {
      ScopedSpan span(trace, "wal.append");
      logged = wal_->Append(rec.Take());
    }
    if (logged.ok() && options_.wal_fsync) {
      ScopedSpan span(trace, "wal.fsync");
      logged = wal_->Sync();
    }
    if (!logged.ok()) {
      durable_failed_ = true;
      return logged;
    }
    ++wal_records_;
    // Publish for the replication source: this record is now as durable
    // as the log's fsync policy makes it, so it may be shipped.
    committed_.store(wal_records_, std::memory_order_release);
  }

  GroundEdits edits;
  {
    ScopedSpan span(trace, "ground.delta");
    TUFFY_ASSIGN_OR_RETURN(edits, grounder_.ApplyDelta(delta));
  }
  static Counter* delta_count =
      MetricsRegistry::Global().GetCounter("serve.delta.count");
  static Counter* ground_count =
      MetricsRegistry::Global().GetCounter("ground.delta.count");
  static Counter* maintenance_rows =
      MetricsRegistry::Global().GetCounter("ground.maintenance.rows");
  static Histogram* delta_seconds =
      MetricsRegistry::Global().GetHistogram("serve.delta.seconds");
  delta_count->Add(1);
  ground_count->Add(1);
  maintenance_rows->Add(edits.maintenance_rows);
  ++stats_.deltas_applied;
  DeltaApplyResult result;
  result.seq = stats_.deltas_applied;
  result.edits = std::move(edits);
  if (result.edits.no_op) {
    // Cached result, verbatim: no component scan, no re-search.
    ++stats_.no_op_deltas;
    result.components_total = comps_.num_components();
    result.map_cost = map_cost();
    FinishDeltaTrace(trace, apply_span, delta_timer.ElapsedSeconds(),
                     &result);
    delta_seconds->Record(delta_timer.ElapsedSeconds());
    return result;
  }
  ++epoch_;

  const size_t prev_atoms = truth_.size();
  const size_t num_atoms = grounder_.atoms().num_atoms();
  if (num_atoms > prev_atoms) {
    truth_.resize(num_atoms, 0);
    if (options_.track_marginals) marginals_.resize(num_atoms, 0.5);
  }

  // Dirty-component computation: re-scan the clause table (one
  // union-find pass), then inherit cached state for every component that
  // contains no edited atom.
  std::vector<uint8_t> atom_dirty(num_atoms, 0);
  for (AtomId a : result.edits.dirty_atoms) atom_dirty[a] = 1;
  ComponentSet next = DetectComponents(num_atoms, grounder_.clauses());
  std::vector<int32_t> inherit = MapCleanComponents(comps_, next, atom_dirty);

  std::vector<double> next_cost(next.num_components(), 0.0);
  std::vector<size_t> dirty;
  for (size_t c = 0; c < next.num_components(); ++c) {
    if (inherit[c] >= 0) {
      next_cost[c] = comp_cost_[inherit[c]];
    } else {
      dirty.push_back(c);
    }
  }
  comps_ = std::move(next);
  comp_cost_ = std::move(next_cost);
  comp_flips_.assign(comps_.num_components(), 0);

  SearchComponents(dirty, /*cold=*/false, &result, trace);
  result.map_cost = map_cost();

  if ((wal_ != nullptr || replaying_) && options_.snapshot_every > 0 &&
      ++deltas_since_snapshot_ >= options_.snapshot_every) {
    // During replay the counter ticks (and resets) without writing, so
    // the post-recovery snapshot cadence lines up with the original
    // session's. The delta that triggered this snapshot is already in
    // the log, so even if the snapshot fails recovery covers it by
    // replay; but a failed snapshot still poisons the session — the
    // cadence contract ("replay at most snapshot_every records") is part
    // of durability.
    if (!replaying_) {
      ScopedSpan span(trace, "snapshot.write");
      Status snap = WriteSnapshot();
      if (!snap.ok()) {
        durable_failed_ = true;
        return snap;
      }
    }
    deltas_since_snapshot_ = 0;
  }
  delta_seconds->Record(delta_timer.ElapsedSeconds());
  FinishDeltaTrace(trace, apply_span, delta_timer.ElapsedSeconds(), &result);
  return result;
}

void InferenceSession::FinishDeltaTrace(TraceBuilder* trace, int apply_span,
                                        double seconds,
                                        const DeltaApplyResult* result) {
  FlightRecorder::Global().Recordf(
      "delta seq=%llu dirty=%zu/%zu flips=%llu stale=%llu %.3fms",
      static_cast<unsigned long long>(result->seq), result->components_dirty,
      result->components_total, static_cast<unsigned long long>(result->flips),
      static_cast<unsigned long long>(result->stale_stops), seconds * 1e3);
  if (trace == nullptr) return;
  trace->EndSpan(apply_span);
  DeltaTrace finished = trace->Finish(result->seq);
  if (options_.slow_delta_seconds > 0.0 &&
      seconds >= options_.slow_delta_seconds) {
    TUFFY_LOG(Warning) << "slow delta (" << seconds * 1e3 << " ms):\n"
                       << finished.Render();
  }
  traces_.Push(std::move(finished));
}

Status InferenceSession::WriteSnapshot() {
  BinaryWriter out;
  out.U64(options_fp_);
  out.U64(program_fp_);
  out.U64(wal_records_);
  out.U64(epoch_);
  out.U64(stats_.deltas_applied);
  out.U64(stats_.no_op_deltas);
  out.U64(stats_.components_researched);
  out.U64(stats_.flips);
  grounder_.SaveState(&out);
  out.U64(truth_.size());
  out.Bytes(truth_.data(), truth_.size());
  out.U64(marginals_.size());
  for (double m : marginals_) out.F64(m);
  out.U64(comp_cost_.size());
  for (double c : comp_cost_) out.F64(c);
  out.U64(comp_flips_.size());
  for (uint64_t f : comp_flips_) out.U64(f);
  return WriteSnapshotFile(options_.wal_dir, wal_records_, out.Take());
}

Status InferenceSession::RestoreFromSnapshot(const std::string& payload,
                                             uint64_t program_fp,
                                             uint64_t options_fp) {
  BinaryReader in(payload);
  if (in.U64() != options_fp) {
    return Status::Corruption(
        "snapshot was written under different session options");
  }
  if (in.U64() != program_fp) {
    return Status::Corruption("snapshot was written for a different program");
  }
  wal_records_ = in.U64();
  epoch_ = in.U64();
  stats_.deltas_applied = in.U64();
  stats_.no_op_deltas = in.U64();
  stats_.components_researched = in.U64();
  stats_.flips = in.U64();
  if (!in.ok()) return Status::Corruption("snapshot: session header");

  TUFFY_RETURN_IF_ERROR(grounder_.LoadState(&in));

  const size_t num_atoms = grounder_.atoms().num_atoms();
  const uint64_t truth_size = in.U64();
  if (!in.ok() || truth_size != num_atoms) {
    return Status::Corruption("snapshot: truth vector size mismatch");
  }
  truth_.resize(truth_size);
  in.Bytes(truth_.data(), truth_size);
  const uint64_t marg_size = in.U64();
  if (!in.ok() ||
      marg_size != (options_.track_marginals ? num_atoms : size_t{0})) {
    return Status::Corruption("snapshot: marginal vector size mismatch");
  }
  marginals_.resize(marg_size);
  for (uint64_t i = 0; i < marg_size; ++i) marginals_[i] = in.F64();

  comps_ = DetectComponents(num_atoms, grounder_.clauses());
  const uint64_t num_costs = in.U64();
  if (!in.ok() || num_costs != comps_.num_components()) {
    return Status::Corruption("snapshot: component cost size mismatch");
  }
  comp_cost_.resize(num_costs);
  for (uint64_t i = 0; i < num_costs; ++i) comp_cost_[i] = in.F64();
  const uint64_t num_flips = in.U64();
  if (!in.ok() || num_flips != num_costs) {
    return Status::Corruption("snapshot: component flips size mismatch");
  }
  comp_flips_.resize(num_flips);
  for (uint64_t i = 0; i < num_flips; ++i) comp_flips_[i] = in.U64();
  if (!in.Exhausted()) {
    return Status::Corruption("snapshot: trailing bytes");
  }

  program_fp_ = program_fp;
  options_fp_ = options_fp;
  open_ = true;
  return Status::OK();
}

Result<std::unique_ptr<InferenceSession>> InferenceSession::Recover(
    const MlnProgram& program, SessionOptions options,
    ThreadPool* shared_pool, RecoveryStats* stats) {
  if (options.wal_dir.empty()) {
    return Status::InvalidArgument("Recover requires options.wal_dir");
  }
  TUFFY_RETURN_IF_ERROR(ValidateSessionOptions(options));
  RecoveryStats rstats;

  const std::string wal_path = options.wal_dir + "/wal.log";
  TUFFY_ASSIGN_OR_RETURN(WalScan scan, ScanWal(wal_path));
  rstats.bytes_scanned = scan.valid_bytes + scan.truncated_bytes;
  rstats.truncated_bytes = scan.truncated_bytes;
  if (scan.payloads.empty()) {
    return Status::Corruption("wal at " + wal_path +
                              " has no intact header record");
  }

  const uint64_t program_fp = ProgramFingerprint(program);
  const uint64_t options_fp = OptionsFingerprint(options);
  WalHeaderInfo hdr;
  TUFFY_RETURN_IF_ERROR(ParseWalHeader(scan.payloads[0], &hdr));
  if (hdr.program_fp != program_fp || hdr.options_fp != options_fp) {
    return Status::Corruption(
        "wal belongs to a different program or session options");
  }
  rstats.wal_records_total = scan.payloads.size() - 1;

  // Newest snapshot first; a corrupt one (torn write that still got
  // renamed, bit rot) falls back to the next. Older snapshots just mean
  // a longer replay, never a wrong result.
  TUFFY_ASSIGN_OR_RETURN(std::vector<SnapshotRef> snaps,
                         ListSnapshots(options.wal_dir));
  std::unique_ptr<InferenceSession> session;
  Status last_failure = Status::OK();
  for (const SnapshotRef& ref : snaps) {
    ++rstats.snapshots_tried;
    Result<std::string> payload = ReadSnapshotFile(ref.path);
    // A half-restored session is unusable, so each attempt starts from a
    // fresh one.
    session = std::make_unique<InferenceSession>(program, options);
    Status restored =
        payload.ok()
            ? session->RestoreFromSnapshot(payload.value(), program_fp,
                                           options_fp)
            : payload.status();
    if (restored.ok()) {
      rstats.snapshot_seq = ref.seq;
      break;
    }
    // Any per-candidate failure — corruption, a file that vanished
    // between listing and reading, a transient IO error — means "try
    // the next older one": an older intact snapshot is always a
    // correct (if slower-to-replay) recovery point.
    session.reset();
    last_failure = restored;
  }
  if (session == nullptr) {
    std::string msg = "no usable snapshot in " + options.wal_dir;
    if (!last_failure.ok()) {
      msg += " (last failure: " + last_failure.ToString() + ")";
    }
    return Status::Corruption(msg);
  }
  bool tail_loss_rebase = false;
  if (session->wal_records_ > rstats.wal_records_total) {
    // The snapshot has absorbed records the (truncated) WAL no longer
    // holds — the tail loss ate into snapshotted history. The snapshot
    // is still the latest durable state and there is nothing to replay,
    // but its logical record count runs ahead of the file. Rebase the
    // counter onto the file so future appends line up with file record
    // positions again; without this the session would keep counting
    // from the snapshot seq, and the next recovery would skip that many
    // *file* records — silently dropping durable deltas appended after
    // this recovery. The re-anchor snapshot below makes the rebased seq
    // durable before any such append can happen.
    rstats.records_skipped = rstats.wal_records_total;
    session->wal_records_ = rstats.wal_records_total;
    tail_loss_rebase = true;
  } else {
    rstats.records_skipped = session->wal_records_;
  }
  session->AttachPool(shared_pool);

  // Replay the WAL suffix through the normal delta path. Bit-identity
  // with the original session holds because every source of order in
  // that path is deterministic given the same record stream (see
  // docs/DURABILITY.md).
  session->replaying_ = true;
  for (uint64_t i = 1 + rstats.records_skipped; i < scan.payloads.size();
       ++i) {
    EvidenceDelta delta;
    uint64_t rec_epoch = 0;
    TUFFY_RETURN_IF_ERROR(
        DecodeDeltaRecord(scan.payloads[i], &delta, &rec_epoch));
    if (rec_epoch != session->epoch_) {
      return Status::Corruption(StrFormat(
          "wal record %llu logged at epoch %llu, session is at %llu",
          (unsigned long long)i, (unsigned long long)rec_epoch,
          (unsigned long long)session->epoch_));
    }
    Result<DeltaApplyResult> applied = session->ApplyDelta(delta);
    if (!applied.ok() &&
        applied.status().code() != StatusCode::kInvalidArgument) {
      // InvalidArgument = the original session rejected this delta
      // pre-mutation and logged it anyway (log-first); anything else is
      // real.
      return applied.status();
    }
    ++session->wal_records_;
    ++rstats.records_replayed;
  }
  session->replaying_ = false;

  // Drop the torn tail and continue appending where the valid log ends.
  if (scan.truncated_bytes > 0) {
    TUFFY_RETURN_IF_ERROR(TruncateFile(wal_path, scan.valid_bytes));
  }
  TUFFY_ASSIGN_OR_RETURN(session->wal_,
                         WalWriter::OpenAt(wal_path, scan.valid_bytes));
  session->program_fp_ = program_fp;
  session->options_fp_ = options_fp;
  session->wal_base_ = hdr.base_records;
  session->committed_.store(session->wal_records_,
                            std::memory_order_release);
  if (tail_loss_rebase) {
    // Re-anchor the durable timeline at the rebased position: the lost
    // records now live only in the loaded snapshot, so write the
    // restored state as snapshot <file record count> and then drop
    // every snapshot whose seq points past the end of the file — on the
    // rebased timeline those seqs would over-skip records appended from
    // here on. Write first, delete second: a crash in between leaves
    // both copies of this state, never neither. Snapshots older than
    // the rebase point stay; they can no longer reconstruct the lost
    // records, and a recovery that falls back to one fails loudly on
    // the replay epoch check instead of diverging silently.
    TUFFY_RETURN_IF_ERROR(session->WriteSnapshot());
    TUFFY_RETURN_IF_ERROR(
        RemoveSnapshotsAbove(options.wal_dir, session->wal_records_));
  }
  if (stats != nullptr) *stats = rstats;
  return session;
}

Result<std::unique_ptr<InferenceSession>> InferenceSession::BootstrapFollower(
    const MlnProgram& program, SessionOptions options,
    const std::string& snapshot_payload, uint64_t primary_position,
    ThreadPool* shared_pool) {
  if (options.wal_dir.empty()) {
    return Status::InvalidArgument(
        "BootstrapFollower requires options.wal_dir");
  }
  TUFFY_RETURN_IF_ERROR(ValidateSessionOptions(options));
  TUFFY_RETURN_IF_ERROR(EnsureDir(options.wal_dir));
  const std::string wal_path = options.wal_dir + "/wal.log";
  if (::access(wal_path.c_str(), F_OK) == 0) {
    return Status::AlreadyExists(
        "durable state already present in " + options.wal_dir +
        "; Recover it and re-subscribe from its position instead");
  }

  const uint64_t program_fp = ProgramFingerprint(program);
  const uint64_t options_fp = OptionsFingerprint(options);
  auto session = std::make_unique<InferenceSession>(program, options);
  session->AttachPool(shared_pool);
  // Restore before touching the disk: a snapshot from a primary with a
  // different program or inference options is refused by the fingerprint
  // checks, leaving the directory empty rather than wedged.
  TUFFY_RETURN_IF_ERROR(
      session->RestoreFromSnapshot(snapshot_payload, program_fp, options_fp));
  if (session->wal_records_ != 0) {
    return Status::InvalidArgument(
        "shipped snapshot was not rebased to the follower timeline");
  }
  session->wal_base_ = primary_position;
  // Local snapshot 0 = the shipped state, so a restart recovers without
  // the primary's help.
  TUFFY_RETURN_IF_ERROR(session->PublishWal(primary_position));
  session->committed_.store(0, std::memory_order_release);
  return session;
}

Result<DeltaApplyResult> InferenceSession::ApplyReplicatedRecord(
    const std::string& payload) {
  EvidenceDelta delta;
  uint64_t rec_epoch = 0;
  TUFFY_RETURN_IF_ERROR(DecodeDeltaRecord(payload, &delta, &rec_epoch));
  if (rec_epoch != epoch_) {
    return Status::Corruption(StrFormat(
        "replicated record logged at epoch %llu, session is at %llu — the "
        "streams diverged",
        (unsigned long long)rec_epoch, (unsigned long long)epoch_));
  }
  // The normal durable path re-encodes the delta under the same epoch,
  // producing byte-identical local log records — the follower's WAL is a
  // suffix-for-suffix copy of the primary's.
  return ApplyDelta(delta);
}

Status InferenceSession::SyncWal() {
  if (wal_ == nullptr) return Status::OK();
  return wal_->Sync();
}

void InferenceSession::SearchComponents(const std::vector<size_t>& dirty,
                                        bool cold, DeltaApplyResult* result,
                                        TraceBuilder* trace) {
  Timer timer;
  result->components_total = comps_.num_components();
  result->components_dirty = dirty.size();

  const uint64_t total_atoms =
      std::max<size_t>(grounder_.atoms().num_atoms(), 1);
  // Two decorrelated per-epoch streams: one for search, one for MC-SAT.
  const uint64_t search_base = DeriveSeed(options_.seed, 2 * epoch_);
  const uint64_t mcsat_base = DeriveSeed(options_.seed, 2 * epoch_ + 1);

  const int search_span = trace != nullptr ? trace->BeginSpan("search") : -1;
  // Workers stamp their component's slot; slots become child spans after
  // the join. Indices are disjoint per worker, so no synchronization.
  std::vector<ComponentTiming> timings(trace != nullptr ? dirty.size() : 0);
  // Workers stamp disjoint slots; counted after the join.
  std::vector<SearchEnd> ends(dirty.size(), SearchEnd::kFlips);
  // Components are disjoint, so they share one remap scratch; left
  // uninitialized, it commits only the pages the dirty components touch.
  auto local_of_atom = std::make_unique_for_overwrite<AtomId[]>(
      grounder_.atoms().num_atoms());
  AtomId* local = local_of_atom.get();

  TaskGroup group(pool_);
  for (size_t i = 0; i < dirty.size(); ++i) {
    const size_t c = dirty[i];
    uint64_t budget = std::max<uint64_t>(
        1, ProportionalBudget(options_.total_flips, comps_.atoms[c].size(),
                              total_atoms));
    // Keyed by the component's smallest atom id — stable across thread
    // counts and scheduling order, so results are bit-identical for any
    // num_threads.
    const uint64_t comp_key = comps_.atoms[c][0];
    const uint64_t search_seed = DeriveSeed(search_base, comp_key);
    const uint64_t mcsat_seed = DeriveSeed(mcsat_base, comp_key);
    ComponentTiming* timing = timings.empty() ? nullptr : &timings[i];
    SearchEnd* end = &ends[i];
    group.Submit([this, c, budget, cold, search_seed, mcsat_seed, local,
                  timing, end] {
      SearchOneComponent(c, budget, cold, search_seed, mcsat_seed, local,
                         timing, end);
    });
  }
  group.Wait();

  if (trace != nullptr) {
    for (size_t i = 0; i < dirty.size(); ++i) {
      const ComponentTiming& t = timings[i];
      const int comp_span = trace->AddSpan(
          StrFormat("search.component[%llu]",
                    (unsigned long long)comps_.atoms[dirty[i]][0]),
          t.start_ns, t.end_ns);
      if (t.mcsat_end_ns > t.mcsat_start_ns) {
        // Explicit parent: the component span is already closed, so the
        // innermost-open-span default would mis-parent this one.
        trace->AddChildSpan("mcsat.refresh", t.mcsat_start_ns,
                            t.mcsat_end_ns, comp_span);
      }
    }
    trace->EndSpan(search_span);
  }

  for (size_t c : dirty) result->flips += comp_flips_[c];
  stats_.components_researched += dirty.size();
  for (SearchEnd e : ends) {
    stats_.components_exact += e == SearchEnd::kExact;
    result->stale_stops += e == SearchEnd::kStale;
  }
  stats_.flips += result->flips;
  result->search_seconds = timer.ElapsedSeconds();

  static Counter* researched =
      MetricsRegistry::Global().GetCounter("search.component.count");
  static Counter* flips = MetricsRegistry::Global().GetCounter("search.flips");
  static Counter* stale_stops =
      MetricsRegistry::Global().GetCounter("search.stale_stops");
  researched->Add(dirty.size());
  flips->Add(result->flips);
  stale_stops->Add(result->stale_stops);
}

void InferenceSession::SearchOneComponent(size_t comp, uint64_t budget,
                                          bool cold, uint64_t search_seed,
                                          uint64_t mcsat_seed,
                                          AtomId* local_of_atom,
                                          ComponentTiming* timing,
                                          SearchEnd* end) {
  if (timing != nullptr) timing->start_ns = TraceNowNs();
  const std::vector<AtomId>& comp_atoms = comps_.atoms[comp];
  if (comps_.clauses[comp].empty()) {
    // Clause-less singleton: nothing to search. The atom is either
    // evidence-determined (it left every clause when the evidence fixed
    // it — report that truth) or genuinely unconstrained (false default,
    // marginal exactly 1/2, matching an atom absent from a fresh MRF).
    comp_cost_[comp] = 0.0;
    comp_flips_[comp] = 0;
    for (AtomId a : comp_atoms) {
      Truth t = grounder_.evidence().Lookup(program_, grounder_.atoms().atom(a));
      truth_[a] = t == Truth::kTrue ? 1 : 0;
      if (options_.track_marginals) {
        marginals_[a] =
            t == Truth::kTrue ? 1.0 : (t == Truth::kFalse ? 0.0 : 0.5);
      }
    }
    if (timing != nullptr) timing->end_ns = TraceNowNs();
    return;
  }

  SubProblem sub = BuildSubProblem(grounder_.clauses(), comps_.clauses[comp],
                                   comp_atoms, local_of_atom);

  if (options_.exact_fast_path) {
    // Tractable fragment: exact MAP (and marginals) in linear time, no
    // flips. Deterministic, so warm vs cold and thread count cannot
    // change the answer; the per-component seeds stay derived either
    // way, so sampler components are unaffected by the routing.
    ExactSolveResult ex = TrySolveExact(sub.problem, options_.hard_weight,
                                        options_.track_marginals);
    if (ex.solved) {
      comp_cost_[comp] = ex.map_cost;
      comp_flips_[comp] = 0;
      for (size_t i = 0; i < comp_atoms.size(); ++i) {
        truth_[comp_atoms[i]] = ex.truth[i];
        if (options_.track_marginals) {
          marginals_[comp_atoms[i]] = ex.marginals[i];
        }
      }
      *end = SearchEnd::kExact;
      if (timing != nullptr) timing->end_ns = TraceNowNs();
      return;
    }
  }

  WalkSatOptions wopts;
  wopts.p_random = options_.p_random;
  wopts.hard_weight = options_.hard_weight;
  std::vector<uint8_t> init(comp_atoms.size());
  if (cold) {
    wopts.init_random = options_.init_random;
  } else {
    // Warm start from the session's current MAP truth (atoms new this
    // epoch default to false).
    for (size_t i = 0; i < comp_atoms.size(); ++i) {
      init[i] = truth_[comp_atoms[i]];
    }
    wopts.initial = &init;
  }

  // A warm start is usually optimal already or nearly so (on RC streams
  // its search last improves at flip 1 at the median), yet it would burn
  // its whole budget whenever the optimum violates soft clauses. So it
  // stops once `patience` flips in a row found no new best: budget/8, but
  // at least kWarmPatiencePerAtom flips per atom, because improvement gaps
  // reached 403 flips per atom at low budgets, where budget/8 alone ended
  // searches early (docs/SERVING.md). Cold searches start random and keep
  // the full budget.
  const uint64_t patience =
      cold ? IncrementalWalkSat::kNoPatience
           : std::max<uint64_t>(budget / 8,
                                kWarmPatiencePerAtom * comp_atoms.size());
  Rng rng(search_seed);
  IncrementalWalkSat search(&sub.problem, wopts, &rng);
  if (search.RunFlips(budget, patience) < budget &&
      search.stale_flips() >= patience) {
    *end = SearchEnd::kStale;
  }
  comp_cost_[comp] = search.best_cost();
  comp_flips_[comp] = search.flips();
  const std::vector<uint8_t>& best = search.best_truth();
  for (size_t i = 0; i < comp_atoms.size(); ++i) {
    truth_[comp_atoms[i]] = best[i];
  }

  if (options_.track_marginals) {
    if (timing != nullptr) timing->mcsat_start_ns = TraceNowNs();
    McSatOptions mopts;
    mopts.num_samples = options_.mcsat_samples;
    mopts.burn_in = options_.mcsat_burn_in;
    mopts.hard_weight = options_.hard_weight;
    McSatResult mr = RunMcSat(sub.problem, mopts, mcsat_seed);
    for (size_t i = 0; i < comp_atoms.size(); ++i) {
      marginals_[comp_atoms[i]] = mr.marginals[i];
    }
    if (timing != nullptr) timing->mcsat_end_ns = TraceNowNs();
  }
  if (timing != nullptr) timing->end_ns = TraceNowNs();
}

double InferenceSession::map_cost() const {
  double cost = grounder_.fixed_cost();
  for (double c : comp_cost_) cost += c;
  return cost;
}

double InferenceSession::EvalCurrentCost() const {
  return EvalStoreCost(grounder_.clauses(), truth_, options_.hard_weight) +
         grounder_.fixed_cost();
}

size_t InferenceSession::EstimateBytes() const {
  size_t bytes = grounder_.EstimateBytes();
  bytes += truth_.capacity() * sizeof(uint8_t);
  bytes += marginals_.capacity() * sizeof(double);
  bytes += comp_cost_.capacity() * sizeof(double) +
           comp_flips_.capacity() * sizeof(uint64_t);
  bytes += comps_.component_of_atom.capacity() * sizeof(int32_t);
  for (const std::vector<AtomId>& v : comps_.atoms) {
    bytes += v.capacity() * sizeof(AtomId);
  }
  for (const std::vector<uint32_t>& v : comps_.clauses) {
    bytes += v.capacity() * sizeof(uint32_t);
  }
  return bytes;
}

}  // namespace tuffy
