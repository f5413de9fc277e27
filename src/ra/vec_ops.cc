#include "ra/vec_ops.h"

#include <algorithm>

#include "util/rng.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace tuffy {

namespace {

/// Accumulates inclusive wall time into `*acc` on scope exit.
class ScopedSeconds {
 public:
  explicit ScopedSeconds(double* acc) : acc_(acc) {}
  ~ScopedSeconds() { *acc_ += timer_.ElapsedSeconds(); }

 private:
  Timer timer_;
  double* acc_;
};

size_t NextPow2(size_t n) {
  size_t p = 16;
  while (p < n) p <<= 1;
  return p;
}

bool EvalPredicates(const std::vector<VecPredicate>& predicates,
                    const ColumnChunk& chunk, uint32_t row) {
  for (const VecPredicate& p : predicates) {
    if (p.kind == VecPredicate::Kind::kColEqConst) {
      if (chunk.col(p.col_a)[row] != p.value) return false;
    } else {
      if (chunk.col(p.col_a)[row] != chunk.col(p.col_b)[row]) return false;
    }
  }
  return true;
}

/// Hashes rows [0, rows) of the key columns `cols` into `out`, a column
/// at a time: one SplitMix64 round per column folds it into the hash.
void HashKeyColumns(const std::vector<const int64_t*>& cols, size_t rows,
                    std::vector<uint64_t>* out) {
  out->assign(rows, 0);
  uint64_t* h = out->data();
  for (const int64_t* col : cols) {
    for (size_t r = 0; r < rows; ++r) {
      h[r] = SplitMix64(h[r] ^ static_cast<uint64_t>(col[r]));
    }
  }
}

/// True when row `a` of the key columns `xs` equals row `b` of `ys`.
bool SameKey(const std::vector<const int64_t*>& xs, size_t a,
             const std::vector<const int64_t*>& ys, size_t b) {
  for (size_t k = 0; k < xs.size(); ++k) {
    if (xs[k][a] != ys[k][b]) return false;
  }
  return true;
}

/// Walks the anti-joins (of type AntiJoin) at the top of a plan of Ops
/// and returns how many rows they dropped between them.
template <typename AntiJoin, typename Op>
uint64_t PrunedByAntiJoins(Op* op) {
  const uint64_t out_rows = op->rows_produced();
  while (dynamic_cast<AntiJoin*>(op) != nullptr) {
    op->ForEachChild([&](Op* child) { op = child; });
  }
  return op->rows_produced() - out_rows;
}

}  // namespace

// --------------------------------------------------------------- KeySlots

void KeySlots::Reset(size_t rows) {
  const size_t cap = NextPow2(rows * 2);
  slots_.assign(cap, Slot{});
  mask_ = cap - 1;
}

// ---------------------------------------------------------------- VecScan

Status VecScanOp::Open() {
  pos_ = 0;
  rows_produced_ = 0;
  chunks_produced_ = 0;
  return Status::OK();
}

Result<bool> VecScanOp::NextChunk(ColumnChunk* out) {
  ScopedSeconds t(&seconds_);
  if (pos_ >= table_->num_rows()) return false;
  const size_t rows =
      std::min<size_t>(kVecChunkRows, table_->num_rows() - pos_);
  out->Reset(table_->num_cols());
  // Borrow the table's columns: a view per column, no copies.
  for (size_t c = 0; c < table_->num_cols(); ++c) {
    out->SetView(c, table_->col(c).data() + pos_);
  }
  out->num_rows = static_cast<uint32_t>(rows);
  pos_ += rows;
  rows_produced_ += rows;
  ++chunks_produced_;
  return true;
}

// -------------------------------------------------------------- VecFilter

Status VecFilterOp::Open() {
  rows_produced_ = 0;
  chunks_produced_ = 0;
  ScopedSeconds t(&seconds_);
  return child_->Open();
}

Result<bool> VecFilterOp::NextChunk(ColumnChunk* out) {
  ScopedSeconds t(&seconds_);
  while (true) {
    TUFFY_ASSIGN_OR_RETURN(bool has, child_->NextChunk(&scratch_));
    if (!has) return false;
    sel_.clear();
    for (uint32_t r = 0; r < scratch_.num_rows; ++r) {
      if (EvalPredicates(predicates_, scratch_, r)) sel_.push_back(r);
    }
    if (sel_.empty()) continue;
    out->Reset(scratch_.num_cols());
    for (size_t c = 0; c < scratch_.num_cols(); ++c) {
      const int64_t* src = scratch_.col(c);
      out->cols[c].reserve(sel_.size());
      for (uint32_t r : sel_) out->cols[c].push_back(src[r]);
    }
    out->SealOwned();
    out->num_rows = static_cast<uint32_t>(sel_.size());
    rows_produced_ += out->num_rows;
    ++chunks_produced_;
    return true;
  }
}

std::string VecFilterOp::name() const {
  return StrFormat("VecFilter(%zu preds)", predicates_.size());
}

// ------------------------------------------------------------- VecProject

Status VecProjectOp::Open() {
  rows_produced_ = 0;
  chunks_produced_ = 0;
  ScopedSeconds t(&seconds_);
  return child_->Open();
}

Result<bool> VecProjectOp::NextChunk(ColumnChunk* out) {
  ScopedSeconds t(&seconds_);
  TUFFY_ASSIGN_OR_RETURN(bool has, child_->NextChunk(&scratch_));
  if (!has) return false;
  out->Reset(columns_.size());
  // Forward the child's views — projection moves no data.
  for (size_t i = 0; i < columns_.size(); ++i) {
    out->SetView(i, scratch_.col(columns_[i]));
  }
  out->num_rows = scratch_.num_rows;
  rows_produced_ += out->num_rows;
  ++chunks_produced_;
  return true;
}

std::string VecProjectOp::name() const {
  return StrFormat("VecProject(%zu cols)", columns_.size());
}

// ------------------------------------------------------------ VecHashJoin

VecHashJoinOp::VecHashJoinOp(VecOpPtr left, VecOpPtr right,
                             std::vector<JoinKey> keys)
    : left_(std::move(left)), right_(std::move(right)), keys_(std::move(keys)) {
}

Status VecHashJoinOp::Open() {
  ScopedSeconds t(&seconds_);
  rows_produced_ = 0;
  chunks_produced_ = 0;
  TUFFY_RETURN_IF_ERROR(left_->Open());
  TUFFY_RETURN_IF_ERROR(right_->Open());

  // Materialize the build side column-wise.
  build_cols_.assign(right_->num_output_cols(), {});
  build_rows_ = 0;
  ColumnChunk chunk;
  while (true) {
    auto has = right_->NextChunk(&chunk);
    if (!has.ok()) return has.status();
    if (!has.value()) break;
    for (size_t c = 0; c < build_cols_.size(); ++c) {
      const int64_t* src = chunk.col(c);
      build_cols_[c].insert(build_cols_[c].end(), src, src + chunk.num_rows);
    }
    build_rows_ += chunk.num_rows;
  }

  // Rows are inserted in reverse so each key's chain lists build rows in
  // ascending (insertion) order — the order HashJoinOp's bucket vectors
  // emit.
  build_key_cols_.clear();
  for (const JoinKey& k : keys_) {
    build_key_cols_.push_back(build_cols_[k.right_col].data());
  }
  std::vector<uint64_t> hashes;
  HashKeyColumns(build_key_cols_, build_rows_, &hashes);
  slots_.Reset(build_rows_);
  next_.assign(build_rows_, -1);
  for (size_t i = build_rows_; i-- > 0;) {
    KeySlots::Slot& slot = slots_.Find(hashes[i], [&](int32_t r) {
      return SameKey(build_key_cols_, r, build_key_cols_, i);
    });
    next_[i] = slot.row;
    slot.hash = hashes[i];
    slot.row = static_cast<int32_t>(i);
  }

  probe_valid_ = false;
  probe_row_ = 0;
  chain_ = -1;
  return Status::OK();
}

Result<bool> VecHashJoinOp::NextChunk(ColumnChunk* out) {
  ScopedSeconds t(&seconds_);
  const size_t ncols_left = left_->num_output_cols();
  out->Reset(num_output_cols());
  if (build_rows_ == 0) return false;
  for (auto& col : out->cols) col.reserve(kVecChunkRows);
  while (out->num_rows < kVecChunkRows) {
    if (chain_ < 0) {
      // Current probe row exhausted: advance, refilling the probe chunk
      // as needed.
      if (probe_valid_) ++probe_row_;
      if (!probe_valid_ || probe_row_ >= probe_.num_rows) {
        TUFFY_ASSIGN_OR_RETURN(bool has, left_->NextChunk(&probe_));
        if (!has) {
          probe_valid_ = false;
          break;
        }
        probe_valid_ = true;
        probe_row_ = 0;
        probe_key_cols_.clear();
        for (const JoinKey& k : keys_) {
          probe_key_cols_.push_back(probe_.col(k.left_col));
        }
        HashKeyColumns(probe_key_cols_, probe_.num_rows, &probe_hash_);
      }
      const uint32_t row = probe_row_;
      chain_ = slots_.Find(probe_hash_[row], [&](int32_t b) {
        return SameKey(build_key_cols_, b, probe_key_cols_, row);
      }).row;
      continue;
    }
    for (size_t c = 0; c < ncols_left; ++c) {
      out->cols[c].push_back(probe_.col(c)[probe_row_]);
    }
    for (size_t c = 0; c < build_cols_.size(); ++c) {
      out->cols[ncols_left + c].push_back(build_cols_[c][chain_]);
    }
    ++out->num_rows;
    chain_ = next_[chain_];
  }
  if (out->num_rows == 0) return false;
  out->SealOwned();
  rows_produced_ += out->num_rows;
  ++chunks_produced_;
  return true;
}

void VecHashJoinOp::Close() {
  left_->Close();
  right_->Close();
  build_cols_.clear();
  slots_.Clear();
  next_.clear();
  build_rows_ = 0;
}

std::string VecHashJoinOp::name() const {
  return StrFormat("VecHashJoin(keys=%zu)", keys_.size());
}

// ----------------------------------------------------------- VecCrossJoin

Status VecCrossJoinOp::Open() {
  ScopedSeconds t(&seconds_);
  rows_produced_ = 0;
  chunks_produced_ = 0;
  TUFFY_RETURN_IF_ERROR(left_->Open());
  TUFFY_RETURN_IF_ERROR(right_->Open());
  right_cols_.assign(right_->num_output_cols(), {});
  right_rows_ = 0;
  ColumnChunk chunk;
  while (true) {
    auto has = right_->NextChunk(&chunk);
    if (!has.ok()) return has.status();
    if (!has.value()) break;
    for (size_t c = 0; c < right_cols_.size(); ++c) {
      const int64_t* src = chunk.col(c);
      right_cols_[c].insert(right_cols_[c].end(), src, src + chunk.num_rows);
    }
    right_rows_ += chunk.num_rows;
  }
  probe_valid_ = false;
  probe_row_ = 0;
  right_pos_ = 0;
  return Status::OK();
}

Result<bool> VecCrossJoinOp::NextChunk(ColumnChunk* out) {
  ScopedSeconds t(&seconds_);
  const size_t ncols_left = left_->num_output_cols();
  out->Reset(num_output_cols());
  if (right_rows_ == 0) return false;
  for (auto& col : out->cols) col.reserve(kVecChunkRows);
  while (out->num_rows < kVecChunkRows) {
    if (!probe_valid_ || right_pos_ >= right_rows_) {
      if (probe_valid_ && right_pos_ >= right_rows_) {
        ++probe_row_;
        right_pos_ = 0;
      }
      if (!probe_valid_ || probe_row_ >= probe_.num_rows) {
        TUFFY_ASSIGN_OR_RETURN(bool has, left_->NextChunk(&probe_));
        if (!has) {
          probe_valid_ = false;
          break;
        }
        probe_valid_ = true;
        probe_row_ = 0;
        right_pos_ = 0;
      }
    }
    // Emit the current left row against a whole run of right rows:
    // a value splat per left column, a bulk copy per right column.
    const size_t run = std::min<size_t>(kVecChunkRows - out->num_rows,
                                        right_rows_ - right_pos_);
    for (size_t c = 0; c < ncols_left; ++c) {
      out->cols[c].insert(out->cols[c].end(), run,
                          probe_.col(c)[probe_row_]);
    }
    for (size_t c = 0; c < right_cols_.size(); ++c) {
      out->cols[ncols_left + c].insert(
          out->cols[ncols_left + c].end(),
          right_cols_[c].begin() + right_pos_,
          right_cols_[c].begin() + right_pos_ + run);
    }
    out->num_rows += static_cast<uint32_t>(run);
    right_pos_ += run;
  }
  if (out->num_rows == 0) return false;
  out->SealOwned();
  rows_produced_ += out->num_rows;
  ++chunks_produced_;
  return true;
}

void VecCrossJoinOp::Close() {
  left_->Close();
  right_->Close();
  right_cols_.clear();
  right_rows_ = 0;
}

// ------------------------------------------------------------ VecAntiJoin

VecAntiJoinOp::VecAntiJoinOp(VecOpPtr child, AntiJoinRef ref)
    : child_(std::move(child)), ref_(std::move(ref)) {
  CompileAntiJoinKeys(ref_, &const_checks_, &dup_checks_, &key_build_cols_,
                      &key_probe_cols_);
}

Status VecAntiJoinOp::Open() {
  ScopedSeconds t(&seconds_);
  rows_produced_ = 0;
  chunks_produced_ = 0;
  match_all_ = false;
  build_keys_ = 0;

  const IdTable& build = *ref_.build;
  build_key_cols_.clear();
  for (int c : key_build_cols_) build_key_cols_.push_back(build.col(c).data());
  std::vector<uint64_t> hashes;
  HashKeyColumns(build_key_cols_, build.num_rows(), &hashes);
  slots_.Reset(build.num_rows());
  for (size_t r = 0; r < build.num_rows(); ++r) {
    if (!AntiJoinBuildRowQualifies(build, r, const_checks_, dup_checks_)) {
      continue;
    }
    if (key_build_cols_.empty()) {
      // Fully-ground literal already satisfied by evidence: every child
      // row is pruned.
      match_all_ = true;
      break;
    }
    KeySlots::Slot& slot = slots_.Find(hashes[r], [&](int32_t b) {
      return SameKey(build_key_cols_, b, build_key_cols_, r);
    });
    if (slot.row < 0) {
      slot.hash = hashes[r];
      slot.row = static_cast<int32_t>(r);
      ++build_keys_;
    }
  }
  return child_->Open();
}

Result<bool> VecAntiJoinOp::NextChunk(ColumnChunk* out) {
  ScopedSeconds t(&seconds_);
  while (true) {
    TUFFY_ASSIGN_OR_RETURN(bool has, child_->NextChunk(&scratch_));
    if (!has) return false;
    // match_all (fully-ground literal satisfied by evidence) drains the
    // child instead of short-circuiting: the pruned-row accounting reads
    // the child's row counter, and it must cover these rows too (and
    // the Volcano AntiJoinOp drains identically, keeping stats equal
    // across executors).
    if (match_all_) continue;
    if (build_keys_ == 0) {
      // Nothing to prune: forward the child chunk's views unchanged.
      out->Reset(scratch_.num_cols());
      for (size_t c = 0; c < scratch_.num_cols(); ++c) {
        out->SetView(c, scratch_.col(c));
      }
      out->num_rows = scratch_.num_rows;
      rows_produced_ += out->num_rows;
      ++chunks_produced_;
      return true;
    }
    probe_key_cols_.clear();
    for (int c : key_probe_cols_) probe_key_cols_.push_back(scratch_.col(c));
    HashKeyColumns(probe_key_cols_, scratch_.num_rows, &probe_hash_);
    sel_.clear();
    for (uint32_t r = 0; r < scratch_.num_rows; ++r) {
      const KeySlots::Slot& slot =
          slots_.Find(probe_hash_[r], [&](int32_t b) {
            return SameKey(build_key_cols_, b, probe_key_cols_, r);
          });
      if (slot.row < 0) sel_.push_back(r);
    }
    if (sel_.empty()) continue;
    out->Reset(scratch_.num_cols());
    for (size_t c = 0; c < scratch_.num_cols(); ++c) {
      const int64_t* src = scratch_.col(c);
      out->cols[c].reserve(sel_.size());
      for (uint32_t r : sel_) out->cols[c].push_back(src[r]);
    }
    out->SealOwned();
    out->num_rows = static_cast<uint32_t>(sel_.size());
    rows_produced_ += out->num_rows;
    ++chunks_produced_;
    return true;
  }
}

void VecAntiJoinOp::Close() {
  child_->Close();
  slots_.Clear();
  build_keys_ = 0;
}

// -------------------------------------------------------------- RowSource

Status RowSourceOp::Open() {
  ScopedSeconds t(&seconds_);
  rows_produced_ = 0;
  chunks_produced_ = 0;
  return root_->Open();
}

Result<bool> RowSourceOp::NextChunk(ColumnChunk* out) {
  ScopedSeconds t(&seconds_);
  const size_t num_cols = num_output_cols();
  out->Reset(num_cols);
  while (out->num_rows < kVecChunkRows) {
    TUFFY_ASSIGN_OR_RETURN(bool has, root_->Next(&row_));
    if (!has) break;
    for (size_t c = 0; c < num_cols; ++c) {
      if (!row_[c].is_int64()) {
        return Status::InvalidArgument("row source: value is not an int64 id");
      }
      out->cols[c].push_back(row_[c].int64());
    }
    ++out->num_rows;
  }
  if (out->num_rows == 0) return false;
  out->SealOwned();
  rows_produced_ += out->num_rows;
  ++chunks_produced_;
  return true;
}

// --------------------------------------------------------------- Helpers

Status ForEachChunk(VecOp* root,
                    const std::function<Status(const ColumnChunk&)>& fn) {
  TUFFY_RETURN_IF_ERROR(root->Open());
  ColumnChunk chunk;
  while (true) {
    auto has = root->NextChunk(&chunk);
    if (!has.ok()) return has.status();
    if (!has.value()) break;
    TUFFY_RETURN_IF_ERROR(fn(chunk));
  }
  root->Close();
  return Status::OK();
}

void AppendVecAnalyze(const VecOp* root, int depth, std::string* out) {
  *out += StrFormat("%*s%s: rows=%llu chunks=%llu time=%.3fms\n", depth * 2,
                    "", root->name().c_str(),
                    static_cast<unsigned long long>(root->rows_produced()),
                    static_cast<unsigned long long>(root->chunks_produced()),
                    root->seconds() * 1e3);
  if (const auto* source = dynamic_cast<const RowSourceOp*>(root)) {
    AppendAnalyze(source->volcano(), depth + 1, out);
    return;
  }
  root->ForEachChild(
      [&](const VecOp* child) { AppendVecAnalyze(child, depth + 1, out); });
}

uint64_t AntiJoinPrunedRows(const VecOp* root) {
  if (const auto* source = dynamic_cast<const RowSourceOp*>(root)) {
    return PrunedByAntiJoins<AntiJoinOp>(source->volcano());
  }
  return PrunedByAntiJoins<const VecAntiJoinOp>(root);
}

}  // namespace tuffy
