#include "ground/grounding.h"

#include <cassert>
#include <cmath>

#include "obs/metrics.h"
#include "storage/evidence_side_tables.h"
#include "util/logging.h"
#include "util/mem_tracker.h"
#include "util/timer.h"

namespace tuffy {

namespace {
/// Flush granularity of the batched MemTracker charge.
constexpr size_t kChargeFlushBytes = size_t{1} << 20;
constexpr AtomId kNoAtom = static_cast<AtomId>(-1);
/// Safety bound on active-closure iterations.
constexpr int kMaxClosureIterations = 64;

/// Mirrors a finished grounding run's stats into the registry. Called
/// once per Finalize, not per row — the per-row paths stay untouched.
void StampGroundingMetrics(const GroundingStats& stats) {
  static Counter* candidates =
      MetricsRegistry::Global().GetCounter("ground.candidates");
  static Counter* pruned =
      MetricsRegistry::Global().GetCounter("ground.pruned.antijoin");
  candidates->Add(stats.candidates);
  pruned->Add(stats.pruned_by_antijoin);
}
}  // namespace

GroundingContext::GroundingContext(const MlnProgram& program,
                                   const EvidenceDb& evidence,
                                   GroundingOptions options)
    : program_(program), evidence_(evidence), options_(options) {
  dense_.resize(program.num_predicates());
}

GroundingContext::~GroundingContext() {
  if (charged_bytes_ > 0) {
    MemTracker::Global().Release(MemCategory::kGrounding, charged_bytes_);
  }
}

void GroundingContext::ChargeBytes(size_t bytes) {
  pending_charge_ += bytes;
  if (pending_charge_ >= kChargeFlushBytes) FlushCharge();
}

void GroundingContext::FlushCharge() {
  if (pending_charge_ == 0) return;
  MemTracker::Global().Allocate(MemCategory::kGrounding, pending_charge_);
  charged_bytes_ += pending_charge_;
  pending_charge_ = 0;
}

// ------------------------------------------------------- dense interner

const std::vector<int32_t>* GroundingContext::TypeDenseIndex(
    const std::string& type) {
  auto it = type_dense_.find(type);
  if (it == type_dense_.end()) {
    const std::vector<ConstantId>& domain = program_.symbols().Domain(type);
    std::vector<int32_t> index(program_.symbols().num_constants(), -1);
    for (size_t i = 0; i < domain.size(); ++i) {
      if (domain[i] >= 0 && domain[i] < static_cast<int32_t>(index.size())) {
        index[domain[i]] = static_cast<int32_t>(i);
      }
    }
    it = type_dense_.emplace(type, std::move(index)).first;
  }
  return &it->second;
}

void GroundingContext::InitDense(PredicateId pred) {
  DenseInterner& di = dense_[pred];
  const Predicate& p = program_.predicate(pred);
  di.state = DenseInterner::State::kUnusable;
  size_t slots = 1;
  std::vector<size_t> sizes(p.arity());
  for (int i = 0; i < p.arity(); ++i) {
    const std::vector<ConstantId>& dom = program_.symbols().Domain(p.arg_types[i]);
    if (dom.empty()) return;
    sizes[i] = dom.size();
    if (slots > kMaxDenseSlots / dom.size()) return;  // overflow / too wide
    slots *= dom.size();
  }
  di.stride.assign(p.arity(), 1);
  for (int i = p.arity() - 2; i >= 0; --i) {
    di.stride[i] = di.stride[i + 1] * sizes[i + 1];
  }
  di.arg_dense.resize(p.arity());
  for (int i = 0; i < p.arity(); ++i) {
    di.arg_dense[i] = TypeDenseIndex(p.arg_types[i]);
  }
  di.cells.assign(slots, kCellUnseen);
  ChargeBytes(slots * sizeof(int32_t));
  di.state = DenseInterner::State::kUsable;
}

int32_t* GroundingContext::DenseCell(const GroundAtom& atom) {
  if (!options_.dense_interner) return nullptr;
  DenseInterner& di = dense_[atom.pred];
  if (di.state == DenseInterner::State::kUninit) InitDense(atom.pred);
  if (di.state != DenseInterner::State::kUsable) return nullptr;
  size_t key = 0;
  for (size_t i = 0; i < atom.args.size(); ++i) {
    const ConstantId a = atom.args[i];
    const std::vector<int32_t>& index = *di.arg_dense[i];
    if (a < 0 || static_cast<size_t>(a) >= index.size()) return nullptr;
    const int32_t d = index[a];
    if (d < 0) return nullptr;
    key += static_cast<size_t>(d) * di.stride[i];
  }
  return &di.cells[key];
}

int32_t GroundingContext::AllocCid(const GroundAtom& atom) {
  const int32_t cid = static_cast<int32_t>(cand_atoms_.size());
  cand_atoms_.push_back(atom);
  cand_active_.push_back(0);
  return cid;
}

int32_t GroundingContext::InternScratchAtom(bool* known_truth_value) {
  int32_t* cell = DenseCell(scratch_atom_);
  if (cell != nullptr) {
    int32_t v = *cell;
    if (v == kCellUnseen) {
      const Truth truth = evidence_.Lookup(program_, scratch_atom_);
      if (truth == Truth::kUnknown) {
        v = AllocCid(scratch_atom_);
      } else {
        v = truth == Truth::kTrue ? kCellKnownTrue : kCellKnownFalse;
      }
      *cell = v;
    }
    if (v >= 0) return v;
    *known_truth_value = v == kCellKnownTrue;
    return -1;
  }

  // Hash fallback (wide predicates, out-of-domain constants).
  // Closed-world atoms are never unknown; answer directly instead of
  // polluting the interner (existential expansion probes huge numbers of
  // closed-world instances).
  if (program_.predicate(scratch_atom_.pred).closed_world) {
    *known_truth_value =
        evidence_.Lookup(program_, scratch_atom_) == Truth::kTrue;
    return -1;
  }
  auto it = cand_ids_.find(scratch_atom_);
  if (it == cand_ids_.end()) {
    Truth truth = evidence_.Lookup(program_, scratch_atom_);
    CandInfo info;
    if (truth == Truth::kUnknown) {
      info.cid = AllocCid(scratch_atom_);
      info.known_true = 0;
    } else {
      info.cid = -1;
      info.known_true = truth == Truth::kTrue ? 1 : 0;
    }
    it = cand_ids_.emplace(scratch_atom_, info).first;
  }
  const CandInfo& info = it->second;
  if (info.cid < 0) {
    *known_truth_value = info.known_true != 0;
    return -1;
  }
  return info.cid;
}

int32_t GroundingContext::InternUnknownAtom(const GroundAtom& atom) {
  int32_t* cell = DenseCell(atom);
  if (cell != nullptr) {
    if (*cell == kCellUnseen) *cell = AllocCid(atom);
    assert(*cell >= 0 && "atom unknown locally but known globally");
    return *cell;
  }
  auto it = cand_ids_.find(atom);
  if (it == cand_ids_.end()) {
    CandInfo info;
    info.cid = AllocCid(atom);
    info.known_true = 0;
    it = cand_ids_.emplace(atom, info).first;
  }
  assert(it->second.cid >= 0 && "atom unknown locally but known globally");
  return it->second.cid;
}

// ------------------------------------------------------------ resolution

bool GroundingContext::ExpandLiteral(const Literal& lit,
                                     const Assignment& assignment,
                                     bool* satisfied) {
  // Resolve ground argument values; collect existential positions.
  scratch_atom_.pred = lit.pred;
  scratch_atom_.args.resize(lit.args.size());
  int exist_pos_buf[8];
  int num_exist = 0;
  for (size_t i = 0; i < lit.args.size(); ++i) {
    const Term& t = lit.args[i];
    if (!t.is_var) {
      scratch_atom_.args[i] = t.id;
    } else if (assignment[t.id] >= 0) {
      scratch_atom_.args[i] = assignment[t.id];
    } else {
      if (num_exist < 8) exist_pos_buf[num_exist] = static_cast<int>(i);
      ++num_exist;
      scratch_atom_.args[i] = -1;
    }
  }

  if (num_exist == 0) {
    bool known_true = false;
    int32_t cid = InternScratchAtom(&known_true);
    if (cid >= 0) {
      scratch_open_.push_back(lit.positive ? cid + 1 : -(cid + 1));
    } else if (known_true == lit.positive) {
      *satisfied = true;
      return false;
    }
    return true;
  }

  // Expand the existential positions over their domains. Distinct
  // existential variables expand independently per literal because
  // disjunction distributes over existential quantification.
  assert(num_exist <= 8 && "too many existential positions in one literal");
  const Predicate& pred = program_.predicate(lit.pred);

  // Map positions sharing one variable to a single counter.
  std::vector<VarId> exist_vars;
  int var_of_pos[8];
  for (int i = 0; i < num_exist; ++i) {
    VarId v = lit.args[exist_pos_buf[i]].id;
    int idx = -1;
    for (size_t j = 0; j < exist_vars.size(); ++j) {
      if (exist_vars[j] == v) idx = static_cast<int>(j);
    }
    if (idx < 0) {
      idx = static_cast<int>(exist_vars.size());
      exist_vars.push_back(v);
    }
    var_of_pos[i] = idx;
  }
  std::vector<const std::vector<ConstantId>*> var_domains(exist_vars.size(),
                                                          nullptr);
  for (int i = 0; i < num_exist; ++i) {
    if (var_domains[var_of_pos[i]] == nullptr) {
      var_domains[var_of_pos[i]] =
          &program_.symbols().Domain(pred.arg_types[exist_pos_buf[i]]);
      if (var_domains[var_of_pos[i]]->empty()) return true;
    }
  }
  // Closed-world predicate: resolve the whole existential disjunct with
  // one probe of the pattern-count index instead of a domain scan.
  // (Falls back to the scan when one existential variable occupies two
  // positions, since the index cannot enforce that equality.)
  if (pred.closed_world &&
      exist_vars.size() == static_cast<size_t>(num_exist)) {
    uint32_t mask = 0;
    scratch_bound_vals_.clear();
    for (size_t i = 0; i < lit.args.size(); ++i) {
      bool is_exist = false;
      for (int e = 0; e < num_exist; ++e) {
        if (exist_pos_buf[e] == static_cast<int>(i)) is_exist = true;
      }
      if (!is_exist) {
        mask |= (1u << i);
        scratch_bound_vals_.push_back(scratch_atom_.args[i]);
      }
    }
    uint64_t product = 1;
    for (const auto* d : var_domains) product *= d->size();
    uint64_t true_rows =
        CountMatchingTrueRows(lit.pred, mask, scratch_bound_vals_);
    bool some_instance_true = true_rows > 0;
    bool some_instance_false = true_rows < product;
    if ((lit.positive && some_instance_true) ||
        (!lit.positive && some_instance_false)) {
      *satisfied = true;
      return false;
    }
    return true;  // every disjunct false: nothing to add
  }

  std::vector<size_t> counter(exist_vars.size(), 0);
  while (true) {
    for (int i = 0; i < num_exist; ++i) {
      scratch_atom_.args[exist_pos_buf[i]] =
          (*var_domains[var_of_pos[i]])[counter[var_of_pos[i]]];
    }
    bool known_true = false;
    int32_t cid = InternScratchAtom(&known_true);
    if (cid >= 0) {
      scratch_open_.push_back(lit.positive ? cid + 1 : -(cid + 1));
    } else if (known_true == lit.positive) {
      *satisfied = true;
      return false;
    }
    // Advance the odometer.
    size_t k = 0;
    for (; k < counter.size(); ++k) {
      if (++counter[k] < var_domains[k]->size()) break;
      counter[k] = 0;
    }
    if (k == counter.size()) break;
  }
  return true;
}

uint32_t GroundingContext::CountMatchingTrueRows(
    PredicateId pred, uint32_t mask,
    const std::vector<ConstantId>& bound_vals) {
  PatternKey key{pred, mask};
  auto it = pattern_index_.find(key);
  if (it == pattern_index_.end()) {
    BoundValsCount counts;
    if (options_.side_tables != nullptr) {
      // One predicate's true rows, straight off the side table — no scan
      // of the whole evidence map.
      const IdTable& rows = options_.side_tables->true_rows(pred);
      for (size_t r = 0; r < rows.num_rows(); ++r) {
        std::vector<ConstantId> vals;
        for (size_t i = 0; i < rows.num_cols(); ++i) {
          if (mask & (1u << i)) {
            vals.push_back(static_cast<ConstantId>(rows.col(i)[r]));
          }
        }
        ++counts[std::move(vals)];
      }
    } else {
      for (const auto& [atom, truth] : evidence_.entries()) {
        if (atom.pred != pred || !truth) continue;
        std::vector<ConstantId> vals;
        for (size_t i = 0; i < atom.args.size(); ++i) {
          if (mask & (1u << i)) vals.push_back(atom.args[i]);
        }
        ++counts[std::move(vals)];
      }
    }
    it = pattern_index_.emplace(key, std::move(counts)).first;
  }
  auto cit = it->second.find(bound_vals);
  return cit == it->second.end() ? 0 : cit->second;
}

void GroundingContext::ResolveCandidate(int clause_idx,
                                        const Assignment& assignment,
                                        uint64_t skip_lit_mask) {
  const Clause& clause = program_.clauses()[clause_idx];
  if (!clause.hard && clause.weight == 0.0 &&
      !options_.keep_zero_weight_clauses) {
    return;
  }

  bool satisfied = false;
  // Equality disjuncts are fully determined by the assignment.
  for (const EqualityConstraint& eq : clause.equalities) {
    ConstantId lhs = eq.lhs.is_var ? assignment[eq.lhs.id] : eq.lhs.id;
    ConstantId rhs = eq.rhs.is_var ? assignment[eq.rhs.id] : eq.rhs.id;
    if ((lhs == rhs) == eq.equal) {
      satisfied = true;
      break;
    }
  }

  scratch_open_.clear();
  if (!satisfied) {
    for (size_t li = 0; li < clause.literals.size(); ++li) {
      if (li < 64 && ((skip_lit_mask >> li) & 1)) continue;
      if (!ExpandLiteral(clause.literals[li], assignment, &satisfied)) break;
    }
  }

  if (satisfied) {
    ++result_.stats.satisfied_by_evidence;
    if (!clause.hard && clause.weight < 0) {
      // A negative-weight clause that evidence makes true is permanently
      // violated (Section 2.2) and contributes constant cost.
      result_.fixed_cost += -clause.weight;
    }
    return;
  }
  if (scratch_open_.empty()) {
    // Constantly false.
    if (clause.hard) {
      result_.hard_contradiction = true;
      ++result_.stats.hard_violations;
      TUFFY_LOG(Warning) << "hard clause " << clause.rule_id
                         << " violated by evidence";
    } else if (clause.weight > 0) {
      result_.fixed_cost += clause.weight;
    }
    return;
  }
  const uint32_t begin = static_cast<uint32_t>(pending_lits_.size());
  pending_lits_.insert(pending_lits_.end(), scratch_open_.begin(),
                       scratch_open_.end());
  pending_.push_back(PendingClause{
      clause_idx, begin, static_cast<uint32_t>(pending_lits_.size())});
  ChargeBytes(sizeof(PendingClause) + scratch_open_.size() * sizeof(CandLit));
}

void GroundingContext::AddCandidate(int clause_idx,
                                    const Assignment& assignment) {
  assert(!finalized_);
  ++result_.stats.candidates;
  ResolveCandidate(clause_idx, assignment, /*skip_lit_mask=*/0);
}

void GroundingContext::BuildChunkPlan(int clause_idx,
                                      const std::vector<VarId>& out_vars,
                                      uint64_t skip_lit_mask) {
  ChunkPlan& p = chunk_plan_;
  p = ChunkPlan{};
  p.clause_idx = clause_idx;
  p.skip_lit_mask = skip_lit_mask;
  p.valid = true;

  const Clause& clause = program_.clauses()[clause_idx];
  p.zero_weight_skip = !clause.hard && clause.weight == 0.0 &&
                       !options_.keep_zero_weight_clauses;
  var_col_.assign(clause.num_vars, -1);
  for (size_t c = 0; c < out_vars.size(); ++c) {
    var_col_[out_vars[c]] = static_cast<int>(c);
  }
  if (p.zero_weight_skip) {
    p.usable = true;
    return;
  }
  if (!options_.dense_interner) return;  // generic per-row path

  for (const EqualityConstraint& eq : clause.equalities) {
    ChunkEqPlan ep;
    ep.equal = eq.equal;
    if (eq.lhs.is_var) {
      ep.col_l = var_col_[eq.lhs.id];
      if (ep.col_l < 0) return;  // existential term: generic path
    } else {
      ep.const_l = eq.lhs.id;
    }
    if (eq.rhs.is_var) {
      ep.col_r = var_col_[eq.rhs.id];
      if (ep.col_r < 0) return;
    } else {
      ep.const_r = eq.rhs.id;
    }
    p.eqs.push_back(ep);
  }

  for (size_t li = 0; li < clause.literals.size(); ++li) {
    if (li < 64 && ((skip_lit_mask >> li) & 1)) continue;
    const Literal& lit = clause.literals[li];
    for (const Term& t : lit.args) {
      if (t.is_var && var_col_[t.id] < 0) return;  // existential: generic
    }
    DenseInterner& di = dense_[lit.pred];
    if (di.state == DenseInterner::State::kUninit) InitDense(lit.pred);
    if (di.state != DenseInterner::State::kUsable) return;
    ChunkLitPlan lp;
    lp.lit_idx = static_cast<int>(li);
    lp.positive = lit.positive;
    lp.cells = di.cells.data();
    lp.base = 0;
    for (size_t i = 0; i < lit.args.size(); ++i) {
      const Term& t = lit.args[i];
      const std::vector<int32_t>& index = *di.arg_dense[i];
      if (!t.is_var) {
        if (t.id < 0 || static_cast<size_t>(t.id) >= index.size() ||
            index[t.id] < 0) {
          return;  // constant outside its domain: generic path
        }
        lp.base += static_cast<size_t>(index[t.id]) * di.stride[i];
      } else {
        lp.vars.push_back(ChunkLitPlan::VarTerm{
            var_col_[t.id], di.stride[i], index.data(), index.size()});
      }
    }
    p.lits.push_back(std::move(lp));
  }
  p.usable = true;
}

int32_t GroundingContext::ResolveUnseenCell(const Literal& lit,
                                            const ColumnChunk& chunk,
                                            uint32_t row,
                                            const ChunkLitPlan& lp,
                                            int32_t* cell) {
  scratch_atom_.pred = lit.pred;
  scratch_atom_.args.resize(lit.args.size());
  for (size_t i = 0; i < lit.args.size(); ++i) {
    const Term& t = lit.args[i];
    scratch_atom_.args[i] =
        t.is_var ? static_cast<ConstantId>(chunk.col(var_col_[t.id])[row])
                 : t.id;
  }
  const Truth truth = evidence_.Lookup(program_, scratch_atom_);
  int32_t v;
  if (truth == Truth::kUnknown) {
    v = AllocCid(scratch_atom_);
  } else {
    v = truth == Truth::kTrue ? kCellKnownTrue : kCellKnownFalse;
  }
  *cell = v;
  return v;
}

void GroundingContext::AddCandidateChunk(int clause_idx,
                                         const ColumnChunk& chunk,
                                         const std::vector<VarId>& out_vars,
                                         uint64_t skip_lit_mask) {
  assert(!finalized_);
  const Clause& clause = program_.clauses()[clause_idx];
  if (!chunk_plan_.valid || chunk_plan_.clause_idx != clause_idx ||
      chunk_plan_.skip_lit_mask != skip_lit_mask) {
    BuildChunkPlan(clause_idx, out_vars, skip_lit_mask);
  }
  result_.stats.candidates += chunk.num_rows;
  const ChunkPlan& p = chunk_plan_;

  if (!p.usable) {
    // Generic per-row fallback (existential positions, wide predicates,
    // out-of-domain constants).
    scratch_assignment_.assign(clause.num_vars, -1);
    for (uint32_t r = 0; r < chunk.num_rows; ++r) {
      for (size_t c = 0; c < out_vars.size(); ++c) {
        scratch_assignment_[out_vars[c]] =
            static_cast<ConstantId>(chunk.col(c)[r]);
      }
      ResolveCandidate(clause_idx, scratch_assignment_, skip_lit_mask);
    }
    return;
  }
  if (p.zero_weight_skip) return;

  for (uint32_t r = 0; r < chunk.num_rows; ++r) {
    bool satisfied = false;
    for (const ChunkEqPlan& eq : p.eqs) {
      const ConstantId lhs =
          eq.col_l >= 0 ? static_cast<ConstantId>(chunk.col(eq.col_l)[r])
                        : eq.const_l;
      const ConstantId rhs =
          eq.col_r >= 0 ? static_cast<ConstantId>(chunk.col(eq.col_r)[r])
                        : eq.const_r;
      if ((lhs == rhs) == eq.equal) {
        satisfied = true;
        break;
      }
    }

    scratch_open_.clear();
    if (!satisfied) {
      for (const ChunkLitPlan& lp : p.lits) {
        size_t key = lp.base;
        bool in_dense = true;
        for (const ChunkLitPlan::VarTerm& vt : lp.vars) {
          const int64_t v = chunk.col(vt.col)[r];
          if (v < 0 || static_cast<size_t>(v) >= vt.index_size) {
            in_dense = false;
            break;
          }
          const int32_t d = vt.index[v];
          if (d < 0) {
            in_dense = false;
            break;
          }
          key += static_cast<size_t>(d) * vt.stride;
        }
        int32_t cid;
        bool known_true = false;
        if (in_dense) {
          int32_t cell = lp.cells[key];
          if (cell == kCellUnseen) {
            cell = ResolveUnseenCell(clause.literals[lp.lit_idx], chunk, r, lp,
                                     &lp.cells[key]);
          }
          if (cell >= 0) {
            cid = cell;
          } else {
            cid = -1;
            known_true = cell == kCellKnownTrue;
          }
        } else {
          // Out-of-domain constant in the row: hash-interner fallback.
          scratch_atom_.pred = clause.literals[lp.lit_idx].pred;
          const Literal& lit = clause.literals[lp.lit_idx];
          scratch_atom_.args.resize(lit.args.size());
          for (size_t i = 0; i < lit.args.size(); ++i) {
            const Term& t = lit.args[i];
            scratch_atom_.args[i] =
                t.is_var
                    ? static_cast<ConstantId>(chunk.col(var_col_[t.id])[r])
                    : t.id;
          }
          cid = InternScratchAtom(&known_true);
        }
        if (cid >= 0) {
          scratch_open_.push_back(lp.positive ? cid + 1 : -(cid + 1));
        } else if (known_true == lp.positive) {
          satisfied = true;
          break;
        }
      }
    }

    if (satisfied) {
      ++result_.stats.satisfied_by_evidence;
      if (!clause.hard && clause.weight < 0) {
        result_.fixed_cost += -clause.weight;
      }
      continue;
    }
    if (scratch_open_.empty()) {
      if (clause.hard) {
        result_.hard_contradiction = true;
        ++result_.stats.hard_violations;
        TUFFY_LOG(Warning) << "hard clause " << clause.rule_id
                           << " violated by evidence";
      } else if (clause.weight > 0) {
        result_.fixed_cost += clause.weight;
      }
      continue;
    }
    const uint32_t begin = static_cast<uint32_t>(pending_lits_.size());
    pending_lits_.insert(pending_lits_.end(), scratch_open_.begin(),
                         scratch_open_.end());
    pending_.push_back(PendingClause{
        clause_idx, begin, static_cast<uint32_t>(pending_lits_.size())});
    ChargeBytes(sizeof(PendingClause) +
                scratch_open_.size() * sizeof(CandLit));
  }
}

void GroundingContext::AbsorbPending(GroundingContext* local) {
  assert(!finalized_ && !local->finalized_);
  if (cand_atoms_.empty() && pending_.empty()) {
    // First absorb into an empty owner: steal the local context's
    // interner and pending arena wholesale — candidate-id numbering is
    // internal, so the result is identical to a remap, minus the work.
    cand_atoms_.swap(local->cand_atoms_);
    cand_active_.swap(local->cand_active_);
    cand_ids_.swap(local->cand_ids_);
    dense_.swap(local->dense_);
    type_dense_.swap(local->type_dense_);
    pending_.swap(local->pending_);
    pending_lits_.swap(local->pending_lits_);
    chunk_plan_ = ChunkPlan{};        // cached cell pointers moved away
    local->chunk_plan_ = ChunkPlan{};
    charged_bytes_ += local->charged_bytes_;
    pending_charge_ += local->pending_charge_;
    local->charged_bytes_ = 0;
    local->pending_charge_ = 0;
    const GroundingResult& lr0 = local->result_;
    result_.stats.candidates += lr0.stats.candidates;
    result_.stats.satisfied_by_evidence += lr0.stats.satisfied_by_evidence;
    result_.stats.pruned_by_antijoin += lr0.stats.pruned_by_antijoin;
    result_.stats.hard_violations += lr0.stats.hard_violations;
    result_.fixed_cost += lr0.fixed_cost;
    result_.hard_contradiction =
        result_.hard_contradiction || lr0.hard_contradiction;
    return;
  }
  // Remap local candidate ids lazily: only atoms that survived into a
  // pending clause are interned here.
  std::vector<int32_t> remap(local->cand_atoms_.size(), -1);
  pending_.reserve(pending_.size() + local->pending_.size());
  pending_lits_.reserve(pending_lits_.size() + local->pending_lits_.size());
  for (const PendingClause& pc : local->pending_) {
    const uint32_t begin = static_cast<uint32_t>(pending_lits_.size());
    for (uint32_t i = pc.begin; i < pc.end; ++i) {
      CandLit l = local->pending_lits_[i];
      const int32_t cid = l > 0 ? l - 1 : -l - 1;
      int32_t& m = remap[cid];
      if (m < 0) m = InternUnknownAtom(local->cand_atoms_[cid]);
      pending_lits_.push_back(l > 0 ? m + 1 : -(m + 1));
    }
    pending_.push_back(PendingClause{
        pc.clause_idx, begin, static_cast<uint32_t>(pending_lits_.size())});
  }
  local->pending_.clear();
  local->pending_lits_.clear();
  // Take over the local context's MemTracker charge (charged and
  // not-yet-flushed alike) instead of double-counting.
  charged_bytes_ += local->charged_bytes_;
  pending_charge_ += local->pending_charge_;
  local->charged_bytes_ = 0;
  local->pending_charge_ = 0;

  const GroundingResult& lr = local->result_;
  result_.stats.candidates += lr.stats.candidates;
  result_.stats.satisfied_by_evidence += lr.stats.satisfied_by_evidence;
  result_.stats.pruned_by_antijoin += lr.stats.pruned_by_antijoin;
  result_.stats.hard_violations += lr.stats.hard_violations;
  result_.fixed_cost += lr.fixed_cost;
  result_.hard_contradiction =
      result_.hard_contradiction || lr.hard_contradiction;
}

// --------------------------------------------------------------- closure

bool GroundingContext::IsActive(const PendingClause& pc) const {
  const Clause& clause = program_.clauses()[pc.clause_idx];
  if (clause.hard || clause.weight > 0) {
    // Violable iff every negative literal's atom can be true, i.e. is
    // active (unknown atoms default to false under lazy inference).
    for (uint32_t i = pc.begin; i < pc.end; ++i) {
      const CandLit l = pending_lits_[i];
      if (l < 0 && cand_active_[-l - 1] == 0) return false;
    }
    return true;
  }
  // Negative weight: violated when the clause is true, i.e. some literal
  // can be made true.
  for (uint32_t i = pc.begin; i < pc.end; ++i) {
    const CandLit l = pending_lits_[i];
    if (l < 0) return true;  // atom defaults to false => literal true
    if (cand_active_[l - 1] != 0) return true;
  }
  return false;
}

void GroundingContext::Emit(const PendingClause& pc) {
  const Clause& clause = program_.clauses()[pc.clause_idx];
  scratch_emit_lits_.clear();
  for (uint32_t i = pc.begin; i < pc.end; ++i) {
    const CandLit l = pending_lits_[i];
    const int32_t cid = l > 0 ? l - 1 : -l - 1;
    AtomId id = cid_atom_[cid];
    if (id == kNoAtom) {
      id = result_.atoms.GetOrCreate(cand_atoms_[cid]);
      cid_atom_[cid] = id;
    }
    scratch_emit_lits_.push_back(MakeLit(id, l > 0));
    cand_active_[cid] = 1;
  }
  emitted_.Add(scratch_emit_lits_, clause.hard ? 0.0 : clause.weight,
               clause.hard, clause.rule_id);
}

void GroundingContext::BuildClauses() {
  // The closure is done with the candidate state; free it before the
  // merge allocates the store.
  std::vector<PendingClause>().swap(pending_);
  std::vector<CandLit>().swap(pending_lits_);
  std::vector<GroundAtom>().swap(cand_atoms_);
  std::vector<uint8_t>().swap(cand_active_);
  std::vector<AtomId>().swap(cid_atom_);
  std::vector<DenseInterner>().swap(dense_);
  chunk_plan_ = ChunkPlan{};
  cand_ids_.clear();
  MemTracker::Global().Release(MemCategory::kGrounding, charged_bytes_);
  charged_bytes_ = 0;
  pending_charge_ = 0;
  result_.clauses = emitted_.Build(options_.num_threads);
}

Result<GroundingResult> GroundingContext::Finalize() {
  if (finalized_) return Status::Internal("Finalize called twice");
  finalized_ = true;
  Timer timer;
  cid_atom_.assign(cand_atoms_.size(), kNoAtom);
  // Every pending clause is emitted at most once, with at most its
  // pending literals: one allocation per emission array, no regrowth.
  emitted_.Reserve(pending_.size(), pending_lits_.size());

  if (!options_.lazy_closure) {
    for (const PendingClause& pc : pending_) Emit(pc);
    BuildClauses();
    result_.stats.seconds += timer.ElapsedSeconds();
    StampGroundingMetrics(result_.stats);
    return std::move(result_);
  }

  // Active-closure fixpoint (Appendix A.3): emitting a clause activates
  // its atoms, which may activate further clauses. The literal arena is
  // left untouched across iterations (spans stay valid); only the span
  // list is compacted.
  bool changed = true;
  int iterations = 0;
  std::vector<PendingClause> still_pending;
  while (changed && iterations < kMaxClosureIterations) {
    changed = false;
    ++iterations;
    still_pending.clear();
    still_pending.reserve(pending_.size());
    for (const PendingClause& pc : pending_) {
      if (IsActive(pc)) {
        Emit(pc);
        changed = true;
      } else {
        still_pending.push_back(pc);
      }
    }
    pending_.swap(still_pending);
  }
  result_.stats.closure_iterations = iterations;
  result_.stats.pruned_inactive = pending_.size();
  BuildClauses();
  result_.stats.seconds += timer.ElapsedSeconds();
  StampGroundingMetrics(result_.stats);
  return std::move(result_);
}

}  // namespace tuffy
