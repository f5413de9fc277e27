#include "infer/problem.h"

#include <cmath>

namespace tuffy {

namespace {

/// Adds one clause's Eq. 1 charge to `cost`: the single definition both
/// Problem::EvalCost and EvalStoreCost use.
inline void AddViolationCost(bool is_true, double w, bool is_hard,
                             double hard_weight, double* cost) {
  if (is_hard) {
    if (!is_true) *cost += hard_weight;
  } else if (w > 0) {
    if (!is_true) *cost += w;
  } else {
    if (is_true) *cost += -w;
  }
}

/// Appends one clause whose literals are map(src[i]), skipping any that
/// map to 0 (never a literal), with AddClause's normalization. The
/// builders below map store literals straight into the arena through it,
/// so no intermediate clause copy exists.
template <typename Map>
void AppendMapped(Problem* p, const Lit* src, size_t n, double w,
                  bool is_hard, Map map) {
  if (p->clause_offsets.empty()) p->clause_offsets.push_back(0);
  std::vector<Lit>& lits = p->lit_data;
  const size_t start = lits.size();
  bool taut = false;
  for (size_t i = 0; i < n; ++i) {
    const Lit l = map(src[i]);
    if (l == 0) continue;
    bool dup = false;
    for (size_t j = start; j < lits.size(); ++j) {
      if (lits[j] == l) {
        dup = true;
        break;
      }
      if (lits[j] == -l) taut = true;
    }
    if (!dup) lits.push_back(l);
  }
  p->clause_offsets.push_back(static_cast<uint32_t>(lits.size()));
  p->weight.push_back(w);
  p->abs_weight.push_back(std::fabs(w));
  p->hard.push_back(is_hard ? 1 : 0);
  p->positive.push_back((is_hard || w >= 0) ? 1 : 0);
  p->frozen.push_back(taut ? 1 : 0);
}

/// Sizes every column for `clauses` more clauses holding at most `lits`
/// literals, so a one-pass build allocates each column once.
void Reserve(Problem* p, size_t clauses, size_t lits) {
  p->clause_offsets.reserve(p->clause_offsets.size() + clauses + 1);
  p->lit_data.reserve(p->lit_data.size() + lits);
  p->weight.reserve(p->weight.size() + clauses);
  p->abs_weight.reserve(p->abs_weight.size() + clauses);
  p->hard.reserve(p->hard.size() + clauses);
  p->positive.reserve(p->positive.size() + clauses);
  p->frozen.reserve(p->frozen.size() + clauses);
}

}  // namespace

void Problem::Clear() {
  clause_offsets.clear();
  clause_offsets.push_back(0);
  lit_data.clear();
  weight.clear();
  abs_weight.clear();
  hard.clear();
  positive.clear();
  frozen.clear();
  num_atoms = 0;
}

void Problem::AddClause(const Lit* lits, size_t n, double w, bool is_hard) {
  AppendMapped(this, lits, n, w, is_hard, [](Lit l) { return l; });
}

size_t Problem::EstimateBytes() const {
  return clause_offsets.capacity() * sizeof(uint32_t) +
         lit_data.capacity() * sizeof(Lit) +
         weight.capacity() * sizeof(double) +
         abs_weight.capacity() * sizeof(double) +
         hard.capacity() * sizeof(uint8_t) +
         positive.capacity() * sizeof(uint8_t) +
         frozen.capacity() * sizeof(uint8_t);
}

double Problem::EvalCost(const std::vector<uint8_t>& truth,
                         double hard_weight) const {
  double cost = 0.0;
  const uint32_t n = static_cast<uint32_t>(num_clauses());
  for (uint32_t c = 0; c < n; ++c) {
    AddViolationCost(ClauseTrue(c, truth), weight[c], hard[c] != 0,
                     hard_weight, &cost);
  }
  return cost;
}

double EvalStoreCost(const std::vector<GroundClause>& clauses,
                     const std::vector<uint8_t>& truth, double hard_weight) {
  double cost = 0.0;
  for (const GroundClause& c : clauses) {
    AddViolationCost(AnyLitTrue(c.lits.data(), c.lits.size(), truth),
                     c.weight, c.hard, hard_weight, &cost);
  }
  return cost;
}

Problem MakeWholeProblem(size_t num_atoms,
                         const std::vector<GroundClause>& clauses) {
  Problem p;
  p.num_atoms = num_atoms;
  size_t lits = 0;
  for (const GroundClause& c : clauses) lits += c.lits.size();
  Reserve(&p, clauses.size(), lits);
  for (const GroundClause& c : clauses) {
    p.AddClause(c.lits.data(), c.lits.size(), c.weight, c.hard);
  }
  return p;
}

SubProblem BuildSubProblem(const std::vector<GroundClause>& all_clauses,
                           const std::vector<uint32_t>& clause_ids,
                           const std::vector<AtomId>& atom_ids,
                           AtomId* local_of_atom) {
  SubProblem sub;
  sub.global_atom = atom_ids;
  for (size_t i = 0; i < atom_ids.size(); ++i) {
    local_of_atom[atom_ids[i]] = static_cast<AtomId>(i);
  }
  Problem& p = sub.problem;
  p.num_atoms = atom_ids.size();
  size_t lits = 0;
  for (uint32_t ci : clause_ids) lits += all_clauses[ci].lits.size();
  Reserve(&p, clause_ids.size(), lits);
  const auto to_local = [local_of_atom](Lit l) {
    return MakeLit(local_of_atom[LitAtom(l)], LitPositive(l));
  };
  for (uint32_t ci : clause_ids) {
    const GroundClause& c = all_clauses[ci];
    AppendMapped(&p, c.lits.data(), c.lits.size(), c.weight, c.hard,
                 to_local);
  }
  return sub;
}

SubProblem BuildConditionedSubProblem(
    const std::vector<GroundClause>& all_clauses,
    const std::vector<uint32_t>& clause_ids,
    const std::vector<uint32_t>& cut_clause_ids,
    const std::vector<AtomId>& atom_ids,
    const std::vector<int32_t>& partition_of_atom, int32_t partition,
    const std::vector<uint8_t>& global_truth, AtomId* local_of_atom) {
  SubProblem sub =
      BuildSubProblem(all_clauses, clause_ids, atom_ids, local_of_atom);
  const auto to_local_or_drop = [&](Lit l) {
    const AtomId g = LitAtom(l);
    return partition_of_atom[g] == partition
               ? MakeLit(local_of_atom[g], LitPositive(l))
               : Lit{0};
  };
  for (uint32_t ci : cut_clause_ids) {
    const GroundClause& c = all_clauses[ci];
    bool has_local = false;
    bool satisfied_external = false;
    for (Lit l : c.lits) {
      const AtomId g = LitAtom(l);
      if (partition_of_atom[g] == partition) {
        has_local = true;
      } else if ((global_truth[g] != 0) == LitPositive(l)) {
        satisfied_external = true;
        break;
      }
    }
    // A cut clause outside this partition is skipped. One satisfied by an
    // external literal disappears for w > 0 / hard; for w < 0 it is
    // permanently violated inside this sweep, a constant the local search
    // cannot change, so it is dropped too. Otherwise the external
    // (false) literals are removed and the local ones kept.
    if (!has_local || satisfied_external) continue;
    AppendMapped(&sub.problem, c.lits.data(), c.lits.size(), c.weight,
                 c.hard, to_local_or_drop);
  }
  return sub;
}

}  // namespace tuffy
