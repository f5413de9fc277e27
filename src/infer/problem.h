#ifndef TUFFY_INFER_PROBLEM_H_
#define TUFFY_INFER_PROBLEM_H_

#include <cstdint>
#include <vector>

#include "ground/ground_clause.h"

namespace tuffy {

/// True iff some literal of `lits[0..n)` is true under `truth`.
inline bool AnyLitTrue(const Lit* lits, size_t n,
                       const std::vector<uint8_t>& truth) {
  for (size_t i = 0; i < n; ++i) {
    if ((truth[LitAtom(lits[i])] != 0) == LitPositive(lits[i])) return true;
  }
  return false;
}

/// A self-contained MaxSAT search problem — the whole MRF, one connected
/// component, or one partition with its cut clauses conditioned on the
/// frozen values of external atoms — held as the flat CSR ("arena")
/// layout every search kernel reads (see docs/INFER_KERNEL.md). Literals
/// use GroundClause's signed encoding but reference *local* atom ids when
/// the problem is a sub-MRF.
///
/// The literals of clause `c` live contiguously in
/// `lit_data[clause_offsets[c] .. clause_offsets[c+1])`, with the signed
/// weight, its precomputed absolute value, and the hard / positive flags
/// in parallel arrays indexed by clause. `positive[c]` caches the
/// violation convention of Section 2.2: a clause with w >= 0 (or hard) is
/// violated when no literal is true, a clause with w < 0 when some
/// literal is true. `abs_weight` is precomputed so search states resolve
/// effective clause costs with a single load — no fabs() or hard-ness
/// branch anywhere near the flip loop.
///
/// The atom-side occurrence lists live in WalkSatState, not here: their
/// entries embed the effective clause cost, which depends on the state's
/// hard_weight.
///
/// AddClause normalizes each clause: exact duplicate literals are
/// dropped (logically redundant in a disjunction) and a clause containing
/// both x and !x is marked `frozen` — its truth value is constant, so it
/// is kept for cost accounting (a negative-weight tautology is
/// permanently violated) but excluded from the flip bookkeeping, where
/// the counter arithmetic assumes one literal per atom.
///
/// Clear + AddClause reuse vector capacity, which lets MC-SAT rebuild its
/// per-round slice with no steady-state allocation. A caller that edits
/// `weight` in place (weight learning) must keep `abs_weight` and
/// `positive` in step.
struct Problem {
  std::vector<uint32_t> clause_offsets;  // size num_clauses() + 1
  std::vector<Lit> lit_data;
  std::vector<double> weight;      // signed rule weight
  std::vector<double> abs_weight;  // fabs(weight), a single load
  std::vector<uint8_t> hard;
  std::vector<uint8_t> positive;  // hard || weight >= 0
  std::vector<uint8_t> frozen;    // tautology: constant truth value
  size_t num_atoms = 0;

  size_t num_clauses() const {
    return clause_offsets.empty() ? 0 : clause_offsets.size() - 1;
  }
  uint32_t clause_size(uint32_t c) const {
    return clause_offsets[c + 1] - clause_offsets[c];
  }
  const Lit* clause_lits(uint32_t c) const {
    return lit_data.data() + clause_offsets[c];
  }
  /// True iff clause `c` has a true literal under `truth`.
  bool ClauseTrue(uint32_t c, const std::vector<uint8_t>& truth) const {
    return AnyLitTrue(clause_lits(c), clause_size(c), truth);
  }

  /// Size metric (atoms + literals), matching ComponentSizeMetric.
  uint64_t SizeMetric() const { return num_atoms + lit_data.size(); }

  /// Exact cost of a truth assignment, by definition (Eq. 1): the sum of
  /// |w| over violated clauses, where a clause with w > 0 (or hard) is
  /// violated when false and a clause with w < 0 is violated when true.
  /// Hard clauses contribute `hard_weight` each. Equal, bit for bit, to
  /// EvalStoreCost over the clauses the problem was built from.
  double EvalCost(const std::vector<uint8_t>& truth,
                  double hard_weight) const;

  /// Bytes held by the columns (capacities, i.e. the real footprint of
  /// the flat layout — what MemTracker should see).
  size_t EstimateBytes() const;

  /// Resets to an empty clause set over 0 atoms, keeping capacity.
  void Clear();
  /// Appends one clause (normalized as described above). Atom ids must
  /// stay below num_atoms, which the caller sets.
  void AddClause(const Lit* lits, size_t n, double w, bool is_hard);
  void AddClause(const std::vector<Lit>& lits, double w,
                 bool is_hard = false) {
    AddClause(lits.data(), lits.size(), w, is_hard);
  }
};

/// Eq. 1 evaluated in place over a clause store: the same branches and
/// summation order as Problem::EvalCost, so the two agree bit for bit on
/// MakeWholeProblem(truth.size(), clauses). The final-cost path of
/// batch runs, Gauss-Seidel sweeps and serving sessions, none of which
/// needs a search layout for it.
double EvalStoreCost(const std::vector<GroundClause>& clauses,
                     const std::vector<uint8_t>& truth, double hard_weight);

/// A sub-problem over a subset of the global atoms, with the local-to-
/// global atom id mapping retained so results can be merged back.
struct SubProblem {
  Problem problem;
  /// global_atom[local_id] = global AtomId.
  std::vector<AtomId> global_atom;
};

/// Builds the trivial whole-MRF problem (identity atom mapping).
Problem MakeWholeProblem(size_t num_atoms,
                         const std::vector<GroundClause>& clauses);

/// Builds the sub-problem spanned by `atom_ids`, containing the clauses
/// `clause_ids` (which must only reference those atoms), in one pass over
/// the store. Literal atom ids are renumbered to 0..atom_ids.size()-1
/// through `local_of_atom`, a scratch indexed by global atom id with room
/// past the largest id in `atom_ids`. The call writes the entries of
/// `atom_ids` before reading them and touches no others, so the scratch
/// needs no initialization (an uninitialized allocation commits only the
/// pages a component touches) and calls over disjoint atom sets — the
/// components of one ComponentSet, the partitions of one PartitionResult
/// — share one scratch, concurrently too.
SubProblem BuildSubProblem(const std::vector<GroundClause>& all_clauses,
                           const std::vector<uint32_t>& clause_ids,
                           const std::vector<AtomId>& atom_ids,
                           AtomId* local_of_atom);

/// Builds the conditioned sub-problem for Gauss-Seidel partition search
/// (Section 3.4): like BuildSubProblem, but additionally takes the cut
/// clauses and the current global truth assignment. A cut literal over an
/// external atom is resolved against `global_truth`: a true literal
/// satisfies (drops) the clause, a false one is removed.
SubProblem BuildConditionedSubProblem(
    const std::vector<GroundClause>& all_clauses,
    const std::vector<uint32_t>& clause_ids,
    const std::vector<uint32_t>& cut_clause_ids,
    const std::vector<AtomId>& atom_ids,
    const std::vector<int32_t>& partition_of_atom, int32_t partition,
    const std::vector<uint8_t>& global_truth, AtomId* local_of_atom);

}  // namespace tuffy

#endif  // TUFFY_INFER_PROBLEM_H_
