#ifndef TUFFY_GROUND_GROUND_CLAUSE_H_
#define TUFFY_GROUND_GROUND_CLAUSE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "mln/model.h"

namespace tuffy {

/// Index of a ground atom in an AtomStore.
using AtomId = uint32_t;

/// Signed literal encoding used in ground clauses: +(aid+1) for a positive
/// literal, -(aid+1) for a negative one (0 is never a valid literal).
using Lit = int32_t;

inline Lit MakeLit(AtomId atom, bool positive) {
  return positive ? static_cast<Lit>(atom + 1) : -static_cast<Lit>(atom + 1);
}
inline AtomId LitAtom(Lit lit) {
  return static_cast<AtomId>((lit > 0 ? lit : -lit) - 1);
}
inline bool LitPositive(Lit lit) { return lit > 0; }

/// A ground clause of the MRF: a disjunction of literals over ground
/// atoms, with the weight of its source rule (weights of identical ground
/// clauses produced by different groundings are summed). Hard clauses
/// must be satisfied in every world.
struct GroundClause {
  std::vector<Lit> lits;
  double weight = 0.0;
  bool hard = false;
  /// Source rule, for diagnostics and provenance.
  int rule_id = -1;
};

/// Registry of the ground atoms that appear in surviving ground clauses
/// (the paper's query atoms). Atom ids are dense and start at 0.
class AtomStore {
 public:
  /// Returns the id for `atom`, allocating a fresh one if unseen.
  AtomId GetOrCreate(const GroundAtom& atom);

  /// Returns the id or -1 (cast to AtomId max) if absent.
  bool Find(const GroundAtom& atom, AtomId* out) const;

  const GroundAtom& atom(AtomId id) const { return atoms_[id]; }
  size_t num_atoms() const { return atoms_.size(); }

  /// Pretty-prints atom `id` using the program's symbol table.
  std::string AtomName(const MlnProgram& program, AtomId id) const;

 private:
  std::unordered_map<GroundAtom, AtomId, GroundAtomHash> ids_;
  std::vector<GroundAtom> atoms_;
};

/// One first-order rule's contribution to a ground clause: `count`
/// groundings of rule `rule_id` produced this literal set. Weight
/// learning needs the full multiset (a satisfied merged clause counts
/// once per contributing grounding), so merging keeps every source.
struct RuleContribution {
  int32_t rule_id = -1;
  uint32_t count = 0;
};

/// Hash over a literal vector, keying the serving layer's per-rule and
/// global clause maps. Its low bits depend only on the literals' low
/// bits, which std::unordered_map's prime bucket counts tolerate; a
/// power-of-two table masking the low bits would not (the grounding
/// merge below mixes its own hash for that reason).
struct LitVectorHash {
  size_t operator()(const std::vector<Lit>& lits) const {
    size_t h = 0x9E3779B97F4A7C15ull;
    for (Lit l : lits) h = h * 1315423911u ^ std::hash<Lit>{}(l);
    return h;
  }
};

/// The MRF's clause table: distinct ground clauses (sorted, duplicate-
/// free literal sets) with the summed weights of every grounding that
/// produced them, the standard grounding optimization. A hard duplicate
/// keeps the clause hard. Provenance back to the source rules is
/// retained per clause (see RuleContribution); it is what
/// BuildRuleCountIndex flattens for the learning subsystem. A store is
/// built in one piece by GroundClauseBuilder::Build and carries no
/// duplicate index afterwards.
class GroundClauseStore {
 public:
  const std::vector<GroundClause>& clauses() const { return clauses_; }
  std::vector<GroundClause>& mutable_clauses() { return clauses_; }
  size_t num_clauses() const { return clauses_.size(); }

  /// Invokes fn(rule_id, count) for each rule contribution merged into
  /// clause `idx` (at least one). The first contribution — almost
  /// always the only one — is stored inline; only clauses fed by
  /// multiple distinct rules touch the side table.
  template <typename Fn>
  void ForEachContribution(size_t idx, Fn&& fn) const {
    const RuleContribution& first = first_contrib_[idx];
    fn(first.rule_id, first.count);
    auto it = extra_contribs_.find(idx);
    if (it == extra_contribs_.end()) return;
    for (const RuleContribution& rc : it->second) fn(rc.rule_id, rc.count);
  }

  /// Rough memory footprint of the clause table, for Table 4.
  size_t EstimateBytes() const;

 private:
  friend class GroundClauseBuilder;

  std::vector<GroundClause> clauses_;
  /// Parallel to clauses_: the first rule's grounding multiplicity,
  /// inline so the common single-rule clause costs no extra allocation.
  std::vector<RuleContribution> first_contrib_;
  /// Clause index -> further distinct rules' multiplicities (rare), in
  /// order of first appearance.
  std::unordered_map<size_t, std::vector<RuleContribution>> extra_contribs_;
};

/// Append-only log of emitted ground clauses, merged into a
/// GroundClauseStore in one bulk pass. The store it builds is the one an
/// incremental merge would hold after taking the emissions one by one:
///  - clauses appear in order of their first emission, with that
///    emission's rule_id;
///  - a clause's weight is the sum of its emissions' weights, added in
///    emission order (so the floating-point result is the serial one);
///  - hard is the OR over its emissions;
///  - rule contributions count emissions per rule, the first emission's
///    rule inline and the others in order of first appearance;
///  - tautologies (a and !a) are dropped.
/// The thread count changes none of that (determinism_test).
class GroundClauseBuilder {
 public:
  /// clause_of entry of an emission dropped as a tautology.
  static constexpr size_t kTautology = static_cast<size_t>(-1);
  /// Below this many emissions Build merges on the calling thread
  /// whatever num_threads says: starting threads would cost more than
  /// the merge, and small callers (serving's per-rule and per-delta
  /// groundings) must stay single-threaded.
  static constexpr size_t kParallelMinEmissions = size_t{1} << 14;

  /// Appends one emitted clause (literals need not be sorted or
  /// distinct; never 0). Returns its emission index.
  size_t Add(const std::vector<Lit>& lits, double weight, bool hard,
             int rule_id);

  size_t num_emitted() const { return ends_.size(); }

  /// Reserves room for `clauses` emissions holding `lits` literals.
  void Reserve(size_t clauses, size_t lits) {
    lits_.reserve(lits);
    ends_.reserve(clauses);
    source_of_.reserve(clauses);
  }

  /// Merges every emission into a store, on up to `num_threads` threads
  /// when there are at least kParallelMinEmissions of them, and leaves
  /// the builder empty. If `clause_of` is not null it receives, per
  /// emission, the index of the clause it merged into, or kTautology.
  ///
  /// Three passes: (1) per range of emissions, in parallel: sort and
  /// dedup each clause's literals in place, flag tautologies, hash;
  /// (2) per hash shard, in parallel: walk the shard's emissions in
  /// emission order, the first emission of each literal set opening an
  /// accumulator and later ones adding into it; (3) per range again:
  /// merge the shards' first emissions back into emission order and
  /// fill the exactly-sized store.
  GroundClauseStore Build(int num_threads,
                          std::vector<size_t>* clause_of = nullptr);

 private:
  /// Weight, hardness and rule shared by many emissions (one per rule
  /// in grounding), so an emission stores a 4-byte source id.
  struct Source {
    double weight;
    bool hard;
    int32_t rule_id;
  };
  struct SourceKey {
    uint64_t weight_bits;
    int32_t rule_id;
    bool hard;
    bool operator==(const SourceKey& o) const {
      return weight_bits == o.weight_bits && rule_id == o.rule_id &&
             hard == o.hard;
    }
  };
  struct SourceKeyHash {
    size_t operator()(const SourceKey& k) const {
      return std::hash<uint64_t>{}(k.weight_bits ^
                                   (uint64_t(uint32_t(k.rule_id)) << 1) ^
                                   uint64_t(k.hard));
    }
  };
  uint32_t SourceId(double weight, bool hard, int rule_id);

  /// Emission e's literals are lits_[e == 0 ? 0 : ends_[e - 1], ends_[e]).
  std::vector<Lit> lits_;
  std::vector<uint32_t> ends_;
  std::vector<uint32_t> source_of_;
  std::vector<Source> sources_;
  std::unordered_map<SourceKey, uint32_t, SourceKeyHash> source_ids_;
  uint32_t last_source_ = 0;
};

}  // namespace tuffy

#endif  // TUFFY_GROUND_GROUND_CLAUSE_H_
