// Shared support for the grounding equivalence tests: a bit-for-bit
// comparison of two grounding results.
#ifndef TUFFY_TESTS_GROUNDING_COMPARE_H_
#define TUFFY_TESTS_GROUNDING_COMPARE_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "ground/grounding.h"

namespace tuffy {

/// Asserts that two grounding results are bit-identical: atoms and
/// their ids, clause order, literals, weights (bitwise), hard flags,
/// rule ids, every rule contribution, the fixed cost and every stat
/// except wall time.
inline void ExpectSameGrounding(const GroundingResult& a, const GroundingResult& b) {
  ASSERT_EQ(a.atoms.num_atoms(), b.atoms.num_atoms());
  for (AtomId id = 0; id < a.atoms.num_atoms(); ++id) {
    ASSERT_TRUE(a.atoms.atom(id) == b.atoms.atom(id)) << "atom " << id;
  }
  ASSERT_EQ(a.clauses.num_clauses(), b.clauses.num_clauses());
  for (size_t i = 0; i < a.clauses.num_clauses(); ++i) {
    const GroundClause& ca = a.clauses.clauses()[i];
    const GroundClause& cb = b.clauses.clauses()[i];
    ASSERT_EQ(ca.lits, cb.lits) << "clause " << i;
    uint64_t wa;
    uint64_t wb;
    std::memcpy(&wa, &ca.weight, sizeof(wa));
    std::memcpy(&wb, &cb.weight, sizeof(wb));
    ASSERT_EQ(wa, wb) << "clause " << i;
    ASSERT_EQ(ca.hard, cb.hard) << "clause " << i;
    ASSERT_EQ(ca.rule_id, cb.rule_id) << "clause " << i;
    std::vector<std::pair<int, uint32_t>> ra;
    std::vector<std::pair<int, uint32_t>> rb;
    a.clauses.ForEachContribution(
        i, [&](int rule, uint32_t count) { ra.emplace_back(rule, count); });
    b.clauses.ForEachContribution(
        i, [&](int rule, uint32_t count) { rb.emplace_back(rule, count); });
    ASSERT_EQ(ra, rb) << "clause " << i;
  }
  uint64_t fa;
  uint64_t fb;
  std::memcpy(&fa, &a.fixed_cost, sizeof(fa));
  std::memcpy(&fb, &b.fixed_cost, sizeof(fb));
  EXPECT_EQ(fa, fb);
  EXPECT_EQ(a.hard_contradiction, b.hard_contradiction);
  EXPECT_EQ(a.stats.candidates, b.stats.candidates);
  EXPECT_EQ(a.stats.satisfied_by_evidence, b.stats.satisfied_by_evidence);
  EXPECT_EQ(a.stats.pruned_by_antijoin, b.stats.pruned_by_antijoin);
  EXPECT_EQ(a.stats.pruned_inactive, b.stats.pruned_inactive);
  EXPECT_EQ(a.stats.hard_violations, b.stats.hard_violations);
  EXPECT_EQ(a.stats.closure_iterations, b.stats.closure_iterations);
}

}  // namespace tuffy

#endif  // TUFFY_TESTS_GROUNDING_COMPARE_H_
