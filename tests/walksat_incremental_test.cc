// Randomized equivalence tests for the incremental search kernel: after
// any sequence of flips, the cached per-atom flip deltas and the
// incrementally maintained cost must exactly match a from-scratch
// evaluation. Exercises every clause shape the kernel special-cases
// (unit, binary, length >= 3, degenerate duplicate-atom binary) across
// positive-, negative-, and hard-weight clauses.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "infer/problem.h"
#include "infer/walksat.h"
#include "util/rng.h"

namespace tuffy {
namespace {

constexpr double kHardWeight = 50.0;

/// Random problem mixing clause lengths 1..4 with positive, negative, and
/// hard weights.
Problem RandomProblem(uint64_t seed, size_t num_atoms, int num_clauses) {
  Rng rng(seed);
  Problem p;
  p.num_atoms = num_atoms;
  for (int c = 0; c < num_clauses; ++c) {
    std::vector<Lit> lits;
    int len = 1 + static_cast<int>(rng.Uniform(4));
    for (int i = 0; i < len; ++i) {
      AtomId a = static_cast<AtomId>(rng.Uniform(num_atoms));
      Lit l = MakeLit(a, rng.Bernoulli(0.5));
      bool dup = false;
      for (Lit e : lits) dup |= (LitAtom(e) == a);
      if (!dup) lits.push_back(l);
    }
    if (lits.empty()) continue;
    double weight = rng.Bernoulli(0.3) ? -(1.0 + rng.NextDouble())
                                       : (1.0 + rng.NextDouble());
    bool is_hard = false;
    if (rng.Bernoulli(0.1)) {
      is_hard = true;
      weight = 0;
    }
    p.AddClause(lits, weight, is_hard);
  }
  return p;
}

/// Brute-force flip delta straight from the cost definition.
double BruteFlipDelta(const Problem& p, std::vector<uint8_t> truth,
                      AtomId atom) {
  double before = p.EvalCost(truth, kHardWeight);
  truth[atom] ^= 1;
  return p.EvalCost(truth, kHardWeight) - before;
}

void ExpectStateMatchesScratch(const Problem& p, const WalkSatState& state) {
  // Incremental cost == from-scratch cost.
  EXPECT_NEAR(state.cost(), p.EvalCost(state.truth(), kHardWeight), 1e-8);
  // Cached deltas == a freshly rebuilt state's deltas == brute force.
  WalkSatState fresh(&p, kHardWeight);
  fresh.SetAssignment(state.truth());
  EXPECT_NEAR(fresh.cost(), state.cost(), 1e-8);
  for (AtomId a = 0; a < p.num_atoms; ++a) {
    EXPECT_NEAR(state.FlipDelta(a), fresh.FlipDelta(a), 1e-8)
        << "cached delta drifted from rebuild, atom " << a;
    EXPECT_NEAR(state.FlipDelta(a), BruteFlipDelta(p, state.truth(), a), 1e-8)
        << "cached delta wrong, atom " << a;
  }
}

class IncrementalEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(IncrementalEquivalenceTest, CachedDeltasMatchRebuildAfterFlips) {
  const size_t num_atoms = 14;
  Problem p = RandomProblem(GetParam(), num_atoms, 40);
  Rng rng(GetParam() * 31 + 1);
  WalkSatState state(&p, kHardWeight);
  state.RandomAssignment(&rng);
  ExpectStateMatchesScratch(p, state);
  for (int step = 0; step < 120; ++step) {
    AtomId a = static_cast<AtomId>(rng.Uniform(num_atoms));
    double predicted = state.cost() + state.FlipDelta(a);
    state.Flip(a);
    ASSERT_NEAR(state.cost(), predicted, 1e-8) << "step " << step;
    if (step % 30 == 0) ExpectStateMatchesScratch(p, state);
  }
  ExpectStateMatchesScratch(p, state);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalEquivalenceTest,
                         ::testing::Range(1, 11));

TEST(IncrementalEquivalenceTest, DegenerateDuplicateAtomBinaryClause) {
  // {+a, -a} is a tautology for the positive convention and permanently
  // violated for the negative one; AddClause freezes such clauses so the
  // cost stays exact and their atoms' cached deltas stay zero.
  Problem p;
  p.num_atoms = 2;
  const std::vector<Lit> taut = {MakeLit(0, true), MakeLit(0, false)};
  p.AddClause(taut, 2.0);
  p.AddClause(taut, -3.0);
  p.AddClause({MakeLit(1, true)}, 1.5);

  WalkSatState state(&p, kHardWeight);
  state.AllFalseAssignment();
  ExpectStateMatchesScratch(p, state);
  for (AtomId a : {0u, 1u, 0u, 0u, 1u}) {
    state.Flip(a);
    ExpectStateMatchesScratch(p, state);
  }
}

TEST(IncrementalEquivalenceTest, AttachReusesStateAcrossArenas) {
  // The MC-SAT pattern: one state re-attached to a sequence of slice
  // problems must behave exactly like a fresh state on each.
  Problem p1 = RandomProblem(101, 10, 25);
  Problem p2 = RandomProblem(202, 10, 3);  // much smaller second problem
  Rng rng(7);
  WalkSatState state(&p1, kHardWeight);
  state.RandomAssignment(&rng);
  for (int i = 0; i < 50; ++i) {
    state.Flip(static_cast<AtomId>(rng.Uniform(p1.num_atoms)));
  }
  ExpectStateMatchesScratch(p1, state);

  state.Attach(&p2, kHardWeight);
  state.RandomAssignment(&rng);
  for (int i = 0; i < 50; ++i) {
    state.Flip(static_cast<AtomId>(rng.Uniform(p2.num_atoms)));
  }
  ExpectStateMatchesScratch(p2, state);
}

TEST(IncrementalEquivalenceTest, HardClausesUseHardWeightInDeltas) {
  // Hard clause over 3 atoms, all false: flipping any atom must report
  // a delta of exactly -hard_weight.
  Problem p;
  p.num_atoms = 3;
  p.AddClause({MakeLit(0, true), MakeLit(1, true), MakeLit(2, true)}, 0.0,
              /*is_hard=*/true);
  WalkSatState state(&p, kHardWeight);
  state.AllFalseAssignment();
  EXPECT_DOUBLE_EQ(state.cost(), kHardWeight);
  for (AtomId a = 0; a < 3; ++a) {
    EXPECT_DOUBLE_EQ(state.FlipDelta(a), -kHardWeight);
  }
  state.Flip(0);
  EXPECT_DOUBLE_EQ(state.cost(), 0.0);
  EXPECT_DOUBLE_EQ(state.FlipDelta(0), kHardWeight);  // critical atom
  EXPECT_DOUBLE_EQ(state.FlipDelta(1), 0.0);
  EXPECT_DOUBLE_EQ(state.FlipDelta(2), 0.0);
}

TEST(IncrementalEquivalenceTest, WalkSatDeterministicAcrossRuns) {
  // The full driver must stay deterministic given a seed on a mixed
  // problem (guards the best-truth tracker and move selection).
  Problem p = RandomProblem(55, 20, 60);
  WalkSatOptions opts;
  opts.max_flips = 5000;
  Rng r1(99), r2(99);
  WalkSatResult a = WalkSat(&p, opts, &r1).Run();
  WalkSatResult b = WalkSat(&p, opts, &r2).Run();
  EXPECT_EQ(a.best_cost, b.best_cost);
  EXPECT_EQ(a.best_truth, b.best_truth);
  EXPECT_EQ(a.flips, b.flips);
  EXPECT_NEAR(p.EvalCost(a.best_truth, opts.hard_weight), a.best_cost, 1e-8);
}

// ------------------------------------------------- stagnation patience

/// Flips `search` one at a time for `n` flips with no patience and
/// returns the longest run of non-improving flips that ended in an
/// improvement: a patience above it stops no search before its last
/// improvement. Each one-flip call is also a chunk of the unlimited run.
uint64_t LongestImprovementGap(IncrementalWalkSat* search, uint64_t n) {
  uint64_t longest = 0;
  uint64_t before = 0;
  for (uint64_t i = 0; i < n; ++i) {
    if (search->RunFlips(1) == 0) break;
    if (search->stale_flips() == 0) longest = std::max(longest, before);
    before = search->stale_flips();
  }
  return longest;
}

Problem StagnatingProblem(uint64_t seed) {
  // Mixed signs and hard clauses: the optimum violates soft clauses, so
  // cost 0 never ends the search and only the budget or patience can.
  return RandomProblem(seed, 30, 120);
}

TEST(StagnationPatienceTest, PatienceAboveLongestGapMatchesUnlimitedRun) {
  constexpr uint64_t kFlips = 20000;
  int fired = 0;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Problem p = StagnatingProblem(seed);
    WalkSatOptions opts;
    opts.hard_weight = kHardWeight;
    Rng r_gap(seed), r_full(seed), r_limited(seed);
    IncrementalWalkSat stepped(&p, opts, &r_gap);
    const uint64_t longest = LongestImprovementGap(&stepped, kFlips);
    ASSERT_GT(longest, 0u) << "seed " << seed;

    IncrementalWalkSat full(&p, opts, &r_full);
    ASSERT_EQ(full.RunFlips(kFlips), kFlips) << "seed " << seed;
    ASSERT_GT(full.best_cost(), 0.0) << "seed " << seed;
    IncrementalWalkSat limited(&p, opts, &r_limited);
    fired += limited.RunFlips(kFlips, longest + 1) < kFlips;
    EXPECT_EQ(limited.best_cost(), full.best_cost()) << "seed " << seed;
    EXPECT_EQ(limited.best_truth(), full.best_truth()) << "seed " << seed;
  }
  // Where the last improvement came late the budget ends first; the
  // patience must still have cut most of these searches short.
  EXPECT_GE(fired, 3);
}

TEST(StagnationPatienceTest, HaltsAfterExactlyPatienceStaleFlips) {
  // {a} and {!a} at weight 1: every assignment costs 1, so no flip ever
  // improves on the start and each one is stale.
  Problem p;
  p.num_atoms = 1;
  p.AddClause({MakeLit(0, true)}, 1.0);
  p.AddClause({MakeLit(0, false)}, 1.0);
  Rng rng(3);
  WalkSatOptions opts;
  IncrementalWalkSat search(&p, opts, &rng);
  EXPECT_EQ(search.RunFlips(1000, 10), 10u);
  EXPECT_EQ(search.stale_flips(), 10u);
  // The streak carries across calls: a stopped search stays stopped
  // under the same patience and resumes under a larger one.
  EXPECT_EQ(search.RunFlips(1000, 10), 0u);
  EXPECT_EQ(search.RunFlips(1000, 15), 5u);
  EXPECT_EQ(search.flips(), 15u);
  EXPECT_EQ(search.best_cost(), 1.0);

  // On a real search the stop lands exactly `patience` flips after the
  // last improvement, where an unlimited twin with the same seed agrees.
  constexpr uint64_t kPatience = 40;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Problem rp = StagnatingProblem(seed);
    Rng r_limited(seed), r_twin(seed);
    IncrementalWalkSat limited(&rp, opts, &r_limited);
    const uint64_t done = limited.RunFlips(1000000, kPatience);
    ASSERT_LT(done, 1000000u) << "seed " << seed;
    EXPECT_EQ(limited.stale_flips(), kPatience) << "seed " << seed;
    IncrementalWalkSat twin(&rp, opts, &r_twin);
    for (uint64_t i = 0; i < done; ++i) {
      ASSERT_EQ(twin.RunFlips(1), 1u);
      if (i + 1 < done) {
        ASSERT_LT(twin.stale_flips(), kPatience)
            << "seed " << seed << ": stopped late at flip " << done;
      }
    }
    EXPECT_EQ(twin.stale_flips(), kPatience) << "seed " << seed;
    EXPECT_EQ(twin.best_cost(), limited.best_cost()) << "seed " << seed;
    EXPECT_EQ(twin.current_truth(), limited.current_truth()) << "seed " << seed;
  }
}

TEST(StagnationPatienceTest, ChunkedCallsEqualOneCall) {
  // The weighted round-robin scheduler (RunComponentWalkSat) hands a
  // component its budget in per-round chunks; with or without patience
  // that must flip exactly like one call.
  constexpr uint64_t kFlips = 12000;
  for (uint64_t patience : {IncrementalWalkSat::kNoPatience, uint64_t{300}}) {
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      Problem p = StagnatingProblem(seed);
      WalkSatOptions opts;
      Rng r_one(seed), r_chunked(seed);
      IncrementalWalkSat one(&p, opts, &r_one);
      one.RunFlips(kFlips, patience);
      IncrementalWalkSat chunked(&p, opts, &r_chunked);
      const int rounds = 7;
      for (int round = 0; round < rounds; ++round) {
        uint64_t chunk = kFlips / rounds;
        if (round == rounds - 1) chunk = kFlips - chunk * (rounds - 1);
        chunked.RunFlips(chunk, patience);
      }
      EXPECT_EQ(chunked.flips(), one.flips()) << "seed " << seed;
      EXPECT_EQ(chunked.stale_flips(), one.stale_flips()) << "seed " << seed;
      EXPECT_EQ(chunked.best_cost(), one.best_cost()) << "seed " << seed;
      EXPECT_EQ(chunked.best_truth(), one.best_truth()) << "seed " << seed;
      EXPECT_EQ(chunked.current_truth(), one.current_truth())
          << "seed " << seed;
    }
  }
}

TEST(StagnationPatienceTest, CostZeroStillStopsAtOnce) {
  // Three satisfiable unit clauses from all-false: the search reaches
  // cost 0 and stops there, far inside both the budget and the patience.
  Problem p;
  p.num_atoms = 3;
  for (AtomId a = 0; a < 3; ++a) p.AddClause({MakeLit(a, true)}, 1.0);
  WalkSatOptions opts;
  opts.init_random = false;
  Rng rng(5);
  IncrementalWalkSat search(&p, opts, &rng);
  const uint64_t done = search.RunFlips(1000, 500);
  EXPECT_EQ(search.best_cost(), 0.0);
  EXPECT_EQ(search.current_cost(), 0.0);
  EXPECT_EQ(done, 3u);  // every flip of a false atom fixes one clause
  EXPECT_EQ(search.stale_flips(), 0u);
  EXPECT_EQ(search.RunFlips(1000, 500), 0u);

  // A warm start that is already optimal costs no flips at all.
  std::vector<uint8_t> optimal(3, 1);
  opts.initial = &optimal;
  IncrementalWalkSat warm(&p, opts, &rng);
  EXPECT_EQ(warm.RunFlips(1000, 1), 0u);
  EXPECT_EQ(warm.best_truth(), optimal);
}

}  // namespace
}  // namespace tuffy
