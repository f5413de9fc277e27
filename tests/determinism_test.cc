#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "datagen/datasets.h"
#include "exec/tuffy_engine.h"
#include "ground/bottom_up_grounder.h"
#include "grounding_compare.h"
#include "infer/component_walksat.h"
#include "mrf/components.h"
#include "rc_edit_stream.h"
#include "serve/inference_session.h"
#include "util/rng.h"

namespace tuffy {
namespace {

// Thread count is a wall-clock knob, never a semantics knob: per-
// component searchers own pre-derived RNG streams and write disjoint
// state, so identical seed + options must produce bit-identical results
// for any num_threads.

TEST(DeterminismTest, ComponentWalkSatThreadCountInvariant) {
  std::vector<GroundClause> clauses = MakeExample1Mrf(60);
  const size_t num_atoms = 120;
  ComponentSet components = DetectComponents(num_atoms, clauses);
  ASSERT_EQ(components.num_components(), 60u);

  ComponentSearchOptions opts;
  opts.total_flips = 30000;
  opts.rounds = 5;
  for (uint64_t seed : {0ull, 1ull, 42ull}) {
    opts.num_threads = 1;
    ComponentSearchResult serial =
        RunComponentWalkSat(num_atoms, clauses, components, opts, seed);
    opts.num_threads = 4;
    ComponentSearchResult parallel =
        RunComponentWalkSat(num_atoms, clauses, components, opts, seed);
    EXPECT_EQ(serial.truth, parallel.truth) << "seed " << seed;
    EXPECT_EQ(serial.cost, parallel.cost) << "seed " << seed;
    EXPECT_EQ(serial.flips, parallel.flips) << "seed " << seed;
  }
}

TEST(DeterminismTest, EngineComponentModeThreadCountInvariant) {
  RcParams p;
  p.num_clusters = 4;
  p.papers_per_cluster = 5;
  auto ds = MakeRcDataset(p);
  ASSERT_TRUE(ds.ok());

  EngineOptions opts;
  opts.search_mode = SearchMode::kComponentAware;
  opts.total_flips = 30000;
  opts.num_threads = 1;
  TuffyEngine serial(ds.value().program, ds.value().evidence, opts);
  opts.num_threads = 4;
  TuffyEngine parallel(ds.value().program, ds.value().evidence, opts);
  auto rs = serial.Run();
  auto rp = parallel.Run();
  ASSERT_TRUE(rs.ok());
  ASSERT_TRUE(rp.ok());
  EXPECT_EQ(rs.value().truth, rp.value().truth);
  EXPECT_EQ(rs.value().search_cost, rp.value().search_cost);
}

TEST(DeterminismTest, SessionThreadCountInvariantAcrossDeltas) {
  RcParams p;
  p.num_clusters = 3;
  p.papers_per_cluster = 4;
  auto ds = MakeRcDataset(p);
  ASSERT_TRUE(ds.ok());

  SessionOptions sopts;
  sopts.total_flips = 30000;
  sopts.seed = 5;
  sopts.num_threads = 1;
  InferenceSession serial(ds.value().program, sopts);
  sopts.num_threads = 4;
  InferenceSession parallel(ds.value().program, sopts);
  ASSERT_TRUE(serial.Open(ds.value().evidence).ok());
  ASSERT_TRUE(parallel.Open(ds.value().evidence).ok());
  EXPECT_EQ(serial.truth(), parallel.truth());
  EXPECT_EQ(serial.map_cost(), parallel.map_cost());

  EvidenceDelta delta;
  GroundAtom atom;
  atom.pred = ds.value().program.FindPredicate("refers").value();
  atom.args = {ds.value().program.symbols().Find("P0"),
               ds.value().program.symbols().Find("P9")};
  delta.Assert(atom, true);
  ASSERT_TRUE(serial.ApplyDelta(delta).ok());
  ASSERT_TRUE(parallel.ApplyDelta(delta).ok());
  EXPECT_EQ(serial.truth(), parallel.truth());
  EXPECT_EQ(serial.map_cost(), parallel.map_cost());
}

TEST(DeterminismTest, SessionThreadCountInvariantWithStaleStops) {
  // A serving-shaped stream whose warm re-searches end by the stagnation
  // rule: where a search stops depends only on its own flips, so 1 and 4
  // threads stay bit-identical after every delta.
  for (uint64_t seed : {1ull, 4ull}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    RcParams p;
    p.num_clusters = 6;
    p.papers_per_cluster = 8;
    p.labeled_fraction = 0.5;
    p.seed = seed;
    auto ds = MakeRcDataset(p);
    ASSERT_TRUE(ds.ok());
    EvidenceDb final_evidence;
    const std::vector<EvidenceDelta> deltas =
        MakeRcEditStream(ds.value(), p, 200, seed, &final_evidence);

    SessionOptions sopts;
    sopts.total_flips = 300000;
    sopts.seed = seed;
    sopts.num_threads = 1;
    InferenceSession serial(ds.value().program, sopts);
    sopts.num_threads = 4;
    InferenceSession parallel(ds.value().program, sopts);
    ASSERT_TRUE(serial.Open(ds.value().evidence).ok());
    ASSERT_TRUE(parallel.Open(ds.value().evidence).ok());
    uint64_t stale_stops = 0;
    for (size_t i = 0; i < deltas.size(); ++i) {
      auto rs = serial.ApplyDelta(deltas[i]);
      auto rp = parallel.ApplyDelta(deltas[i]);
      ASSERT_TRUE(rs.ok());
      ASSERT_TRUE(rp.ok());
      EXPECT_EQ(rs.value().flips, rp.value().flips) << "delta " << i;
      EXPECT_EQ(rs.value().stale_stops, rp.value().stale_stops)
          << "delta " << i;
      ASSERT_EQ(serial.truth(), parallel.truth()) << "delta " << i;
      ASSERT_EQ(serial.map_cost(), parallel.map_cost()) << "delta " << i;
      stale_stops += rs.value().stale_stops;
    }
    EXPECT_GT(stale_stops, 0u);
  }
}

GroundingResult GroundWithThreads(const Dataset& ds, int threads) {
  GroundingOptions gopts;
  gopts.num_threads = threads;
  BottomUpGrounder g(ds.program, ds.evidence, gopts, OptimizerOptions{});
  auto r = g.Ground();
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.TakeValue();
}

TEST(DeterminismTest, GroundingThreadCountInvariant) {
  // Parallel per-rule grounding merges rule-local contexts in rule-index
  // order, and Finalize's clause merge keeps first-emission order and
  // per-clause emission-order sums on any number of shards, so the
  // grounding result must be bit-identical for any worker count. Three
  // threads give an odd shard count.
  RcParams rc;
  rc.num_clusters = 6;
  rc.papers_per_cluster = 6;
  auto rc_ds = MakeRcDataset(rc);
  ASSERT_TRUE(rc_ds.ok());
  // The default LP instance emits more clauses than the merge's serial
  // cutoff (asserted below), so 2-4 threads run the parallel merge.
  auto lp_ds = MakeLpDataset(LpParams{});
  ASSERT_TRUE(lp_ds.ok());

  for (const Dataset* ds : {&rc_ds.value(), &lp_ds.value()}) {
    SCOPED_TRACE(ds->name);
    const GroundingResult serial = GroundWithThreads(*ds, 1);
    if (ds == &lp_ds.value()) {
      // Distinct clauses never outnumber emissions.
      ASSERT_GE(serial.clauses.num_clauses(),
                GroundClauseBuilder::kParallelMinEmissions);
    }
    for (int threads : {2, 3, 4}) {
      SCOPED_TRACE("threads " + std::to_string(threads));
      ExpectSameGrounding(serial, GroundWithThreads(*ds, threads));
    }
  }
}

TEST(DeterminismTest, DeriveSeedDecorrelatesAdjacentStreams) {
  // Adjacent (base, stream) pairs must not produce adjacent or shared
  // seeds — the defect the old `seed + 0x1000 + i` scheme had, where
  // base seed 42 stream 1 collided with base seed 43 stream 0.
  EXPECT_NE(DeriveSeed(42, 1), DeriveSeed(43, 0));
  EXPECT_NE(DeriveSeed(42, 0), DeriveSeed(42, 1));
  // Low bits should differ too (avalanche), not just the word.
  int differing_low_bits = 0;
  for (uint64_t i = 0; i < 64; ++i) {
    uint64_t a = DeriveSeed(7, i) & 0xFFFF;
    uint64_t b = DeriveSeed(7, i + 1) & 0xFFFF;
    if (a != b) ++differing_low_bits;
  }
  EXPECT_EQ(differing_low_bits, 64);
}

}  // namespace
}  // namespace tuffy
