// Equivalence of the columnar batch executor against the Volcano
// interpreter: same rows in the same order on every join shape the MLN
// frontend emits, and bit-identical grounding output on the RC example
// (which exercises self-joins, cross products, pushed-down residual
// predicates, and an existential binding literal).

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "datagen/datasets.h"
#include "ground/bottom_up_grounder.h"
#include "grounding_compare.h"
#include "ra/catalog.h"
#include "ra/expr.h"
#include "ra/operators.h"
#include "ra/optimizer.h"
#include "ra/vec_ops.h"
#include "util/rng.h"

namespace tuffy {
namespace {

Table MakeIdTable(const std::string& name, int num_rows, int mod,
                  uint64_t seed = 1) {
  Table t(name, Schema({{"a", ColumnType::kInt64}, {"b", ColumnType::kInt64}}));
  Rng rng(seed);
  for (int i = 0; i < num_rows; ++i) {
    t.Append({Datum(static_cast<int64_t>(rng.Uniform(mod))),
              Datum(static_cast<int64_t>(rng.Uniform(mod)))});
  }
  t.Analyze();
  return t;
}

using RowsInt = std::vector<std::vector<int64_t>>;

RowsInt MaterializeVec(VecOp* root) {
  RowsInt out;
  Status st = ForEachChunk(root, [&](const ColumnChunk& chunk) {
    EXPECT_GT(chunk.num_rows, 0u);  // emitted chunks are never empty
    for (uint32_t r = 0; r < chunk.num_rows; ++r) {
      std::vector<int64_t> vals;
      for (size_t c = 0; c < chunk.num_cols(); ++c) {
        vals.push_back(chunk.col(c)[r]);
      }
      out.push_back(std::move(vals));
    }
    return Status::OK();
  });
  EXPECT_TRUE(st.ok());
  return out;
}

OptimizerOptions VolcanoOptions() {
  OptimizerOptions opts;
  opts.enable_vectorized = false;
  return opts;
}

bool IsBatchPlan(const OptimizedPlan& plan) {
  return plan.explain.rfind("Batch plan", 0) == 0;
}

/// Plans the query `make_query` builds under both translations and checks
/// the batch plan produces exactly the Volcano plan's rows, in the
/// Volcano plan's order.
void ExpectPlansAgree(const std::function<ConjunctiveQuery()>& make_query) {
  auto batch = Optimizer(OptimizerOptions{}).Plan(make_query());
  auto volcano = Optimizer(VolcanoOptions()).Plan(make_query());
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_TRUE(volcano.ok()) << volcano.status().ToString();
  ASSERT_TRUE(IsBatchPlan(batch.value())) << batch.value().explain;
  ASSERT_FALSE(IsBatchPlan(volcano.value())) << volcano.value().explain;
  EXPECT_EQ(MaterializeVec(volcano.value().root.get()),
            MaterializeVec(batch.value().root.get()));
}

TEST(VecPlanTest, SingleTableScanWithConstFilter) {
  Table t = MakeIdTable("t", 500, 7);
  ExpectPlansAgree([&] {
    ConjunctiveQuery q;
    TableRef ref;
    ref.table = &t;
    ref.filter = Eq(Col(0), Val(Datum(int64_t{3})));
    q.tables.push_back(std::move(ref));
    q.outputs.push_back(OutputCol{0, 1, "b"});
    return q;
  });
}

TEST(VecPlanTest, RepeatedVariableResidualFilter) {
  // col0 == col1 — the repeated-variable filter the grounding compiler
  // pushes into scans.
  Table t = MakeIdTable("t", 400, 5);
  ExpectPlansAgree([&] {
    ConjunctiveQuery q;
    TableRef ref;
    ref.table = &t;
    ref.filter = And([] {
      std::vector<ExprPtr> fs;
      fs.push_back(Eq(Col(0), Col(1)));
      return fs;
    }());
    q.tables.push_back(std::move(ref));
    q.outputs.push_back(OutputCol{0, 0, "a"});
    return q;
  });
}

TEST(VecPlanTest, SingleKeyHashJoin) {
  Table t1 = MakeIdTable("t1", 300, 11, 1);
  Table t2 = MakeIdTable("t2", 200, 11, 2);
  ExpectPlansAgree([&] {
    ConjunctiveQuery q;
    q.tables.push_back(TableRef{&t1, nullptr, "t1", 1.0});
    q.tables.push_back(TableRef{&t2, nullptr, "t2", 1.0});
    q.joins.push_back(JoinCondition{0, 1, 1, 0});
    q.outputs.push_back(OutputCol{0, 0, "x"});
    q.outputs.push_back(OutputCol{1, 1, "y"});
    return q;
  });
}

TEST(VecPlanTest, SelfJoin) {
  Table t = MakeIdTable("t", 250, 9);
  ExpectPlansAgree([&] {
    ConjunctiveQuery q;
    q.tables.push_back(TableRef{&t, nullptr, "l", 1.0});
    q.tables.push_back(TableRef{&t, nullptr, "r", 1.0});
    q.joins.push_back(JoinCondition{0, 0, 1, 0});
    q.outputs.push_back(OutputCol{0, 1, "lb"});
    q.outputs.push_back(OutputCol{1, 1, "rb"});
    return q;
  });
}

TEST(VecPlanTest, DualKeyJoin) {
  Table t1 = MakeIdTable("t1", 300, 6, 3);
  Table t2 = MakeIdTable("t2", 300, 6, 4);
  ExpectPlansAgree([&] {
    ConjunctiveQuery q;
    q.tables.push_back(TableRef{&t1, nullptr, "t1", 1.0});
    q.tables.push_back(TableRef{&t2, nullptr, "t2", 1.0});
    q.joins.push_back(JoinCondition{0, 0, 1, 0});
    q.joins.push_back(JoinCondition{0, 1, 1, 1});
    q.outputs.push_back(OutputCol{0, 0, "a"});
    q.outputs.push_back(OutputCol{1, 1, "b"});
    return q;
  });
}

TEST(VecPlanTest, CrossProduct) {
  Table t1 = MakeIdTable("t1", 40, 5, 5);
  Table t2 = MakeIdTable("t2", 60, 5, 6);
  ExpectPlansAgree([&] {
    ConjunctiveQuery q;
    q.tables.push_back(TableRef{&t1, nullptr, "t1", 1.0});
    q.tables.push_back(TableRef{&t2, nullptr, "t2", 1.0});
    q.outputs.push_back(OutputCol{0, 0, "a"});
    q.outputs.push_back(OutputCol{1, 0, "b"});
    return q;
  });
}

TEST(VecPlanTest, ThreeWayJoinMixedShapes) {
  // Join chain plus a disconnected (cross) relation — the general rule
  // shape: binding literals joined on shared variables, a free domain
  // table crossed in.
  Table t1 = MakeIdTable("t1", 120, 8, 7);
  Table t2 = MakeIdTable("t2", 150, 8, 8);
  Table dom("dom", Schema({{"v", ColumnType::kInt64}}));
  for (int i = 0; i < 4; ++i) dom.Append({Datum(int64_t{i})});
  dom.Analyze();
  ExpectPlansAgree([&] {
    ConjunctiveQuery q;
    q.tables.push_back(TableRef{&t1, nullptr, "t1", 1.0});
    q.tables.push_back(TableRef{&t2, nullptr, "t2", 1.0});
    q.tables.push_back(TableRef{&dom, nullptr, "dom", 1.0});
    q.joins.push_back(JoinCondition{0, 1, 1, 0});
    q.outputs.push_back(OutputCol{0, 0, "x"});
    q.outputs.push_back(OutputCol{1, 1, "y"});
    q.outputs.push_back(OutputCol{2, 0, "c"});
    return q;
  });
}

/// A `num_cols`-column id table whose cells are drawn from `values`.
Table MakeTableOver(const std::string& name, int num_cols, int num_rows,
                    const std::vector<int64_t>& values, uint64_t seed) {
  std::vector<Column> cols;
  for (int c = 0; c < num_cols; ++c) {
    cols.push_back(Column{"c" + std::to_string(c), ColumnType::kInt64});
  }
  Table t(name, Schema(cols));
  Rng rng(seed);
  for (int i = 0; i < num_rows; ++i) {
    Row row;
    for (int c = 0; c < num_cols; ++c) {
      row.push_back(Datum(values[rng.Uniform(values.size())]));
    }
    t.Append(std::move(row));
  }
  t.Analyze();
  return t;
}

/// Joins two 3-column tables on all three columns and outputs both sides.
std::function<ConjunctiveQuery()> ThreeKeyJoin(const Table* t1,
                                               const Table* t2) {
  return [=] {
    ConjunctiveQuery q;
    q.tables.push_back(TableRef{t1, nullptr, "t1", 1.0});
    q.tables.push_back(TableRef{t2, nullptr, "t2", 1.0});
    for (int c = 0; c < 3; ++c) q.joins.push_back(JoinCondition{0, c, 1, c});
    for (int t = 0; t < 2; ++t) {
      for (int c = 0; c < 3; ++c) q.outputs.push_back(OutputCol{t, c, "v"});
    }
    return q;
  };
}

TEST(VecPlanTest, ThreeKeyJoin) {
  Table t1 = MakeTableOver("w1", 3, 200, {0, 1, 2, 3}, 11);
  Table t2 = MakeTableOver("w2", 3, 150, {0, 1, 2, 3}, 12);
  ExpectPlansAgree(ThreeKeyJoin(&t1, &t2));
}

TEST(VecPlanTest, ThreeKeyJoinOnValuesOutsideThe31BitRange) {
  // Negative ids and ids at or past 2^31 and 2^32, including pairs that
  // agree in their low 32 bits: distinct tuples must never match.
  const int64_t k32 = int64_t{1} << 32;
  const std::vector<int64_t> values = {
      -1, -k32, 0, 1, (int64_t{1} << 31) - 1, int64_t{1} << 31, k32, k32 + 1,
      INT64_MIN, INT64_MAX};
  Table t1 = MakeTableOver("w1", 3, 300, values, 13);
  Table t2 = MakeTableOver("w2", 3, 300, values, 14);
  ExpectPlansAgree(ThreeKeyJoin(&t1, &t2));

  auto plan = Optimizer(OptimizerOptions{}).Plan(ThreeKeyJoin(&t1, &t2)());
  ASSERT_TRUE(plan.ok());
  RowsInt rows = MaterializeVec(plan.value().root.get());
  size_t expected = 0;
  for (const Row& a : t1.rows()) {
    for (const Row& b : t2.rows()) {
      expected += a[0] == b[0] && a[1] == b[1] && a[2] == b[2];
    }
  }
  EXPECT_EQ(rows.size(), expected);
  for (const auto& r : rows) {
    EXPECT_TRUE(r[0] == r[3] && r[1] == r[4] && r[2] == r[5]);
  }
}

TEST(VecPlanTest, EachOptionBuildsOneTranslation) {
  Table t1 = MakeIdTable("t1", 50, 5);
  Table t2 = MakeIdTable("t2", 50, 5);
  auto make_query = [&] {
    ConjunctiveQuery q;
    q.tables.push_back(TableRef{&t1, nullptr, "t1", 1.0});
    q.tables.push_back(TableRef{&t2, nullptr, "t2", 1.0});
    q.joins.push_back(JoinCondition{0, 0, 1, 0});
    q.outputs.push_back(OutputCol{0, 1, "b"});
    return q;
  };
  // The batch root is a batch operator; a lesion's Volcano plan sits
  // behind a RowSourceOp. EXPLAIN names the one tree that was built.
  auto expect_batch = [&](const OptimizerOptions& opts, bool batch) {
    auto plan = Optimizer(opts).Plan(make_query());
    ASSERT_TRUE(plan.ok());
    EXPECT_EQ(IsBatchPlan(plan.value()), batch) << plan.value().explain;
    const bool volcano =
        dynamic_cast<RowSourceOp*>(plan.value().root.get()) != nullptr;
    EXPECT_EQ(volcano, !batch);
    EXPECT_EQ(plan.value().explain.find(batch ? "\nHashJoin" : "Vec"),
              std::string::npos)
        << plan.value().explain;
  };
  expect_batch(OptimizerOptions{}, true);
  OptimizerOptions fixed_order;
  fixed_order.fixed_join_order = true;
  expect_batch(fixed_order, true);
  OptimizerOptions no_hash;
  no_hash.enable_hash_join = false;
  expect_batch(no_hash, false);
  OptimizerOptions no_pushdown;
  no_pushdown.disable_predicate_pushdown = true;
  expect_batch(no_pushdown, false);
  expect_batch(VolcanoOptions(), false);
}

TEST(VecPlanTest, BatchPlanRejectsRelationsWithoutAnIdView) {
  Table t("s", Schema({{"a", ColumnType::kString}}));
  t.Append({Datum("x")});
  t.Analyze();
  EXPECT_EQ(t.id_view(), nullptr);
  ConjunctiveQuery q;
  q.tables.push_back(TableRef{&t, nullptr, "t", 1.0});
  auto plan = Optimizer(OptimizerOptions{}).Plan(std::move(q));
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument);
}

TEST(VecPlanTest, BatchPlanRejectsFiltersOutsideTheEqualityGrammar) {
  Table t = MakeIdTable("t", 20, 5);
  ConjunctiveQuery q;
  TableRef ref;
  ref.table = &t;
  ref.filter = Cmp(CompareOp::kLt, Col(0), Val(Datum(int64_t{3})));
  q.tables.push_back(std::move(ref));
  q.outputs.push_back(OutputCol{0, 0, "a"});
  auto plan = Optimizer(OptimizerOptions{}).Plan(std::move(q));
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument);
}

// ------------------------------------------------------ ANALYZE estimate

TEST(AnalyzeTest, SmallTableDistinctIsExact) {
  Table t = MakeIdTable("t", 1000, 37);
  const TableStats& stats = t.Analyze();
  EXPECT_EQ(stats.columns[0].num_distinct, 37u);
}

TEST(AnalyzeTest, LargeTableDistinctIsSampledEstimate) {
  // 50k rows, 1000 distinct values: the sampled GEE estimate must land
  // in the right order of magnitude (the exact scan would, before this
  // change, have dominated ANALYZE time on large atom tables).
  Table t("big", Schema({{"a", ColumnType::kInt64}}));
  Rng rng(3);
  for (int i = 0; i < 50000; ++i) {
    t.Append({Datum(static_cast<int64_t>(rng.Uniform(1000)))});
  }
  const TableStats& stats = t.Analyze();
  EXPECT_GE(stats.columns[0].num_distinct, 500u);
  EXPECT_LE(stats.columns[0].num_distinct, 5000u);
  // Deterministic across calls (fixed sample seed).
  uint64_t first = stats.columns[0].num_distinct;
  EXPECT_EQ(t.Analyze().columns[0].num_distinct, first);
}

// -------------------------------------------------- grounding equality

/// Bit-identical grounding across executors and thread counts on the RC
/// example (self-join, cross products, residual filters, existential
/// binding literal) and on LP (multi-way joins, dual-key join).
void ExpectGroundingIdentical(const Dataset& ds) {
  auto run = [&](bool vectorized, int threads) {
    GroundingOptions gopts;
    gopts.num_threads = threads;
    OptimizerOptions oopts;
    oopts.enable_vectorized = vectorized;
    BottomUpGrounder g(ds.program, ds.evidence, gopts, oopts);
    auto r = g.Ground();
    EXPECT_TRUE(r.ok());
    return r.TakeValue();
  };
  GroundingResult volcano = run(false, 1);
  GroundingResult vec = run(true, 1);
  GroundingResult vec_mt = run(true, 4);
  GroundingResult volcano_mt = run(false, 4);

  ExpectSameGrounding(volcano, vec);
  ExpectSameGrounding(vec, vec_mt);
  ExpectSameGrounding(vec, volcano_mt);
}

TEST(VecGroundingTest, RcGroundingBitIdenticalAcrossExecutors) {
  RcParams p;
  p.num_clusters = 12;
  p.papers_per_cluster = 8;
  p.num_categories = 4;
  auto ds = MakeRcDataset(p);
  ASSERT_TRUE(ds.ok());
  ExpectGroundingIdentical(ds.value());
}

TEST(VecGroundingTest, LpGroundingBitIdenticalAcrossExecutors) {
  LpParams p;
  p.num_professors = 5;
  p.num_students = 20;
  p.num_courses = 15;
  p.num_publications = 300;
  auto ds = MakeLpDataset(p);
  ASSERT_TRUE(ds.ok());
  ExpectGroundingIdentical(ds.value());
}

TEST(VecGroundingTest, ExplainAnalyzeReportsOperatorStats) {
  RcParams p;
  p.num_clusters = 3;
  p.papers_per_cluster = 4;
  auto ds = MakeRcDataset(p);
  ASSERT_TRUE(ds.ok());
  GroundingOptions gopts;
  OptimizerOptions oopts;
  oopts.analyze = true;
  BottomUpGrounder g(ds.value().program, ds.value().evidence, gopts, oopts);
  ASSERT_TRUE(g.Ground().ok());
  EXPECT_NE(g.explain().find("analyze rule"), std::string::npos);
  EXPECT_NE(g.explain().find("rows="), std::string::npos);
  EXPECT_NE(g.explain().find("time="), std::string::npos);
  // The vectorized plans report chunk counts too.
  EXPECT_NE(g.explain().find("chunks="), std::string::npos);
}

}  // namespace
}  // namespace tuffy
