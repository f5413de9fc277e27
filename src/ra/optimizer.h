#ifndef TUFFY_RA_OPTIMIZER_H_
#define TUFFY_RA_OPTIMIZER_H_

#include <memory>
#include <string>
#include <vector>

#include "ra/operators.h"
#include "ra/query.h"
#include "ra/vec_ops.h"
#include "util/result.h"

namespace tuffy {

/// Join algorithms the optimizer may choose from. Disabling algorithms
/// reproduces the paper's Table 6 lesion study ("fixed join algorithm" =
/// nested loop only).
struct OptimizerOptions {
  bool enable_hash_join = true;
  bool enable_merge_join = true;
  /// If true, joins tables in the order they appear in the query instead
  /// of cost-based greedy ordering ("fixed join order" lesion).
  bool fixed_join_order = false;
  /// If true, per-table filters stay above the joins (disables predicate
  /// pushdown). The default pushes filters onto the scans.
  bool disable_predicate_pushdown = false;
  /// If true (default), Plan builds the columnar batch plan (vec_ops.h);
  /// every relation must then have an id view and every pushed filter
  /// fit the VecPredicate grammar. False — like disabling hash joins or
  /// predicate pushdown — builds the Volcano plan instead: the test
  /// reference and the lesion baseline.
  bool enable_vectorized = true;
  /// Instruments the Volcano plan with per-operator timing so EXPLAIN
  /// output can include ANALYZE-style rows/time per operator. Batch
  /// operators are always instrumented (per-chunk cost is negligible).
  bool analyze = false;
  /// If true (default), the grounding compiler plans anti-joins against
  /// the evidence side tables so bindings whose clause is already
  /// satisfied by the evidence are pruned inside the query (Tuffy's
  /// satisfied-by-evidence SQL test). Disabling it is the Table-6-style
  /// lesion: every candidate flows to resolution, which then discards
  /// the satisfied ones — same ground store, more rows resolved. The
  /// flag gates AntiJoinRef *generation* (BuildRuleBindingQuery); Plan
  /// always lowers whatever refs a query carries.
  bool enable_antijoin_pruning = true;
};

/// The optimized physical plan plus EXPLAIN-style metadata. Plan builds
/// one translation per call (see OptimizerOptions::enable_vectorized);
/// either produces the same rows in the same order.
struct OptimizedPlan {
  /// The batch plan, or the Volcano plan behind a RowSourceOp.
  VecOpPtr root;
  /// Join order as indices into query.tables.
  std::vector<int> join_order;
  /// Human-readable operator tree, one operator per line, headed by the
  /// translation ("Batch plan" or "Volcano plan").
  std::string explain;
};

/// A System R-lite optimizer for conjunctive queries: estimates
/// cardinalities from table statistics, picks a greedy left-deep join
/// order that minimizes intermediate sizes, pushes filters to the scans,
/// and selects hash / sort-merge / nested-loop join per edge.
class Optimizer {
 public:
  explicit Optimizer(OptimizerOptions options = {}) : options_(options) {}

  /// Consumes `query` (filters are moved into the plan).
  Result<OptimizedPlan> Plan(ConjunctiveQuery query) const;

  /// Estimated output cardinality of `query` (exposed for tests).
  double EstimateCardinality(const ConjunctiveQuery& query) const;

 private:
  double EstimateFilteredRows(const TableRef& ref) const;

  OptimizerOptions options_;
};

}  // namespace tuffy

#endif  // TUFFY_RA_OPTIMIZER_H_
