#include "rule_queries.h"

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "ground/atom_loader.h"
#include "ground/bottom_up_grounder.h"
#include "ra/catalog.h"
#include "storage/evidence_side_tables.h"

namespace perfbench {

using namespace tuffy;

Status MeasureRuleQueries(const MlnProgram& program,
                          const EvidenceDb& evidence,
                          const OptimizerOptions& optimizer,
                          SpanRecorder* rec, Report* report) {
  ScopedSpan root(rec, "ground.breakdown");
  Catalog catalog;
  std::unordered_map<PredicateId, uint64_t> true_counts;
  {
    ScopedSpan span(rec, "ground.load");
    TUFFY_RETURN_IF_ERROR(
        LoadMlnTables(program, evidence, &catalog, &true_counts));
  }
  EvidenceSideTables side_tables(program.num_predicates());
  {
    ScopedSpan span(rec, "ground.side_tables");
    side_tables.Rebuild(evidence);
  }
  const EvidenceSideTables* sides =
      optimizer.enable_antijoin_pruning ? &side_tables : nullptr;
  uint64_t rows = 0;
  double max_rule = 0.0;
  double total = 0.0;
  for (int r = 0; r < static_cast<int>(program.clauses().size()); ++r) {
    const int span = rec->Begin("ra.query", static_cast<uint64_t>(r) + 1);
    TUFFY_ASSIGN_OR_RETURN(
        RuleBindingQuery query,
        BuildRuleBindingQuery(program, r, catalog, true_counts, sides));
    std::vector<Assignment> bindings;
    if (!query.trivial) {
      TUFFY_RETURN_IF_ERROR(CollectBindings(program, r, std::move(query),
                                            optimizer, nullptr, &bindings));
    }
    rec->End(span);
    const Span& s = rec->spans()[span];
    const double seconds = Seconds(s.end_ns - s.start_ns);
    max_rule = std::max(max_rule, seconds);
    total += seconds;
    rows += bindings.size();
  }
  report->values["ground.load_s"] = rec->TotalSeconds("ground.load");
  report->values["ra.query_s"] = total;
  report->values["ra.rows_out"] = static_cast<double>(rows);
  report->values["ra.rule_max_frac"] = total > 0 ? max_rule / total : 0.0;
  return Status::OK();
}

}  // namespace perfbench
