#ifndef PERFBENCH_RULE_QUERIES_H_
#define PERFBENCH_RULE_QUERIES_H_

// Grounding breakdown shared by the traced batch and serve_rc runs: the
// relational half of bottom-up grounding, timed from outside through the
// public functions the grounder calls.

#include "common.h"
#include "mln/model.h"
#include "ra/optimizer.h"
#include "spans.h"
#include "util/status.h"

namespace perfbench {

/// LoadMlnTables, then every rule's BuildRuleBindingQuery +
/// CollectBindings on the loaded catalog, each inside a span. Stores
/// ground.load_s, ra.query_s (sums), ra.rows_out (the candidate count)
/// and ra.rule_max_frac (the slowest rule's share of ra.query_s).
tuffy::Status MeasureRuleQueries(const tuffy::MlnProgram& program,
                                 const tuffy::EvidenceDb& evidence,
                                 const tuffy::OptimizerOptions& optimizer,
                                 SpanRecorder* rec, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_RULE_QUERIES_H_
