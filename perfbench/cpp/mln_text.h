#ifndef PERFBENCH_MLN_TEXT_H_
#define PERFBENCH_MLN_TEXT_H_

// The batch workloads' text round trip: a generated dataset is rendered
// to MLN program text and evidence text, and set-up is ParseProgram +
// ParseEvidence of that text, as a user of tuffy_cli would load it.
//
// Constant ids are interned in first-use order, and both grounding and
// search break ties by id and by evidence-map order. A parsed dataset is
// therefore a relabeling of the generated one, not a copy. The in-memory
// reference the parsed runs are checked against is built through the
// model API (MlnProgram::AddClause, SymbolTable::Intern, EvidenceDb::Add)
// in the order the text lists things, and CompareToSource checks that
// nothing but the labels changed.

#include <string>
#include <vector>

#include "datagen/datasets.h"

namespace perfbench {

/// One evidence entry of the rendered text, in line order.
struct EvidenceLine {
  tuffy::GroundAtom atom;
  bool truth = true;
};

/// Evidence entries of `ds` in the order RenderEvidence writes them: a
/// canonical order (by predicate, then by argument ids) shuffled by
/// `seed`. The order decides which constant ids the parser assigns.
std::vector<EvidenceLine> OrderedEvidence(const tuffy::Dataset& ds,
                                          uint64_t seed);

std::string RenderProgram(const tuffy::MlnProgram& program);
std::string RenderEvidence(const tuffy::MlnProgram& program,
                           const std::vector<EvidenceLine>& lines);

/// Builds the dataset the rendered text describes through the model API,
/// interning constants in the same order the parser meets them.
tuffy::Result<tuffy::Dataset> BuildReference(
    const tuffy::Dataset& source, const std::vector<EvidenceLine>& lines);

/// Checks that `parsed` has the predicates, clauses (weights bit for
/// bit), per-type domains and evidence of `source`, up to the relabeling
/// of constant ids. Returns "" when they match, else the first mismatch.
std::string CompareToSource(const tuffy::Dataset& source,
                            const tuffy::MlnProgram& parsed_program,
                            const tuffy::EvidenceDb& parsed_evidence);

}  // namespace perfbench

#endif  // PERFBENCH_MLN_TEXT_H_
