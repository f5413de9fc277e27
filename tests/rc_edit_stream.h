// A seeded stream of evidence edits over a generated RC dataset, shaped
// like a serving workload: most deltas relabel a labeled paper (retract
// its `cat` label, assert another category), the rest add or remove a
// `refers` edge between two papers of one cluster. Edges never cross
// clusters, so the MRF keeps its cluster-sized components.
#ifndef TUFFY_TESTS_RC_EDIT_STREAM_H_
#define TUFFY_TESTS_RC_EDIT_STREAM_H_

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "datagen/datasets.h"
#include "serve/delta_grounder.h"
#include "util/rng.h"

namespace tuffy {

/// `n` deltas over `ds` (generated with `params`). `evidence` starts as
/// ds.evidence and ends as the evidence after the whole stream.
inline std::vector<EvidenceDelta> MakeRcEditStream(const Dataset& ds,
                                                   const RcParams& params,
                                                   int n, uint64_t seed,
                                                   EvidenceDb* evidence) {
  using Edge = std::pair<ConstantId, ConstantId>;
  const MlnProgram& program = ds.program;
  const PredicateId cat = program.FindPredicate("cat").value();
  const PredicateId refers = program.FindPredicate("refers").value();
  const PredicateId paper = program.FindPredicate("paper").value();
  const std::vector<ConstantId> categories =
      program.symbols().Domain("category");
  std::vector<std::vector<ConstantId>> clusters(params.num_clusters);
  std::vector<GroundAtom> labels;
  std::set<Edge> edges;
  for (const auto& [atom, truth] : ds.evidence.entries()) {
    if (!truth) continue;
    if (atom.pred == paper) {
      // Generated papers are P<n>, in blocks of papers_per_cluster.
      const int id =
          std::stoi(program.symbols().SymbolName(atom.args[0]).substr(1));
      clusters[id / params.papers_per_cluster].push_back(atom.args[0]);
    }
    if (atom.pred == cat) labels.push_back(atom);
    if (atom.pred == refers) edges.insert({atom.args[0], atom.args[1]});
  }
  // Hash-map order must not leak into the stream.
  for (auto& papers : clusters) std::sort(papers.begin(), papers.end());
  std::sort(labels.begin(), labels.end(),
            [](const GroundAtom& a, const GroundAtom& b) {
              return a.args < b.args;
            });

  *evidence = ds.evidence;
  Rng rng(seed);
  std::vector<EvidenceDelta> out(n);
  for (EvidenceDelta& delta : out) {
    if (rng.NextDouble() < 0.2) {
      const auto& papers = clusters[rng.Uniform(clusters.size())];
      const size_t from = rng.Uniform(papers.size());
      const size_t to =
          (from + 1 + rng.Uniform(papers.size() - 1)) % papers.size();
      const Edge e{papers[from], papers[to]};
      GroundAtom edge;
      edge.pred = refers;
      edge.args = {e.first, e.second};
      if (edges.erase(e) != 0) {
        delta.Retract(edge);
        evidence->Remove(edge);
      } else {
        edges.insert(e);
        delta.Assert(edge, true);
        evidence->Add(edge, true);
      }
    } else {
      GroundAtom& label = labels[rng.Uniform(labels.size())];
      GroundAtom relabeled = label;
      do {
        relabeled.args[1] = categories[rng.Uniform(categories.size())];
      } while (relabeled.args[1] == label.args[1]);
      delta.Retract(label);
      delta.Assert(relabeled, true);
      evidence->Remove(label);
      evidence->Add(relabeled, true);
      label = relabeled;
    }
  }
  return out;
}

}  // namespace tuffy

#endif  // TUFFY_TESTS_RC_EDIT_STREAM_H_
