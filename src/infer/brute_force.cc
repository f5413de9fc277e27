#include "infer/brute_force.h"

#include <cmath>

#include "util/string_util.h"

namespace tuffy {

Result<ExactMapResult> ExactMap(const Problem& problem, double hard_weight,
                                size_t max_atoms) {
  if (problem.num_atoms > max_atoms) {
    return Status::InvalidArgument(
        StrFormat("%zu atoms exceeds brute-force limit %zu",
                  problem.num_atoms, max_atoms));
  }
  ExactMapResult best;
  best.cost = std::numeric_limits<double>::infinity();
  std::vector<uint8_t> truth(problem.num_atoms, 0);
  uint64_t worlds = 1ull << problem.num_atoms;
  for (uint64_t w = 0; w < worlds; ++w) {
    for (size_t i = 0; i < problem.num_atoms; ++i) {
      truth[i] = (w >> i) & 1 ? 1 : 0;
    }
    double cost = problem.EvalCost(truth, hard_weight);
    if (cost < best.cost) {
      best.cost = cost;
      best.truth = truth;
    }
  }
  return best;
}

Result<std::vector<double>> ExactMarginals(const Problem& problem,
                                           size_t max_atoms) {
  if (problem.num_atoms > max_atoms) {
    return Status::InvalidArgument(
        StrFormat("%zu atoms exceeds brute-force limit %zu",
                  problem.num_atoms, max_atoms));
  }
  std::vector<double> numer(problem.num_atoms, 0.0);
  double z = 0.0;
  std::vector<uint8_t> truth(problem.num_atoms, 0);
  uint64_t worlds = 1ull << problem.num_atoms;
  for (uint64_t w = 0; w < worlds; ++w) {
    bool hard_violated = false;
    for (size_t i = 0; i < problem.num_atoms; ++i) {
      truth[i] = (w >> i) & 1 ? 1 : 0;
    }
    double cost = 0.0;
    for (uint32_t c = 0; c < problem.num_clauses(); ++c) {
      const Lit* lits = problem.clause_lits(c);
      const uint32_t len = problem.clause_size(c);
      const double weight = problem.weight[c];
      bool is_true = false;
      for (uint32_t i = 0; i < len; ++i) {
        if ((truth[LitAtom(lits[i])] != 0) == LitPositive(lits[i])) {
          is_true = true;
          break;
        }
      }
      if (problem.hard[c]) {
        if (!is_true) hard_violated = true;
      } else if (weight > 0 && !is_true) {
        cost += weight;
      } else if (weight < 0 && is_true) {
        cost += -weight;
      }
    }
    if (hard_violated) continue;
    double p = std::exp(-cost);
    z += p;
    for (size_t i = 0; i < problem.num_atoms; ++i) {
      if (truth[i]) numer[i] += p;
    }
  }
  if (z <= 0) return Status::Internal("no world satisfies the hard clauses");
  for (double& v : numer) v /= z;
  return numer;
}

Result<double> ExactLogZ(const Problem& problem, size_t max_atoms) {
  if (problem.num_atoms > max_atoms) {
    return Status::InvalidArgument(
        StrFormat("%zu atoms exceeds brute-force limit %zu",
                  problem.num_atoms, max_atoms));
  }
  double z = 0.0;
  std::vector<uint8_t> truth(problem.num_atoms, 0);
  uint64_t worlds = 1ull << problem.num_atoms;
  for (uint64_t w = 0; w < worlds; ++w) {
    bool hard_violated = false;
    for (size_t i = 0; i < problem.num_atoms; ++i) {
      truth[i] = (w >> i) & 1 ? 1 : 0;
    }
    double cost = 0.0;
    for (uint32_t c = 0; c < problem.num_clauses(); ++c) {
      const Lit* lits = problem.clause_lits(c);
      const uint32_t len = problem.clause_size(c);
      const double weight = problem.weight[c];
      bool is_true = false;
      for (uint32_t i = 0; i < len; ++i) {
        if ((truth[LitAtom(lits[i])] != 0) == LitPositive(lits[i])) {
          is_true = true;
          break;
        }
      }
      if (problem.hard[c]) {
        if (!is_true) hard_violated = true;
      } else if (weight > 0 && !is_true) {
        cost += weight;
      } else if (weight < 0 && is_true) {
        cost += -weight;
      }
    }
    if (hard_violated) continue;
    z += std::exp(-cost);
  }
  if (z <= 0) return Status::Internal("no world satisfies the hard clauses");
  return std::log(z);
}

}  // namespace tuffy
