#include "infer/component_walksat.h"

#include <algorithm>
#include <memory>

#include "infer/exact/exact_solver.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace tuffy {

ComponentSearchResult RunComponentWalkSat(
    size_t num_atoms, const std::vector<GroundClause>& clauses,
    const ComponentSet& components, const ComponentSearchOptions& options,
    uint64_t seed) {
  Timer timer;
  ComponentSearchResult result;
  result.truth.assign(num_atoms, 0);

  const size_t k = components.num_components();
  // Per-component sub-problems ("loading") and resumable searchers.
  std::vector<SubProblem> subs(k);
  std::vector<std::unique_ptr<Rng>> rngs(k);
  std::vector<std::unique_ptr<IncrementalWalkSat>> searchers(k);
  std::vector<uint64_t> budget(k, 0);

  std::vector<uint8_t> exact(k, 0);
  std::vector<double> exact_cost(k, 0.0);

  uint64_t total_atoms = num_atoms > 0 ? num_atoms : 1;
  // One remap scratch serves every component: they are disjoint.
  auto local_of_atom = std::make_unique_for_overwrite<AtomId[]>(num_atoms);
  for (size_t i = 0; i < k; ++i) {
    subs[i] = BuildSubProblem(clauses, components.clauses[i],
                              components.atoms[i], local_of_atom.get());
    // Tractable components skip WalkSAT entirely: the exact solver is
    // deterministic, so bit-identity across thread counts is preserved,
    // and per-component seeds stay keyed by component index either way.
    if (options.use_exact) {
      ExactSolveResult ex = TrySolveExact(subs[i].problem,
                                          options.hard_weight,
                                          /*want_marginals=*/false);
      if (ex.solved) {
        exact[i] = 1;
        exact_cost[i] = ex.map_cost;
        for (size_t j = 0; j < subs[i].global_atom.size(); ++j) {
          result.truth[subs[i].global_atom[j]] = ex.truth[j];
        }
        ++result.exact_components;
        continue;
      }
    }
    rngs[i] = std::make_unique<Rng>(DeriveSeed(seed, i));
    // Constructing the searcher here (still on this thread) builds its
    // occurrence lists; the thread-pool workers below only ever read the
    // sub-problem.
    WalkSatOptions wopts;
    wopts.p_random = options.p_random;
    wopts.hard_weight = options.hard_weight;
    wopts.init_random = options.init_random;
    searchers[i] = std::make_unique<IncrementalWalkSat>(&subs[i].problem,
                                                        wopts, rngs[i].get());
    budget[i] = std::max<uint64_t>(
        1, ProportionalBudget(options.total_flips, components.atoms[i].size(),
                              total_atoms));
    result.state_bytes += subs[i].problem.EstimateBytes() +
                          searchers[i]->state_bytes();
  }

  int rounds = std::max(1, options.rounds);
  std::unique_ptr<ThreadPool> pool;
  if (options.num_threads > 1) {
    pool = std::make_unique<ThreadPool>(options.num_threads);
  }

  for (int round = 0; round < rounds; ++round) {
    if (timer.ElapsedSeconds() > options.timeout_seconds) break;
    for (size_t i = 0; i < k; ++i) {
      uint64_t chunk = budget[i] / rounds;
      if (round == rounds - 1) chunk = budget[i] - chunk * (rounds - 1);
      if (chunk == 0) continue;
      if (pool != nullptr) {
        IncrementalWalkSat* searcher = searchers[i].get();
        pool->Submit([searcher, chunk] { searcher->RunFlips(chunk); });
      } else {
        searchers[i]->RunFlips(chunk);
      }
    }
    if (pool != nullptr) pool->WaitIdle();
    double total_best = 0.0;
    uint64_t total_flips = 0;
    for (size_t i = 0; i < k; ++i) {
      if (exact[i]) {
        total_best += exact_cost[i];
        continue;
      }
      total_best += searchers[i]->best_cost();
      total_flips += searchers[i]->flips();
    }
    result.trace.push_back(
        TracePoint{timer.ElapsedSeconds(), total_flips, total_best});
  }

  // Merge per-component bests into the global assignment.
  result.cost = 0.0;
  result.flips = 0;
  for (size_t i = 0; i < k; ++i) {
    if (exact[i]) {
      result.cost += exact_cost[i];  // truth already scattered above
      continue;
    }
    result.cost += searchers[i]->best_cost();
    result.flips += searchers[i]->flips();
    const std::vector<uint8_t>& best = searchers[i]->best_truth();
    for (size_t j = 0; j < subs[i].global_atom.size(); ++j) {
      result.truth[subs[i].global_atom[j]] = best[j];
    }
  }
  result.seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace tuffy
