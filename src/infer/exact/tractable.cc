#include "infer/exact/tractable.h"

#include <algorithm>
#include <unordered_map>

namespace tuffy {

namespace {

/// Union-find over atoms for the pair-graph acyclicity check.
struct UnionFind {
  std::vector<uint32_t> parent;
  explicit UnionFind(size_t n) : parent(n) {
    for (size_t i = 0; i < n; ++i) parent[i] = static_cast<uint32_t>(i);
  }
  uint32_t Find(uint32_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  }
  /// Returns false when x and y are already connected (a cycle).
  bool Union(uint32_t x, uint32_t y) {
    uint32_t rx = Find(x), ry = Find(y);
    if (rx == ry) return false;
    parent[rx] = ry;
    return true;
  }
};

}  // namespace

const char* ExactFragmentName(ExactFragment fragment) {
  switch (fragment) {
    case ExactFragment::kNotTractable: return "not_tractable";
    case ExactFragment::kUnitOnly: return "unit_only";
    case ExactFragment::kForest: return "forest";
    case ExactFragment::kConditioned: return "conditioned";
  }
  return "not_tractable";
}

TractableStructure AnalyzeTractable(const Problem& problem) {
  TractableStructure st;
  const size_t n = problem.num_atoms;
  st.forced.assign(n, -1);
  st.unary.assign(2 * n, 0.0);
  st.touched.assign(n, 0);

  // The problem's clauses arrive normalized: duplicate literals dropped
  // and tautologies flagged `frozen`, so every live clause mentions an
  // atom at most once and literal order does not matter below. A frozen
  // clause only feeds the constant (a negative-weight tautology is
  // permanently violated; a positive or hard one is permanently
  // satisfied).
  const size_t nc = problem.num_clauses();
  const std::vector<uint8_t>& hard = problem.hard;
  const std::vector<double>& weight = problem.weight;
  const std::vector<uint8_t>& frozen = problem.frozen;
  for (size_t c = 0; c < nc; ++c) {
    if (frozen[c] && !hard[c] && weight[c] < 0) {
      st.constant_cost += -weight[c];
    }
  }
  auto clause_lits = [&](size_t c) {
    return problem.clause_lits(static_cast<uint32_t>(c));
  };
  auto clause_len = [&](size_t c) {
    return problem.clause_size(static_cast<uint32_t>(c));
  };

  // Hard-unit propagation: a hard clause whose other literals are all
  // forced false forces its remaining literal true. Counter-based, over
  // occurrence lists of hard clauses only (soft clauses never force).
  std::vector<std::vector<uint32_t>> occ(n);
  std::vector<uint32_t> remaining(nc, 0);
  std::vector<uint8_t> sat(nc, 0);
  for (size_t c = 0; c < nc; ++c) {
    if (!hard[c] || frozen[c]) continue;
    remaining[c] = clause_len(c);
    for (uint32_t i = 0; i < clause_len(c); ++i) {
      occ[LitAtom(clause_lits(c)[i])].push_back(static_cast<uint32_t>(c));
    }
  }
  std::vector<AtomId> queue;
  bool contradiction = false;
  auto force = [&](AtomId a, int8_t value) {
    if (st.forced[a] == value) return;
    if (st.forced[a] != -1) {
      contradiction = true;
      return;
    }
    st.forced[a] = value;
    queue.push_back(a);
  };
  for (size_t c = 0; c < nc && !contradiction; ++c) {
    if (!hard[c] || frozen[c]) continue;
    if (clause_len(c) == 0) contradiction = true;  // empty hard clause
    if (clause_len(c) == 1) {
      Lit l = clause_lits(c)[0];
      force(LitAtom(l), LitPositive(l) ? 1 : 0);
    }
  }
  while (!queue.empty() && !contradiction) {
    AtomId a = queue.back();
    queue.pop_back();
    for (uint32_t c : occ[a]) {
      if (sat[c] || contradiction) continue;
      Lit mine = 0;
      for (uint32_t i = 0; i < clause_len(c); ++i) {
        if (LitAtom(clause_lits(c)[i]) == a) mine = clause_lits(c)[i];
      }
      if ((st.forced[a] != 0) == LitPositive(mine)) {
        sat[c] = 1;
        continue;
      }
      if (--remaining[c] == 0) {
        contradiction = true;  // every hard world violates this clause
        break;
      }
      if (remaining[c] == 1) {
        for (uint32_t i = 0; i < clause_len(c); ++i) {
          Lit l = clause_lits(c)[i];
          if (st.forced[LitAtom(l)] == -1) {
            force(LitAtom(l), LitPositive(l) ? 1 : 0);
            break;
          }
        }
      }
    }
  }
  if (contradiction) return st;  // kNotTractable

  // Residual build: partially evaluate every clause against the forced
  // atoms; clauses keeping one unforced atom become unary charges, two
  // become pairwise cells, more is outside the fragment.
  UnionFind uf(n);
  std::unordered_map<uint64_t, uint32_t> edge_of_pair;
  bool has_binary = false;
  Lit res[2];
  for (size_t c = 0; c < nc; ++c) {
    if (frozen[c]) continue;
    bool sat_by_forced = false;
    uint32_t nres = 0;
    bool wide = false;
    for (uint32_t i = 0; i < clause_len(c); ++i) {
      Lit l = clause_lits(c)[i];
      int8_t f = st.forced[LitAtom(l)];
      if (f == -1) {
        if (nres < 2) res[nres] = l;
        if (++nres > 2) wide = true;
      } else if ((f != 0) == LitPositive(l)) {
        sat_by_forced = true;
      }
    }
    const bool positive = hard[c] || weight[c] >= 0;
    if (positive) {
      // Violated iff no literal is true.
      if (sat_by_forced) continue;
      if (nres == 0) {
        if (hard[c]) {
          // Unsatisfiable hard clause propagation did not flag (cannot
          // happen by construction; belt-and-braces).
          st.fragment = ExactFragment::kNotTractable;
          return st;
        }
        st.constant_cost += weight[c];  // permanently violated soft
        continue;
      }
    } else {
      // w < 0: violated iff some literal is true.
      if (sat_by_forced) {
        st.constant_cost += -weight[c];
        continue;
      }
      if (nres == 0) continue;  // permanently false, never violated
    }
    if (wide) {
      st.fragment = ExactFragment::kNotTractable;
      return st;
    }
    if (nres == 1) {
      const AtomId a = LitAtom(res[0]);
      const int s = LitPositive(res[0]) ? 1 : 0;
      st.touched[a] = 1;
      // Positive: violated when the atom takes the literal-falsifying
      // value. Negative: violated when the literal is true.
      if (positive) {
        st.unary[2 * a + (1 - s)] += weight[c];
      } else {
        st.unary[2 * a + s] += -weight[c];
      }
      continue;
    }
    // nres == 2.
    AtomId u = LitAtom(res[0]), v = LitAtom(res[1]);
    int su = LitPositive(res[0]) ? 1 : 0, sv = LitPositive(res[1]) ? 1 : 0;
    if (u > v) {
      std::swap(u, v);
      std::swap(su, sv);
    }
    const uint64_t key = (static_cast<uint64_t>(u) << 32) | v;
    auto [it, inserted] = edge_of_pair.try_emplace(
        key, static_cast<uint32_t>(st.edges.size()));
    if (inserted) {
      if (!uf.Union(u, v)) {
        st.fragment = ExactFragment::kNotTractable;  // pair-graph cycle
        return st;
      }
      TractableStructure::Edge e;
      e.u = u;
      e.v = v;
      st.edges.push_back(e);
    }
    TractableStructure::Edge& e = st.edges[it->second];
    st.touched[u] = 1;
    st.touched[v] = 1;
    has_binary = true;
    if (hard[c]) {
      e.hard[2 * (1 - su) + (1 - sv)] += 1;
    } else if (positive) {
      e.cost[2 * (1 - su) + (1 - sv)] += weight[c];
    } else {
      // Violated in the three cells where some literal is true.
      const double w = -weight[c];
      e.cost[2 * su + sv] += w;
      e.cost[2 * su + (1 - sv)] += w;
      e.cost[2 * (1 - su) + sv] += w;
    }
  }

  st.adj.assign(n, {});
  for (uint32_t ei = 0; ei < st.edges.size(); ++ei) {
    st.adj[st.edges[ei].u].push_back(ei);
    st.adj[st.edges[ei].v].push_back(ei);
  }

  bool conditioned = false;
  for (int8_t f : st.forced) {
    if (f != -1) conditioned = true;
  }
  st.fragment = conditioned ? ExactFragment::kConditioned
                : has_binary ? ExactFragment::kForest
                             : ExactFragment::kUnitOnly;
  return st;
}

}  // namespace tuffy
