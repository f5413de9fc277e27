#include "ground/ground_clause.h"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstring>
#include <functional>
#include <memory>

#include "util/thread_pool.h"

namespace tuffy {

AtomId AtomStore::GetOrCreate(const GroundAtom& atom) {
  auto it = ids_.find(atom);
  if (it != ids_.end()) return it->second;
  AtomId id = static_cast<AtomId>(atoms_.size());
  ids_[atom] = id;
  atoms_.push_back(atom);
  return id;
}

bool AtomStore::Find(const GroundAtom& atom, AtomId* out) const {
  auto it = ids_.find(atom);
  if (it == ids_.end()) return false;
  *out = it->second;
  return true;
}

std::string AtomStore::AtomName(const MlnProgram& program, AtomId id) const {
  const GroundAtom& a = atoms_[id];
  std::string out = program.predicate(a.pred).name + "(";
  for (size_t i = 0; i < a.args.size(); ++i) {
    if (i > 0) out += ", ";
    out += program.symbols().SymbolName(a.args[i]);
  }
  out += ")";
  return out;
}

namespace {

constexpr uint32_t kNoExtras = static_cast<uint32_t>(-1);

/// Hash of a canonical literal set with every output bit depending on
/// every input bit, so both its high bits (the shard) and its low bits
/// (the slot) spread.
uint32_t MixedLitHash(const Lit* begin, const Lit* end) {
  uint64_t h = 0x9E3779B97F4A7C15ull + static_cast<uint64_t>(end - begin);
  for (const Lit* p = begin; p != end; ++p) {
    h = (h ^ static_cast<uint32_t>(*p)) * 0xFF51AFD7ED558CCDull;
    h ^= h >> 29;
  }
  h ^= h >> 33;
  h *= 0xC4CEB9FE1A85EC53ull;
  h ^= h >> 33;
  return static_cast<uint32_t>(h);
}

size_t ShardOf(uint32_t hash, size_t num_shards) {
  return static_cast<size_t>((uint64_t{hash} * num_shards) >> 32);
}

size_t NextPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

/// Sorts and dedups the literals in [begin, end) in place, padding the
/// freed tail with 0 (never a literal). Returns false for a tautology.
bool Canonicalize(Lit* begin, Lit* end) {
  const ptrdiff_t n = end - begin;
  if (n <= 16) {
    for (ptrdiff_t i = 1; i < n; ++i) {
      const Lit v = begin[i];
      ptrdiff_t j = i;
      for (; j > 0 && begin[j - 1] > v; --j) begin[j] = begin[j - 1];
      begin[j] = v;
    }
  } else {
    std::sort(begin, end);
  }
  Lit* unique_end = std::unique(begin, end);
  std::fill(unique_end, end, 0);
  // Ascending order puts the negative literals first.
  Lit* positives = std::upper_bound(begin, unique_end, 0);
  for (const Lit* p = begin; p != positives; ++p) {
    if (std::binary_search(positives, unique_end, -*p)) return false;
  }
  return true;
}

/// One distinct clause under construction: its first emission plus the
/// weight, hardness and rule counts of every emission merged so far.
struct MergeAcc {
  double weight;
  uint32_t rep;     // first emission
  uint32_t extras;  // index into MergeShard::extras, or kNoExtras
  RuleContribution first;
  uint32_t clause;  // index in the built store (pass 3)
  bool hard;
};

/// The clauses whose hashes fall in one shard, with an open-addressing
/// index over them that lives only for the merge.
struct MergeShard {
  /// (hash << 32) | (accumulator index + 1); 0 = empty.
  std::vector<uint64_t> slots;
  /// In order of first emission.
  std::vector<MergeAcc> accs;
  std::vector<std::vector<RuleContribution>> extras;
  /// accs.size() when the walk entered each emission range, plus the end.
  std::vector<uint32_t> range_begin;

  void Grow() {
    std::vector<uint64_t> old;
    old.swap(slots);
    slots.assign(std::max<size_t>(64, old.size() * 2), 0);
    const size_t mask = slots.size() - 1;
    for (uint64_t v : old) {
      if (v == 0) continue;
      size_t slot = static_cast<size_t>(v >> 32) & mask;
      while (slots[slot] != 0) slot = (slot + 1) & mask;
      slots[slot] = v;
    }
  }
};

}  // namespace

uint32_t GroundClauseBuilder::SourceId(double weight, bool hard,
                                       int rule_id) {
  uint64_t bits;
  std::memcpy(&bits, &weight, sizeof(bits));
  if (!sources_.empty()) {
    const Source& last = sources_[last_source_];
    uint64_t last_bits;
    std::memcpy(&last_bits, &last.weight, sizeof(last_bits));
    if (last_bits == bits && last.hard == hard && last.rule_id == rule_id) {
      return last_source_;
    }
  }
  auto [it, inserted] = source_ids_.emplace(
      SourceKey{bits, rule_id, hard}, static_cast<uint32_t>(sources_.size()));
  if (inserted) sources_.push_back(Source{weight, hard, rule_id});
  last_source_ = it->second;
  return last_source_;
}

size_t GroundClauseBuilder::Add(const std::vector<Lit>& lits, double weight,
                                bool hard, int rule_id) {
  const size_t e = ends_.size();
  lits_.insert(lits_.end(), lits.begin(), lits.end());
  // 32-bit offsets, like the grounding context's pending arena that
  // every emitted clause comes from.
  assert(lits_.size() <= UINT32_MAX && "emission arena overflow");
  ends_.push_back(static_cast<uint32_t>(lits_.size()));
  source_of_.push_back(SourceId(weight, hard, rule_id));
  return e;
}

GroundClauseStore GroundClauseBuilder::Build(int num_threads,
                                             std::vector<size_t>* clause_of) {
  const size_t n = ends_.size();
  const size_t threads = n >= kParallelMinEmissions
                             ? static_cast<size_t>(std::max(1, num_threads))
                             : 1;
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
  auto parallel = [&](size_t tasks, const std::function<void(size_t)>& fn) {
    TaskGroup group(pool.get());
    for (size_t t = 0; t < tasks; ++t) group.Submit([&fn, t] { fn(t); });
    group.Wait();
  };
  // Several ranges per thread even out passes 1 and 3.
  const size_t num_ranges = threads == 1 ? 1 : 4 * threads;
  std::vector<size_t> range_start(num_ranges + 1);
  for (size_t r = 0; r <= num_ranges; ++r) {
    range_start[r] = n * r / num_ranges;
  }
  auto lits_begin = [&](size_t e) {
    return lits_.data() + (e == 0 ? 0 : ends_[e - 1]);
  };
  // End of emission e's literals once pass 1 has padded out duplicates.
  auto lits_end = [&](size_t e) {
    const Lit* begin = lits_begin(e);
    Lit* end = lits_.data() + ends_[e];
    while (end > begin && end[-1] == 0) --end;
    return end;
  };

  // Pass 1: canonical literal sets, their hashes, and how many
  // emissions each range sends to each shard.
  const size_t num_shards = threads;
  std::vector<uint32_t> hashes(n);
  std::vector<uint8_t> dropped(n, 0);
  std::vector<size_t> shard_counts(num_ranges * num_shards, 0);
  parallel(num_ranges, [&](size_t r) {
    std::vector<size_t> counts(num_shards, 0);
    for (size_t e = range_start[r]; e < range_start[r + 1]; ++e) {
      if (!Canonicalize(lits_begin(e), lits_.data() + ends_[e])) {
        dropped[e] = 1;
        continue;
      }
      hashes[e] = MixedLitHash(lits_begin(e), lits_end(e));
      ++counts[ShardOf(hashes[e], num_shards)];
    }
    std::copy(counts.begin(), counts.end(),
              shard_counts.begin() + r * num_shards);
  });

  // Pass 2: each shard walks its emissions in emission order, so every
  // accumulator starts from its clause's first emission and adds the
  // others in the order a one-at-a-time merge would.
  std::vector<MergeShard> shards(num_shards);
  std::vector<uint32_t> local_of;
  if (clause_of != nullptr) local_of.resize(n);
  parallel(num_shards, [&](size_t s) {
    MergeShard& sh = shards[s];
    size_t count = 0;
    for (size_t r = 0; r < num_ranges; ++r) {
      count += shard_counts[r * num_shards + s];
    }
    // One allocation at the upper bound: accumulators never move, and
    // capacity the shard's distinct clauses do not reach stays untouched.
    sh.accs.reserve(count);
    sh.slots.assign(NextPow2(std::max<size_t>(64, count)), 0);
    sh.range_begin.resize(num_ranges + 1);
    auto merge = [&](uint32_t e) {
      const uint32_t hash = hashes[e];
      if ((sh.accs.size() + 1) * 2 > sh.slots.size()) sh.Grow();
      const Source& src = sources_[source_of_[e]];
      const Lit* begin = lits_begin(e);
      const Lit* end = lits_end(e);
      const size_t mask = sh.slots.size() - 1;
      for (size_t slot = hash & mask;; slot = (slot + 1) & mask) {
        const uint64_t v = sh.slots[slot];
        if (v == 0) {
          const uint32_t local = static_cast<uint32_t>(sh.accs.size());
          sh.slots[slot] = (uint64_t{hash} << 32) | (uint64_t{local} + 1);
          sh.accs.push_back(MergeAcc{src.weight, e, kNoExtras,
                                     RuleContribution{src.rule_id, 1}, 0,
                                     src.hard});
          if (clause_of != nullptr) local_of[e] = local;
          return;
        }
        if (static_cast<uint32_t>(v >> 32) != hash) continue;
        const uint32_t local = static_cast<uint32_t>(v) - 1;
        MergeAcc& acc = sh.accs[local];
        const Lit* rep_begin = lits_begin(acc.rep);
        if (lits_end(acc.rep) - rep_begin != end - begin ||
            !std::equal(begin, end, rep_begin)) {
          continue;
        }
        acc.weight += src.weight;
        acc.hard = acc.hard || src.hard;
        if (acc.first.rule_id == src.rule_id) {
          ++acc.first.count;
        } else {
          if (acc.extras == kNoExtras) {
            acc.extras = static_cast<uint32_t>(sh.extras.size());
            sh.extras.emplace_back();
          }
          std::vector<RuleContribution>& extras = sh.extras[acc.extras];
          auto it = std::find_if(extras.begin(), extras.end(),
                                 [&](const RuleContribution& rc) {
                                   return rc.rule_id == src.rule_id;
                                 });
          if (it != extras.end()) {
            ++it->count;
          } else {
            extras.push_back(RuleContribution{src.rule_id, 1});
          }
        }
        if (clause_of != nullptr) local_of[e] = local;
        return;
      }
    };
    // The probes are cache misses; gather a batch of the shard's
    // emissions and prefetch their slots before merging them in order.
    constexpr size_t kBatch = 16;
    uint32_t batch[kBatch];
    for (size_t r = 0; r < num_ranges; ++r) {
      sh.range_begin[r] = static_cast<uint32_t>(sh.accs.size());
      for (size_t e = range_start[r]; e < range_start[r + 1];) {
        size_t k = 0;
        for (; k < kBatch && e < range_start[r + 1]; ++e) {
          if (dropped[e] || ShardOf(hashes[e], num_shards) != s) continue;
          batch[k++] = static_cast<uint32_t>(e);
          __builtin_prefetch(
              &sh.slots[hashes[e] & (sh.slots.size() - 1)]);
        }
        for (size_t i = 0; i < k; ++i) merge(batch[i]);
      }
    }
    sh.range_begin[num_ranges] = static_cast<uint32_t>(sh.accs.size());
    std::vector<uint64_t>().swap(sh.slots);
  });
  std::vector<uint32_t>().swap(source_of_);

  // Pass 3: a range's first emissions are, per shard, one run of that
  // shard's accumulators; merging the runs by emission index restores
  // emission order, and the runs' sizes place each range in the store.
  std::vector<size_t> out_start(num_ranges + 1, 0);
  for (size_t r = 0; r < num_ranges; ++r) {
    size_t count = 0;
    for (const MergeShard& sh : shards) {
      count += sh.range_begin[r + 1] - sh.range_begin[r];
    }
    out_start[r + 1] = out_start[r] + count;
  }
  GroundClauseStore store;
  store.clauses_.resize(out_start[num_ranges]);
  store.first_contrib_.resize(out_start[num_ranges]);
  std::vector<std::vector<std::pair<size_t, std::vector<RuleContribution>*>>>
      range_extras(num_ranges);
  parallel(num_ranges, [&](size_t r) {
    std::vector<uint32_t> head(num_shards);
    for (size_t s = 0; s < num_shards; ++s) {
      head[s] = shards[s].range_begin[r];
    }
    for (size_t idx = out_start[r]; idx < out_start[r + 1]; ++idx) {
      size_t best = 0;
      uint32_t best_rep = static_cast<uint32_t>(-1);
      for (size_t s = 0; s < num_shards; ++s) {
        if (head[s] == shards[s].range_begin[r + 1]) continue;
        const uint32_t rep = shards[s].accs[head[s]].rep;
        if (rep < best_rep) {
          best = s;
          best_rep = rep;
        }
      }
      MergeAcc& acc = shards[best].accs[head[best]++];
      acc.clause = static_cast<uint32_t>(idx);
      GroundClause& c = store.clauses_[idx];
      c.lits.assign(lits_begin(acc.rep), lits_end(acc.rep));
      c.weight = acc.weight;
      c.hard = acc.hard;
      c.rule_id = acc.first.rule_id;
      store.first_contrib_[idx] = acc.first;
      if (acc.extras != kNoExtras) {
        range_extras[r].emplace_back(idx, &shards[best].extras[acc.extras]);
      }
    }
  });
  for (auto& extras : range_extras) {
    for (auto& [idx, contribs] : extras) {
      store.extra_contribs_.emplace(idx, std::move(*contribs));
    }
  }
  if (clause_of != nullptr) {
    clause_of->assign(n, kTautology);
    for (size_t e = 0; e < n; ++e) {
      if (dropped[e]) continue;
      (*clause_of)[e] =
          shards[ShardOf(hashes[e], num_shards)].accs[local_of[e]].clause;
    }
  }

  *this = GroundClauseBuilder();
  return store;
}

size_t GroundClauseStore::EstimateBytes() const {
  size_t bytes = 0;
  for (const GroundClause& c : clauses_) {
    bytes += sizeof(GroundClause) + c.lits.size() * sizeof(Lit);
  }
  bytes += first_contrib_.size() * sizeof(RuleContribution);
  for (const auto& [idx, extras] : extra_contribs_) {
    bytes += sizeof(extras) + extras.capacity() * sizeof(RuleContribution);
  }
  return bytes;
}

}  // namespace tuffy
