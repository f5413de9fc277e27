#include "exec/tuffy_engine.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "exec/clause_warehouse.h"
#include "ground/bottom_up_grounder.h"
#include "ground/top_down_grounder.h"
#include "infer/component_walksat.h"
#include "infer/disk_walksat.h"
#include "infer/exact/exact_solver.h"
#include "infer/gauss_seidel.h"
#include "infer/mcsat.h"
#include "mrf/bin_packing.h"
#include "mrf/components.h"
#include "mrf/partitioner.h"
#include "util/mem_tracker.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace tuffy {

namespace {
/// Bytes of in-memory search state per size-metric unit (an atom or a
/// literal), derived from the flat CSR layout: a literal costs 4B in the
/// arena's lit_data plus a 16B occurrence entry; an atom costs a truth
/// byte, an 8B cached flip delta, and a 4B occurrence offset; per-clause
/// overhead (arena offset + weight + abs_weight + flags, ClauseState,
/// violated bookkeeping ≈ 39B) is amortized over the clause's literals.
/// The worst case (all unit clauses, where one clause amortizes over a
/// single literal and the size metric charges 2 units) works out to
/// (13 + 20 + 39) / 2 = 36 bytes/unit; 40 leaves headroom so the
/// memory_budget partitioning never under-provisions.
constexpr uint64_t kBytesPerSizeUnit = 40;
}  // namespace

Status ValidateEngineOptions(const EngineOptions& options) {
  if (options.mcsat_samples <= 0) {
    return Status::InvalidArgument(StrFormat(
        "mcsat_samples must be positive, got %d", options.mcsat_samples));
  }
  if (options.mcsat_burn_in < 0) {
    return Status::InvalidArgument(StrFormat(
        "mcsat_burn_in must be non-negative, got %d", options.mcsat_burn_in));
  }
  if (options.p_random < 0.0 || options.p_random > 1.0) {
    return Status::InvalidArgument(
        StrFormat("p_random must be in [0, 1], got %g", options.p_random));
  }
  if (!(options.hard_weight > 0.0)) {
    return Status::InvalidArgument(StrFormat(
        "hard_weight must be positive, got %g", options.hard_weight));
  }
  if (options.rounds <= 0) {
    return Status::InvalidArgument(
        StrFormat("rounds must be positive, got %d", options.rounds));
  }
  if (options.num_threads <= 0) {
    return Status::InvalidArgument(StrFormat(
        "num_threads must be positive, got %d", options.num_threads));
  }
  if (std::isnan(options.timeout_seconds) || options.timeout_seconds < 0.0) {
    return Status::InvalidArgument(StrFormat(
        "timeout_seconds must be non-negative, got %g",
        options.timeout_seconds));
  }
  return Status::OK();
}

Status TuffyEngine::RunSearch(EngineResult* result) {
  const std::vector<GroundClause>& clauses =
      result->grounding.clauses.clauses();
  const size_t num_atoms = result->grounding.atoms.num_atoms();
  Timer timer;

  if (num_atoms == 0) {
    result->truth.clear();
    result->search_cost = 0.0;
    return Status::OK();
  }

  switch (options_.search_mode) {
    case SearchMode::kInMemory: {
      Problem whole = MakeWholeProblem(num_atoms, clauses);
      // The a-priori charge uses the flat-layout constant (arena + state
      // per size unit); peak_search_bytes below reports the measured
      // footprint from the run itself.
      ScopedMemCharge charge(MemCategory::kSearch,
                             whole.SizeMetric() * kBytesPerSizeUnit);
      WalkSatOptions wopts;
      wopts.max_flips = options_.total_flips;
      wopts.p_random = options_.p_random;
      wopts.hard_weight = options_.hard_weight;
      wopts.timeout_seconds = options_.timeout_seconds;
      wopts.init_random = options_.init_random;
      wopts.trace_every_flips =
          std::max<uint64_t>(1, options_.total_flips / 200);
      Rng rng(options_.seed);
      WalkSat search(&whole, wopts, &rng);
      WalkSatResult wr = search.Run();
      result->peak_search_bytes = wr.state_bytes;
      result->truth = std::move(wr.best_truth);
      result->flips = wr.flips;
      result->trace = std::move(wr.trace);
      break;
    }

    case SearchMode::kComponentAware: {
      ComponentSet components = DetectComponents(num_atoms, clauses);
      result->num_components = components.num_components();

      // Batch the components under the memory budget (FFD), or give each
      // component its own batch when batch loading is disabled.
      std::vector<uint64_t> sizes(components.num_components());
      uint64_t total_size = 0;
      for (size_t i = 0; i < components.num_components(); ++i) {
        sizes[i] = ComponentSizeMetric(components, i, clauses);
        total_size += sizes[i];
      }
      uint64_t capacity_units =
          options_.memory_budget_bytes == 0
              ? std::max<uint64_t>(total_size, 1)
              : std::max<uint64_t>(1, options_.memory_budget_bytes /
                                          kBytesPerSizeUnit);
      std::vector<std::vector<size_t>> batches;
      if (options_.batch_loading) {
        BinPacking packing = FirstFitDecreasing(sizes, capacity_units);
        batches.resize(packing.num_bins);
        for (size_t i = 0; i < sizes.size(); ++i) {
          batches[packing.bin_of_item[i]].push_back(i);
        }
      } else {
        batches.resize(components.num_components());
        for (size_t i = 0; i < components.num_components(); ++i) {
          batches[i].push_back(i);
        }
      }

      std::unique_ptr<ClauseWarehouse> warehouse;
      if (options_.simulate_loading_io) {
        TUFFY_ASSIGN_OR_RETURN(
            warehouse,
            ClauseWarehouse::Create(clauses, options_.loading_buffer_frames,
                                    options_.loading_io_latency_us));
      }

      result->truth.assign(num_atoms, 0);
      uint64_t batch_peak = 0;
      int batch_index = 0;
      for (const std::vector<size_t>& batch : batches) {
        if (batch.empty()) continue;
        uint64_t batch_atoms = 0;
        uint64_t batch_size = 0;
        for (size_t comp : batch) {
          batch_atoms += components.atoms[comp].size();
          batch_size += sizes[comp];
        }
        // Through the warehouse (the paper's loading baseline) the batch's
        // clauses are loaded into a copy indexed by batch-local ids;
        // otherwise the search reads the grounding's clauses in place by
        // their original ids. BuildSubProblem picks a component's clauses
        // by id in list order, so both give the same sub-problems. A
        // component lies in one batch only, so its clause list moves.
        ComponentSet batch_components;
        batch_components.atoms.reserve(batch.size());
        batch_components.clauses.reserve(batch.size());
        for (size_t comp : batch) {
          batch_components.atoms.push_back(components.atoms[comp]);
          batch_components.clauses.push_back(
              std::move(components.clauses[comp]));
        }
        std::vector<GroundClause> loaded;
        if (warehouse != nullptr) {
          std::vector<uint32_t> batch_clause_ids;
          uint32_t next_clause = 0;
          for (std::vector<uint32_t>& ids : batch_components.clauses) {
            for (uint32_t& id : ids) {
              batch_clause_ids.push_back(id);
              id = next_clause++;
            }
          }
          Timer load_timer;
          TUFFY_ASSIGN_OR_RETURN(loaded, warehouse->Load(batch_clause_ids));
          result->load_seconds += load_timer.ElapsedSeconds();
        }
        const std::vector<GroundClause>& batch_clauses =
            warehouse != nullptr ? loaded : clauses;

        batch_peak = std::max(batch_peak, batch_size * kBytesPerSizeUnit);
        ScopedMemCharge charge(MemCategory::kSearch,
                               batch_size * kBytesPerSizeUnit);

        ComponentSearchOptions copts;
        copts.total_flips = std::max<uint64_t>(
            1,
            ProportionalBudget(options_.total_flips, batch_atoms, num_atoms));
        copts.rounds = options_.rounds;
        copts.num_threads = options_.num_threads;
        copts.p_random = options_.p_random;
        copts.hard_weight = options_.hard_weight;
        copts.timeout_seconds = options_.timeout_seconds;
        copts.init_random = options_.init_random;
        copts.use_exact = options_.exact_fast_path;
        ComponentSearchResult cr = RunComponentWalkSat(
            num_atoms, batch_clauses, batch_components, copts,
            DeriveSeed(options_.seed,
                       0x6261746368ull + static_cast<uint64_t>(batch_index)));
        batch_peak = std::max<uint64_t>(batch_peak, cr.state_bytes);
        for (size_t comp : batch) {
          for (AtomId a : components.atoms[comp]) {
            result->truth[a] = cr.truth[a];
          }
        }
        result->flips += cr.flips;
        result->exact_components += cr.exact_components;
        double offset = timer.ElapsedSeconds() - cr.seconds;
        for (const TracePoint& tp : cr.trace) {
          result->trace.push_back(
              TracePoint{tp.seconds + offset, tp.flips, tp.cost});
        }
        ++batch_index;
      }
      result->peak_search_bytes = batch_peak;
      break;
    }

    case SearchMode::kPartitionAware: {
      uint64_t beta = options_.memory_budget_bytes == 0
                          ? UINT64_MAX
                          : std::max<uint64_t>(
                                1, options_.memory_budget_bytes /
                                       kBytesPerSizeUnit);
      PartitionResult partitions = PartitionMrf(num_atoms, clauses, beta);
      result->num_partitions = partitions.num_partitions();
      result->num_components =
          DetectComponents(num_atoms, clauses).num_components();
      uint64_t max_part = 0;
      for (uint64_t s : partitions.sizes) max_part = std::max(max_part, s);
      result->peak_search_bytes = max_part * kBytesPerSizeUnit;
      ScopedMemCharge charge(MemCategory::kSearch, result->peak_search_bytes);

      GaussSeidelOptions gopts;
      gopts.sweeps = options_.rounds;
      gopts.flips_per_partition = std::max<uint64_t>(
          1, options_.total_flips /
                 std::max<uint64_t>(
                     1, static_cast<uint64_t>(options_.rounds) *
                            partitions.num_partitions()));
      gopts.p_random = options_.p_random;
      gopts.hard_weight = options_.hard_weight;
      gopts.timeout_seconds = options_.timeout_seconds;
      gopts.init_random = options_.init_random;
      GaussSeidelResult gr = RunGaussSeidel(num_atoms, clauses, partitions,
                                            gopts, options_.seed);
      result->truth = std::move(gr.truth);
      result->flips = gr.flips;
      result->trace = std::move(gr.trace);
      break;
    }

    case SearchMode::kDisk: {
      Problem whole = MakeWholeProblem(num_atoms, clauses);
      DiskWalkSatOptions dopts;
      dopts.max_flips = options_.total_flips;
      dopts.p_random = options_.p_random;
      dopts.hard_weight = options_.hard_weight;
      dopts.timeout_seconds = options_.timeout_seconds;
      dopts.buffer_frames = options_.disk_buffer_frames;
      dopts.io_latency_us = options_.disk_io_latency_us;
      dopts.trace_every_flips = 1;
      dopts.init_random = options_.init_random;
      TUFFY_ASSIGN_OR_RETURN(std::unique_ptr<DiskWalkSat> ws,
                             DiskWalkSat::Create(whole, dopts));
      // Only the atom array lives in RAM for Tuffy-mm.
      result->peak_search_bytes = num_atoms;
      Rng rng(options_.seed);
      WalkSatResult wr = ws->Run(&rng);
      result->truth = std::move(wr.best_truth);
      result->flips = wr.flips;
      result->trace = std::move(wr.trace);
      break;
    }
  }

  // Loading (charged to load_seconds above) happened inside this span;
  // report pure search time.
  result->search_seconds = timer.ElapsedSeconds() - result->load_seconds;
  return Status::OK();
}

Result<EngineResult> TuffyEngine::Run() {
  TUFFY_RETURN_IF_ERROR(ValidateEngineOptions(options_));
  EngineResult result;

  Timer ground_timer;
  if (options_.grounding_mode == GroundingMode::kBottomUp) {
    // The engine's worker-thread knob also parallelizes per-rule
    // grounding (results are thread-count invariant; determinism_test).
    GroundingOptions gopts = options_.grounding;
    gopts.num_threads = options_.num_threads;
    BottomUpGrounder grounder(program_, evidence_, gopts,
                              options_.optimizer);
    TUFFY_ASSIGN_OR_RETURN(result.grounding, grounder.Ground());
    result.explain = grounder.explain();
  } else {
    TopDownGrounder grounder(program_, evidence_, options_.grounding);
    TUFFY_ASSIGN_OR_RETURN(result.grounding, grounder.Ground());
  }
  result.grounding_seconds = ground_timer.ElapsedSeconds();
  result.clause_table_bytes = result.grounding.clauses.EstimateBytes();
  MemTracker::Global().Allocate(MemCategory::kClauseTable,
                                result.clause_table_bytes);

  Status st;
  if (options_.task == InferenceTask::kMarginal) {
    // Marginal inference (Appendix A.5): MC-SAT over the ground MRF.
    Timer search_timer;
    const size_t n = result.grounding.atoms.num_atoms();
    if (n > 0) {
      const std::vector<GroundClause>& gclauses =
          result.grounding.clauses.clauses();
      McSatOptions mopts;
      mopts.num_samples = options_.mcsat_samples;
      mopts.burn_in = options_.mcsat_burn_in;
      mopts.hard_weight = options_.hard_weight;
      // Tractable components get exact marginals; the rest go to MC-SAT.
      // When nothing is tractable (or the fast path is off) this is the
      // historical whole-problem MC-SAT, bit for bit.
      std::vector<uint32_t> rest_clauses;
      std::vector<AtomId> rest_atoms;
      auto local_of_atom = std::make_unique_for_overwrite<AtomId[]>(n);
      bool any_exact = false;
      if (options_.exact_fast_path) {
        result.marginals.assign(n, 0.0);
        ComponentSet comps = DetectComponents(n, gclauses);
        for (size_t i = 0; i < comps.num_components(); ++i) {
          SubProblem sub = BuildSubProblem(gclauses, comps.clauses[i],
                                           comps.atoms[i], local_of_atom.get());
          ExactSolveResult ex = TrySolveExact(sub.problem,
                                              options_.hard_weight,
                                              /*want_marginals=*/true);
          if (ex.solved) {
            any_exact = true;
            ++result.exact_components;
            for (size_t j = 0; j < sub.global_atom.size(); ++j) {
              result.marginals[sub.global_atom[j]] = ex.marginals[j];
            }
          } else {
            rest_clauses.insert(rest_clauses.end(), comps.clauses[i].begin(),
                                comps.clauses[i].end());
            rest_atoms.insert(rest_atoms.end(), comps.atoms[i].begin(),
                              comps.atoms[i].end());
          }
        }
      }
      if (!any_exact) {
        Problem whole = MakeWholeProblem(n, gclauses);
        McSatResult mr = RunMcSat(whole, mopts, options_.seed);
        result.marginals = std::move(mr.marginals);
      } else if (!rest_atoms.empty()) {
        SubProblem rest = BuildSubProblem(gclauses, rest_clauses, rest_atoms,
                                          local_of_atom.get());
        McSatResult mr = RunMcSat(rest.problem, mopts, options_.seed);
        for (size_t j = 0; j < rest.global_atom.size(); ++j) {
          result.marginals[rest.global_atom[j]] = mr.marginals[j];
        }
      }
      // The MAP-style fields still get a best-effort thresholded state.
      result.truth.assign(n, 0);
      for (size_t a = 0; a < n; ++a) {
        result.truth[a] = result.marginals[a] >= 0.5 ? 1 : 0;
      }
    }
    result.search_seconds = search_timer.ElapsedSeconds();
    st = Status::OK();
  } else {
    st = RunSearch(&result);
  }
  MemTracker::Global().Release(MemCategory::kClauseTable,
                               result.clause_table_bytes);
  TUFFY_RETURN_IF_ERROR(st);

  // Uniform cost accounting across all modes.
  const size_t num_atoms = result.grounding.atoms.num_atoms();
  if (num_atoms > 0) {
    if (result.truth.size() != num_atoms) result.truth.assign(num_atoms, 0);
    result.search_cost = EvalStoreCost(result.grounding.clauses.clauses(),
                                       result.truth, options_.hard_weight);
  }
  result.total_cost = result.search_cost + result.grounding.fixed_cost;
  return result;
}

Result<LearnResult> TuffyEngine::Learn(const LearnOptions& learn_options) {
  TUFFY_RETURN_IF_ERROR(ValidateEngineOptions(options_));
  TUFFY_RETURN_IF_ERROR(ValidateLearnOptions(learn_options));
  TUFFY_ASSIGN_OR_RETURN(
      TrainingSplit split,
      SplitEvidenceForLearning(program_, evidence_,
                               learn_options.query_predicates));

  // Exhaustive grounding: the lazy closure keeps only clauses violable
  // near the evidence-default world, which is sound for MAP search but
  // biases the satisfied-grounding counts the gradient is built from.
  GroundingOptions gopts = options_.grounding;
  gopts.lazy_closure = false;
  gopts.keep_zero_weight_clauses = true;
  GroundingResult grounding;
  if (options_.grounding_mode == GroundingMode::kBottomUp) {
    gopts.num_threads = options_.num_threads;
    BottomUpGrounder grounder(program_, split.evidence, gopts,
                              options_.optimizer);
    TUFFY_ASSIGN_OR_RETURN(grounding, grounder.Ground());
  } else {
    TopDownGrounder grounder(program_, split.evidence, gopts);
    TUFFY_ASSIGN_OR_RETURN(grounding, grounder.Ground());
  }

  const size_t table_bytes = grounding.clauses.EstimateBytes();
  ScopedMemCharge charge(MemCategory::kClauseTable, table_bytes);
  return LearnWeights(program_, grounding, split.labels, learn_options);
}

namespace {

SessionOptions TranslateSessionOptions(const EngineOptions& options) {
  SessionOptions sopts;
  sopts.total_flips = options.total_flips;
  sopts.p_random = options.p_random;
  sopts.hard_weight = options.hard_weight;
  sopts.num_threads = options.num_threads;
  sopts.init_random = options.init_random;
  sopts.seed = options.seed;
  sopts.exact_fast_path = options.exact_fast_path;
  sopts.track_marginals = options.task == InferenceTask::kMarginal;
  sopts.mcsat_samples = options.mcsat_samples;
  sopts.mcsat_burn_in = options.mcsat_burn_in;
  sopts.grounding = options.grounding;
  sopts.optimizer = options.optimizer;
  sopts.wal_dir = options.wal_dir;
  sopts.snapshot_every = options.snapshot_every;
  sopts.wal_fsync = options.wal_fsync;
  return sopts;
}

}  // namespace

Result<std::unique_ptr<InferenceSession>> TuffyEngine::OpenSession() const {
  TUFFY_RETURN_IF_ERROR(ValidateEngineOptions(options_));
  auto session = std::make_unique<InferenceSession>(
      program_, TranslateSessionOptions(options_));
  TUFFY_RETURN_IF_ERROR(session->Open(evidence_));
  return session;
}

Result<std::unique_ptr<InferenceSession>> TuffyEngine::RecoverSession(
    RecoveryStats* stats) const {
  TUFFY_RETURN_IF_ERROR(ValidateEngineOptions(options_));
  return InferenceSession::Recover(program_, TranslateSessionOptions(options_),
                                   nullptr, stats);
}

Result<std::vector<GroundAtom>> ExtractTrueAtoms(
    const MlnProgram& program, const AtomStore& atoms,
    const std::vector<uint8_t>& truth, const std::string& predicate_name) {
  TUFFY_ASSIGN_OR_RETURN(PredicateId pid,
                         program.FindPredicate(predicate_name));
  std::vector<GroundAtom> out;
  for (AtomId a = 0; a < atoms.num_atoms(); ++a) {
    if (atoms.atom(a).pred == pid && a < truth.size() && truth[a] != 0) {
      out.push_back(atoms.atom(a));
    }
  }
  return out;
}

}  // namespace tuffy
