// batch_lp and batch_ie: TuffyEngine::Run over a generated dataset that
// is loaded the way a user loads one, by parsing MLN text.
//
// Untraced: set-up is ParseProgram + ParseEvidence of the rendered text
// (repeated; every repetition is a sample). The measured loop then runs
// TuffyEngine::Run over the parsed dataset until the time budget is
// spent, and part 0 makes its second Run over the in-memory reference
// (mln_text.h); every Run is one latency sample, and every Run must land
// on the same MAP cost bit for bit.
//
// Traced: one untraced Run (the reference cost and the registry counts),
// then a breakdown of grounding: LoadMlnTables and, per rule,
// BuildRuleBindingQuery + CollectBindings on the loaded catalog
// (rule_queries.h). Then kTracedRounds rounds, each of which runs the
// layer functions Run calls, in Run's order, once without spans and once
// with a span around each (BottomUpGrounder::Ground, DetectComponents,
// the batch clause copy, RunComponentWalkSat with one batch and Run's
// DeriveSeed stream, MakeWholeProblem + EvalCost), and then an untraced
// Run. exec.other_s is that Run's wall time minus the round's layer
// spans: the time Run spends outside the layers timed here. Every
// pipeline and Run must end on the reference MAP cost bit for bit.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>

#include "common.h"
#include "datagen/datasets.h"
#include "exec/tuffy_engine.h"
#include "ground/bottom_up_grounder.h"
#include "infer/component_walksat.h"
#include "infer/problem.h"
#include "mln/parser.h"
#include "mln_text.h"
#include "mrf/components.h"
#include "rule_queries.h"
#include "spans.h"
#include "util/rng.h"

namespace perfbench {

using namespace tuffy;

namespace {

/// Parse repetitions for set-up: at least kMinSetupReps, then more until
/// kSetupSeconds have been spent (each repetition is a sample).
constexpr int kMinSetupReps = 10;
constexpr int kMaxSetupReps = 200;
constexpr double kSetupSeconds = 0.5;
/// Rounds of the traced run; run.py reports each layer's median.
constexpr int kTracedRounds = 3;
/// The layer spans of one traced pipeline and the metric each feeds;
/// exec.other_s is an untraced Run minus their sum.
struct LayerSpan {
  const char* span;
  const char* metric;
};
constexpr LayerSpan kLayerSpans[] = {
    {"ground", "ground.s"},
    {"mrf.components", "mrf.components_s"},
    {"exec.load", "exec.load_s"},
    {"infer.search", "infer.search_s"},
    {"exec.cost_eval", "exec.cost_eval_s"},
};

struct BatchConfig {
  Dataset source;
  EngineOptions options;
};

// The datasets are the harness's, at their generators' default seeds, for
// every run: across generator seeds the MAP cost of these sizes varies by
// 6-8% and LP's run time by over 10%, which would drown the bounds. The
// seed drives the search and the order of the rendered evidence lines,
// which relabels every constant the parser interns.

Result<BatchConfig> MakeConfig(const Args& args) {
  BatchConfig cfg;
  cfg.options.search_mode = SearchMode::kComponentAware;
  cfg.options.num_threads = BenchThreads();
  cfg.options.seed = args.seed;
  if (args.workload == "batch_lp") {
    // The harness's BenchLp scale: grounding-bound, one big component.
    LpParams p;
    p.num_professors = 25;
    p.num_students = 150;
    p.num_courses = 60;
    p.num_publications = 700;
    TUFFY_ASSIGN_OR_RETURN(cfg.source, MakeLpDataset(p));
    cfg.options.total_flips = 1000000;
  } else {
    // The harness's BenchIe scale: search-bound over ~900 components.
    IeParams p;
    p.num_citations = 900;
    p.positions_per_citation = 5;
    p.num_fields = 4;
    p.vocabulary = 120;
    p.num_token_rules = 250;
    TUFFY_ASSIGN_OR_RETURN(cfg.source, MakeIeDataset(p));
    cfg.options.total_flips = 80000000;
  }
  return cfg;
}

Result<std::unique_ptr<Dataset>> ParseText(const std::string& name,
                                            const std::string& program_text,
                                            const std::string& evidence_text) {
  auto ds = std::make_unique<Dataset>();
  ds->name = name;
  TUFFY_ASSIGN_OR_RETURN(ds->program, ParseProgram(program_text));
  TUFFY_RETURN_IF_ERROR(
      ParseEvidence(evidence_text, &ds->program, &ds->evidence));
  return ds;
}

/// What one pass of Run's pipeline (RunPipeline) found.
struct PipelineResult {
  double total_cost = 0.0;
  size_t clauses = 0;
  uint64_t candidates = 0;
  double pruned_antijoin = 0.0;
  size_t components = 0;
  double largest_frac = 0.0;
  uint64_t flips = 0;
  size_t exact_components = 0;
};

/// Run's component-aware search path, one call per layer, each inside a
/// span when `rec` is not null. The total cost is computed exactly as
/// Run computes it.
Result<PipelineResult> RunPipeline(const Dataset& ds,
                                   const EngineOptions& options,
                                   SpanRecorder* rec) {
  PipelineResult out;
  ScopedSpan root(rec, "run");

  GroundingResult grounding;
  {
    GroundingOptions gopts = options.grounding;
    gopts.num_threads = options.num_threads;
    const auto before = CountSnapshot();
    ScopedSpan span(rec, "ground");
    BottomUpGrounder grounder(ds.program, ds.evidence, gopts,
                              options.optimizer);
    TUFFY_ASSIGN_OR_RETURN(grounding, grounder.Ground());
    const auto after = CountSnapshot();
    out.pruned_antijoin = after.at("ground.pruned.antijoin") -
                          before.at("ground.pruned.antijoin");
  }
  const std::vector<GroundClause>& clauses = grounding.clauses.clauses();
  const size_t num_atoms = grounding.atoms.num_atoms();
  out.clauses = clauses.size();
  out.candidates = grounding.stats.candidates;
  if (num_atoms == 0) return out;

  ComponentSet components;
  {
    ScopedSpan span(rec, "mrf.components");
    components = DetectComponents(num_atoms, clauses);
  }
  out.components = components.num_components();
  size_t largest = 0;
  for (const auto& atoms : components.atoms) {
    largest = std::max(largest, atoms.size());
  }
  out.largest_frac = static_cast<double>(largest) / num_atoms;

  // With no memory budget every component packs into one FFD batch, in
  // component order; Run then copies that batch's clauses out.
  std::vector<GroundClause> batch_clauses;
  ComponentSet batch;
  {
    ScopedSpan span(rec, "exec.load");
    size_t total = 0;
    for (const auto& ids : components.clauses) total += ids.size();
    batch_clauses.reserve(total);
    batch.atoms = components.atoms;
    batch.clauses.resize(components.num_components());
    uint32_t next = 0;
    for (size_t k = 0; k < components.num_components(); ++k) {
      for (uint32_t ci : components.clauses[k]) {
        batch_clauses.push_back(clauses[ci]);
        batch.clauses[k].push_back(next++);
      }
    }
  }

  ComponentSearchOptions copts;
  copts.total_flips = std::max<uint64_t>(1, options.total_flips);
  copts.rounds = options.rounds;
  copts.num_threads = options.num_threads;
  copts.p_random = options.p_random;
  copts.hard_weight = options.hard_weight;
  copts.timeout_seconds = options.timeout_seconds;
  copts.init_random = options.init_random;
  copts.use_exact = options.exact_fast_path;
  ComponentSearchResult cr;
  {
    ScopedSpan span(rec, "infer.search");
    cr = RunComponentWalkSat(num_atoms, batch_clauses, batch, copts,
                             DeriveSeed(options.seed, 0x6261746368ull));
  }
  out.flips = cr.flips;
  out.exact_components = cr.exact_components;
  std::vector<uint8_t> truth(num_atoms, 0);
  for (const auto& atoms : components.atoms) {
    for (AtomId a : atoms) truth[a] = cr.truth[a];
  }

  {
    ScopedSpan span(rec, "exec.cost_eval");
    Problem whole = MakeWholeProblem(num_atoms, clauses);
    out.total_cost = whole.EvalCost(truth, options.hard_weight) +
                     grounding.fixed_cost;
  }
  return out;
}

}  // namespace

bool RunBatchWorkload(const Args& args, Report* report) {
  auto cfg_or = MakeConfig(args);
  if (!cfg_or.ok()) {
    std::fprintf(stderr, "datagen failed: %s\n",
                 cfg_or.status().ToString().c_str());
    return false;
  }
  BatchConfig cfg = cfg_or.TakeValue();
  const std::vector<EvidenceLine> lines =
      OrderedEvidence(cfg.source, DeriveSeed(args.seed, 0x6f72646572ull));
  const std::string program_text = RenderProgram(cfg.source.program);
  const std::string evidence_text =
      RenderEvidence(cfg.source.program, lines);

  // ---- set-up: parse the rendered text.
  std::unique_ptr<Dataset> parsed;
  std::vector<double> setup;
  const uint64_t setup_start = NowNs();
  for (int rep = 0; rep < kMaxSetupReps; ++rep) {
    if (rep >= kMinSetupReps &&
        Seconds(NowNs() - setup_start) >= kSetupSeconds) {
      break;
    }
    const uint64_t t0 = NowNs();
    auto ds = ParseText(cfg.source.name, program_text, evidence_text);
    setup.push_back(Seconds(NowNs() - t0));
    if (!ds.ok()) {
      std::fprintf(stderr, "parse: %s\n", ds.status().ToString().c_str());
      return false;
    }
    parsed = ds.TakeValue();
  }
  report->samples["setup_s"] = setup;
  const std::string mismatch =
      CompareToSource(cfg.source, parsed->program, parsed->evidence);
  report->AddCheck("text_round_trip_model", mismatch.empty(),
                   mismatch.empty() ? "parsed model matches the generated one"
                                    : mismatch);
  // Peak memory is the first Run's (the kernel's mark is reset before
  // it): the process-wide peak would depend on how many Runs fit in the
  // budget, and later Runs start on memory the allocator kept.
  std::vector<double> run_peaks;
  auto run_once = [&](const Dataset& ds, double* ms) -> Result<EngineResult> {
    const bool reset = ResetPeakRss();
    TuffyEngine engine(ds.program, ds.evidence, cfg.options);
    const uint64_t t0 = NowNs();
    auto r = engine.Run();
    *ms = Millis(NowNs() - t0);
    run_peaks.push_back(reset ? PeakRssSinceResetMb() : PeakRssMb());
    ++report->attempted;
    if (!r.ok()) {
      ++report->failed;
      std::fprintf(stderr, "Run failed: %s\n", r.status().ToString().c_str());
    }
    return r;
  };

  if (!args.trace) {
    // Part 0 makes the second Run over the in-memory reference. After
    // that, a Run starts only if it is expected to end within the budget.
    std::optional<Dataset> reference;
    if (args.part == 0) {
      auto reference_or = BuildReference(cfg.source, lines);
      if (!reference_or.ok()) {
        std::fprintf(stderr, "reference: %s\n",
                     reference_or.status().ToString().c_str());
        return false;
      }
      reference = reference_or.TakeValue();
    }
    const int min_runs = reference ? 2 : 1;
    const auto before = CountSnapshot();
    std::vector<double> run_ms;
    std::vector<double> costs_parsed;
    double cost_reference = 0.0;
    EngineResult first;
    const uint64_t start = NowNs();
    for (int i = 0;; ++i) {
      if (i >= min_runs &&
          Seconds(NowNs() - start) + run_ms.back() / 1e3 > args.seconds) {
        break;
      }
      const bool on_reference = reference && i == 1;
      double ms = 0.0;
      auto r = run_once(on_reference ? *reference : *parsed, &ms);
      if (!r.ok()) return false;
      run_ms.push_back(ms);
      if (on_reference) {
        cost_reference = r.value().total_cost;
      } else {
        costs_parsed.push_back(r.value().total_cost);
      }
      if (i == 0) first = r.TakeValue();
    }
    const auto after = CountSnapshot();
    StoreCountDiff(before, after, static_cast<double>(run_ms.size()), report);
    report->samples["op_ms"] = run_ms;
    const double cost = costs_parsed.front();
    bool deterministic = true;
    for (double c : costs_parsed) deterministic &= c == cost;
    report->AddCheck("run_deterministic", deterministic,
                     "every Run over the parsed text lands on " +
                         CostText(cost));
    if (reference) {
      report->AddCheck("text_round_trip_cost", cost_reference == cost,
                       "parsed " + CostText(cost) + " vs in-memory " +
                           CostText(cost_reference));
    }
    report->values["map_cost"] = cost;
    report->values["atoms"] =
        static_cast<double>(first.grounding.atoms.num_atoms());
    report->values["clauses"] =
        static_cast<double>(first.grounding.clauses.num_clauses());
    report->values["components"] = static_cast<double>(first.num_components);
    report->values["peak_rss_mb"] = run_peaks.front();
    return true;
  }

  // ---- traced run.
  const auto before = CountSnapshot();
  double first_ms = 0.0;
  auto untraced = run_once(*parsed, &first_ms);
  if (!untraced.ok()) return false;
  StoreCountDiff(before, CountSnapshot(), 1.0, report);
  const double untraced_cost = untraced.value().total_cost;

  SpanRecorder rec;
  Status st = MeasureRuleQueries(parsed->program, parsed->evidence,
                                 cfg.options.optimizer, &rec, report);
  if (!st.ok()) {
    std::fprintf(stderr, "grounding breakdown: %s\n", st.ToString().c_str());
    return false;
  }
  PipelineResult t;
  bool same_cost = true;
  auto& samples = report->samples;
  for (int round = 0; round < kTracedRounds; ++round) {
    // Alternate which pipeline goes first, so neither always runs on
    // memory the other left behind.
    for (int k = 0; k < 2; ++k) {
      const bool with_spans = (k + round) % 2 == 1;
      const uint64_t t0 = NowNs();
      auto r = RunPipeline(*parsed, cfg.options, with_spans ? &rec : nullptr);
      const double ms = Millis(NowNs() - t0);
      ++report->attempted;
      if (!r.ok()) {
        ++report->failed;
        std::fprintf(stderr, "pipeline: %s\n", r.status().ToString().c_str());
        return false;
      }
      same_cost &= r.value().total_cost == untraced_cost;
      samples[with_spans ? "obs.traced_ms" : "obs.untraced_ms"].push_back(ms);
      if (with_spans) t = r.TakeValue();
    }
    double run_ms = 0.0;
    auto r = run_once(*parsed, &run_ms);
    if (!r.ok()) return false;
    same_cost &= r.value().total_cost == untraced_cost;
    // This round's span of each layer is the last one recorded.
    double layers_s = 0.0;
    for (const LayerSpan& layer : kLayerSpans) {
      const std::vector<double> ms = rec.DurationsMs(layer.span);
      const double s = ms.empty() ? 0.0 : ms.back() / 1e3;
      samples[layer.metric].push_back(s);
      layers_s += s;
    }
    samples["exec.other_s"].push_back(run_ms / 1e3 - layers_s);
    samples["infer.flips_per_s"].push_back(
        samples["infer.search_s"].back() > 0
            ? t.flips / samples["infer.search_s"].back()
            : 0.0);
  }
  report->AddCheck("traced_cost_matches", same_cost,
                   "every pipeline and Run vs untraced " +
                       CostText(untraced_cost));

  auto& v = report->values;
  v["ground.clauses"] = static_cast<double>(t.clauses);
  v["ground.keep_frac"] =
      t.candidates > 0 ? static_cast<double>(t.clauses) / t.candidates : 0.0;
  v["ground.pruned_antijoin"] = t.pruned_antijoin;
  v["mrf.components"] = static_cast<double>(t.components);
  v["mrf.largest_frac"] = t.largest_frac;
  v["infer.flips"] = static_cast<double>(t.flips);
  v["infer.exact_components"] = static_cast<double>(t.exact_components);
  v["map_cost"] = untraced_cost;

  const std::string trace_path =
      args.work_dir + "/trace-" + args.workload + ".json";
  if (rec.WriteChromeTrace(trace_path)) {
    std::fprintf(stderr, "trace written to %s\n", trace_path.c_str());
  }
  return true;
}

}  // namespace perfbench
