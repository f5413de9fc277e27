// serve_rc: one durable InferenceSession (WAL fsync on, a snapshot every
// 50 deltas) over relational classification, fed a closed-loop stream of
// evidence deltas by a single caller.
//
// Set-up is InferenceSession::Open (ground + cold search): one open per
// runner process (run.py pools the processes' samples), two in the
// traced run. The opened session serves the stream.
// Most deltas relabel a paper (retract + assert `cat`); a minority add or
// remove a `refers` edge between two papers of one cluster. Edges never
// cross clusters: a cross-cluster edge merges components and the stream
// would drift towards one giant component. Every change is undone later
// in the stream, so the final MAP cost does not depend on the seed.
//
// Output checks: every delta succeeds. In part 0 (Args::part) the final
// session cost also equals a fresh TuffyEngine::Run over the accumulated
// evidence with lazy_closure = false, and InferenceSession::Recover from
// the WAL is bit-identical (truth and cost) to the live session.
//
// Traced: the stream runs on two identically opened sessions, delta by
// delta in turn, one with spans and the session's own TraceBuilder and
// one without, which must end bit-identical. Twins measure the layers:
// a DeltaGrounder fed the same stream (delta grounding), a WalWriter
// appending and syncing records of the session's mean record size
// (durability), DetectComponents over the final clause set, and the
// per-rule binding queries over the initial evidence.

#include <algorithm>
#include <cstdio>
#include <deque>
#include <memory>
#include <set>
#include <string>

#include "common.h"
#include "datagen/datasets.h"
#include "durability/wal.h"
#include "exec/tuffy_engine.h"
#include "mrf/components.h"
#include "obs/trace.h"
#include "rule_queries.h"
#include "serve/delta_grounder.h"
#include "serve/inference_session.h"
#include "spans.h"
#include "util/rng.h"

namespace perfbench {

using namespace tuffy;

namespace {

constexpr int kClusters = 60;
constexpr int kPapersPerCluster = 10;
constexpr uint64_t kColdFlips = 8000000;
constexpr uint32_t kSnapshotEvery = 50;
/// Stream length per second of --seconds, sized so that the stream fills
/// most of the budget at ~21 ms a delta. The count must not depend on
/// timing: the final cost is checked, so the stream is a function of the
/// seed and the budget only.
constexpr double kDeltasPerSecond = 42.0;
/// Share of deltas that edit a `refers` edge instead of relabeling. An
/// assumption, not measured traffic (perfbench/README.md, "Assumed
/// traffic mix").
constexpr double kRefersShare = 0.2;

/// bench_serving's dataset. It is the same for every seed (the seed
/// drives the delta stream and the search): the set-up time and MAP cost
/// of a generated graph vary by several percent from seed to seed.
Result<Dataset> MakeRc() {
  RcParams p;
  p.num_clusters = kClusters;
  p.papers_per_cluster = kPapersPerCluster;
  p.num_categories = 6;
  p.labeled_fraction = 0.5;
  return MakeRcDataset(p);
}

SessionOptions MakeSessionOptions(uint64_t seed, const std::string& dir) {
  SessionOptions opts;
  opts.total_flips = kColdFlips;
  opts.seed = seed;
  opts.wal_dir = dir;
  opts.wal_fsync = true;
  opts.snapshot_every = kSnapshotEvery;
  return opts;
}

/// Generates the delta stream. Every change is undone later in the
/// stream (after a random number of other deltas), so the stream ends on
/// the initial evidence and the final MAP cost is the same for every
/// seed; an atom with a pending undo is not changed again meanwhile.
class DeltaStream {
 public:
  DeltaStream(const Dataset& ds, uint64_t seed)
      : rng_(DeriveSeed(seed, 0x73747265616dull)) {
    cat_ = ds.program.FindPredicate("cat").value();
    refers_ = ds.program.FindPredicate("refers").value();
    const PredicateId paper = ds.program.FindPredicate("paper").value();
    categories_ = ds.program.symbols().Domain("category");
    clusters_.resize(kClusters);
    for (const auto& [atom, truth] : ds.evidence.entries()) {
      if (!truth) continue;
      if (atom.pred == paper) {
        // Generated paper names are P<n>, clustered in blocks of
        // kPapersPerCluster.
        const std::string& name =
            ds.program.symbols().SymbolName(atom.args[0]);
        const int n = std::stoi(name.substr(1));
        clusters_[n / kPapersPerCluster].push_back(atom.args[0]);
      }
      if (atom.pred == cat_) labels_.push_back(atom);
      if (atom.pred == refers_) edges_.insert({atom.args[0], atom.args[1]});
    }
    // Hash-map order must not leak into the stream; sort.
    for (auto& papers : clusters_) std::sort(papers.begin(), papers.end());
    std::sort(labels_.begin(), labels_.end(),
              [](const GroundAtom& a, const GroundAtom& b) {
                return a.args < b.args;
              });
  }

  /// `n` (even) deltas; the last undo closes the stream.
  std::vector<EvidenceDelta> Generate(int n) {
    std::vector<EvidenceDelta> out;
    for (int i = 0; i < n; ++i) {
      const size_t remaining = static_cast<size_t>(n - i);
      if (!pending_.empty() && (pending_.size() + 2 > remaining ||
                                rng_.NextDouble() < 0.5)) {
        out.push_back(std::move(pending_.front().undo));
        locked_.erase(pending_.front().lock);
        pending_.pop_front();
      } else {
        out.push_back(NewChange());
      }
    }
    return out;
  }

 private:
  using Edge = std::pair<ConstantId, ConstantId>;
  struct Pending {
    EvidenceDelta undo;
    Edge lock;  // (paper, -1) for a relabel, the edge for a refers edit
  };

  GroundAtom Refers(const Edge& e) const {
    GroundAtom atom;
    atom.pred = refers_;
    atom.args = {e.first, e.second};
    return atom;
  }

  EvidenceDelta NewChange() {
    EvidenceDelta change, undo;
    Edge lock;
    const double pick = rng_.NextDouble();
    while (true) {
      if (pick < kRefersShare) {
        // A citation between two papers of one cluster: removed when it
        // exists, added when it does not.
        const auto& papers = clusters_[rng_.Uniform(clusters_.size())];
        const size_t from = rng_.Uniform(papers.size());
        const size_t to =
            (from + 1 + rng_.Uniform(papers.size() - 1)) % papers.size();
        lock = {papers[from], papers[to]};
        if (locked_.count(lock) != 0) continue;
        const GroundAtom edge = Refers(lock);
        if (edges_.count(lock) != 0) {
          change.Retract(edge);
          undo.Assert(edge, true);
        } else {
          change.Assert(edge, true);
          undo.Retract(edge);
        }
      } else {
        // Relabel a labeled paper with another category.
        const GroundAtom& label = labels_[rng_.Uniform(labels_.size())];
        lock = {label.args[0], -1};
        if (locked_.count(lock) != 0) continue;
        GroundAtom relabeled = label;
        do {
          relabeled.args[1] = categories_[rng_.Uniform(categories_.size())];
        } while (relabeled.args[1] == label.args[1]);
        change.Retract(label);
        change.Assert(relabeled, true);
        undo.Retract(relabeled);
        undo.Assert(label, true);
      }
      break;
    }
    locked_.insert(lock);
    pending_.push_back({std::move(undo), lock});
    return change;
  }

  Rng rng_;
  PredicateId cat_ = 0;
  PredicateId refers_ = 0;
  std::vector<ConstantId> categories_;
  std::vector<std::vector<ConstantId>> clusters_;
  std::vector<GroundAtom> labels_;
  std::set<Edge> edges_;
  std::set<Edge> locked_;
  std::deque<Pending> pending_;
};

}  // namespace

bool RunServeWorkload(const Args& args, Report* report) {
  auto ds_or = MakeRc();
  if (!ds_or.ok()) {
    std::fprintf(stderr, "datagen failed: %s\n",
                 ds_or.status().ToString().c_str());
    return false;
  }
  const Dataset ds = ds_or.TakeValue();
  const std::string root = args.work_dir + "/serve";
  RemoveTree(root);

  // ---- set-up: open the session (two twins in the traced run). Every
  // open is a set-up sample; the time an open takes goes to the stream.
  const int opens = args.trace ? 2 : 1;
  std::vector<std::unique_ptr<InferenceSession>> sessions;
  std::vector<SessionOptions> session_opts;
  std::vector<double> setup;
  for (int i = 0; i < opens; ++i) {
    SessionOptions sopts =
        MakeSessionOptions(args.seed, root + "/open-" + std::to_string(i));
    auto session = std::make_unique<InferenceSession>(ds.program, sopts);
    const uint64_t t0 = NowNs();
    Status st = session->Open(ds.evidence);
    setup.push_back(Seconds(NowNs() - t0));
    ++report->attempted;
    if (!st.ok()) {
      ++report->failed;
      std::fprintf(stderr, "Open: %s\n", st.ToString().c_str());
      return false;
    }
    sessions.push_back(std::move(session));
    session_opts.push_back(sopts);
  }
  report->samples["setup_s"] = setup;
  InferenceSession& live = *sessions.back();
  const SessionOptions& live_opts = session_opts.back();

  // ---- the delta stream.
  // The traced run applies every delta twice (untraced and traced twin),
  // so its stream is half as long.
  const double stream_seconds = args.trace ? args.seconds / 2 : args.seconds;
  const int num_deltas =
      2 * std::max(10, static_cast<int>(stream_seconds * kDeltasPerSecond / 2));
  const std::vector<EvidenceDelta> deltas =
      DeltaStream(ds, args.seed).Generate(num_deltas);
  // The evidence the stream leads to, for the fresh-run check.
  EvidenceDb accumulated = ds.evidence;
  for (const EvidenceDelta& delta : deltas) {
    for (const GroundAtom& atom : delta.retractions) accumulated.Remove(atom);
    for (const auto& [atom, truth] : delta.assertions) {
      accumulated.Add(atom, truth);
    }
  }

  SpanRecorder rec;
  std::vector<double> op_ms, traced_ms, research_ms, flips, dirty_frac;
  // Registry counts of the untraced session's deltas alone (the traced
  // twin runs the same stream in between).
  std::map<std::string, double> count_before, count_after;
  for (const std::string& name : CountedMetrics()) count_before[name] = 0.0;
  count_after = count_before;
  bool all_ok = true;
  for (int i = 0; i < num_deltas; ++i) {
    const auto before = CountSnapshot();
    const uint64_t t0 = NowNs();
    auto r = live.ApplyDelta(deltas[i]);
    op_ms.push_back(Millis(NowNs() - t0));
    const auto after = CountSnapshot();
    for (const auto& [name, value] : after) {
      count_after[name] += value - before.at(name);
    }
    ++report->attempted;
    if (!r.ok()) {
      ++report->failed;
      all_ok = false;
      std::fprintf(stderr, "delta %d: %s\n", i, r.status().ToString().c_str());
      continue;
    }
    const DeltaApplyResult& res = r.value();
    research_ms.push_back(res.search_seconds * 1e3);
    flips.push_back(static_cast<double>(res.flips));
    dirty_frac.push_back(res.components_total > 0
                             ? static_cast<double>(res.components_dirty) /
                                   res.components_total
                             : 0.0);
    if (args.trace) {
      // The traced twin session: same delta, benchmark span around the
      // call and the session's own per-delta trace.
      InferenceSession& traced = *sessions.front();
      TraceBuilder trace("perfbench");
      const int span =
          rec.Begin("serve.apply_delta", static_cast<uint64_t>(i) + 1);
      const uint64_t t1 = NowNs();
      auto tr = traced.ApplyDelta(deltas[i], &trace);
      traced_ms.push_back(Millis(NowNs() - t1));
      rec.End(span);
      if (!tr.ok()) all_ok = false;
    }
  }
  report->samples["op_ms"] = op_ms;
  report->AddCheck("deltas_applied", all_ok, "every delta applied");
  const double cost = live.map_cost();
  report->values["map_cost"] = cost;
  report->values["deltas"] = num_deltas;
  report->values["components"] = static_cast<double>(live.num_components());

  report->values["peak_rss_mb"] = PeakRssMb();

  // ---- output checks against reference implementations (part 0).
  if (args.part == 0) {
    {
      EngineOptions eopts;
      eopts.search_mode = SearchMode::kComponentAware;
      eopts.grounding.lazy_closure = false;
      eopts.total_flips = kColdFlips;
      eopts.seed = args.seed;
      TuffyEngine fresh(ds.program, accumulated, eopts);
      auto r = fresh.Run();
      const bool ok = r.ok() && r.value().total_cost == cost;
      report->AddCheck("session_equals_fresh", ok,
                       "session " + CostText(cost) + " vs fresh " +
                           (r.ok() ? CostText(r.value().total_cost)
                                   : r.status().ToString()));
    }
    {
      RecoveryStats rstats;
      auto recovered =
          InferenceSession::Recover(ds.program, live_opts, nullptr, &rstats);
      const bool ok = recovered.ok() &&
                      recovered.value()->truth() == live.truth() &&
                      recovered.value()->map_cost() == cost;
      report->AddCheck(
          "recovered_equals_live", ok,
          recovered.ok()
              ? "recovered " + CostText(recovered.value()->map_cost()) +
                    " after replaying " +
                    std::to_string(rstats.records_replayed) + " records"
              : recovered.status().ToString());
    }
  }

  if (!args.trace) {
    RemoveTree(root);
    return true;
  }

  // ---- traced run: layer twins.
  StoreCountDiff(count_before, count_after, 1.0, report);
  InferenceSession& traced = *sessions.front();
  report->AddCheck("traced_cost_matches",
                   traced.map_cost() == cost && traced.truth() == live.truth(),
                   "traced " + CostText(traced.map_cost()) + " vs untraced " +
                       CostText(cost));
  // Per-layer series; run.py reports their medians (or means).
  auto& samples = report->samples;
  auto& v = report->values;
  samples["obs.untraced_ms"] = op_ms;
  samples["obs.traced_ms"] = traced_ms;
  samples["serve.research_ms"] = research_ms;
  samples["serve.flips_per_delta"] = flips;
  samples["serve.dirty_frac"] = dirty_frac;

  // Per-rule binding queries over the initial evidence (what Open's
  // grounding runs).
  Status st = MeasureRuleQueries(ds.program, ds.evidence, live_opts.optimizer,
                                 &rec, report);
  if (!st.ok()) {
    std::fprintf(stderr, "rule queries: %s\n", st.ToString().c_str());
    return false;
  }

  // Delta grounding twin.
  DeltaGrounder grounder(ds.program, live_opts.grounding,
                         live_opts.optimizer);
  const auto init_before = CountSnapshot();
  {
    ScopedSpan span(&rec, "ground");
    st = grounder.Initialize(ds.evidence);
  }
  const double candidates = CountSnapshot().at("ground.candidates") -
                            init_before.at("ground.candidates");
  if (!st.ok()) {
    std::fprintf(stderr, "twin grounder: %s\n", st.ToString().c_str());
    return false;
  }
  v["ground.s"] = rec.TotalSeconds("ground");
  v["ground.clauses"] = static_cast<double>(grounder.clauses().size());
  v["ground.keep_frac"] =
      candidates > 0 ? grounder.clauses().size() / candidates : 0.0;
  std::vector<double> maintenance;
  for (int i = 0; i < num_deltas; ++i) {
    const int span =
        rec.Begin("serve.ground_delta", static_cast<uint64_t>(i) + 1);
    auto edits = grounder.ApplyDelta(deltas[i]);
    rec.End(span);
    if (!edits.ok()) {
      report->AddCheck("twin_grounder", false, edits.status().ToString());
      return true;
    }
    maintenance.push_back(static_cast<double>(edits.value().maintenance_rows));
  }
  samples["serve.ground_delta_ms"] = rec.DurationsMs("serve.ground_delta");
  samples["serve.maintenance_rows_per_delta"] = maintenance;

  // Component detection over the final clause set.
  for (int rep = 0; rep < 5; ++rep) {
    ScopedSpan span(&rec, "mrf.components");
    ComponentSet comps =
        DetectComponents(live.atoms().num_atoms(), live.clauses());
    if (rep == 0) {
      size_t largest = 0;
      for (const auto& atoms : comps.atoms) {
        largest = std::max(largest, atoms.size());
      }
      v["mrf.components"] = static_cast<double>(comps.num_components());
      v["mrf.largest_frac"] =
          static_cast<double>(largest) / live.atoms().num_atoms();
    }
  }
  for (double ms : rec.DurationsMs("mrf.components")) {
    samples["mrf.components_s"].push_back(ms / 1e3);
  }

  // WAL twin: records of the session's mean logged size, append + fsync.
  const double records = count_after.at("wal.append.count");
  const double bytes = count_after.at("wal.append.bytes");
  v["durability.bytes_per_delta"] = bytes / num_deltas;
  {
    const std::string payload(
        static_cast<size_t>(records > 0 ? bytes / records : 64), 'x');
    auto wal = WalWriter::Create(root + "/twin.wal");
    if (!wal.ok()) {
      std::fprintf(stderr, "twin wal: %s\n", wal.status().ToString().c_str());
      return false;
    }
    for (int i = 0; i < num_deltas; ++i) {
      ScopedSpan span(&rec, "durability.append_sync",
                      static_cast<uint64_t>(i) + 1);
      Status a = wal.value()->Append(payload);
      Status s = wal.value()->Sync();
      if (!a.ok() || !s.ok()) {
        std::fprintf(stderr, "twin wal append failed\n");
        return false;
      }
    }
  }
  samples["durability.fsync_ms"] = rec.DurationsMs("durability.append_sync");

  const std::string trace_path = args.work_dir + "/trace-serve_rc.json";
  if (rec.WriteChromeTrace(trace_path)) {
    std::fprintf(stderr, "trace written to %s\n", trace_path.c_str());
  }
  RemoveTree(root);
  return true;
}

}  // namespace perfbench
