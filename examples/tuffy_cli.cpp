// tuffy_cli: command-line MLN inference and weight learning, in the
// spirit of the original Tuffy release. Reads a program (.mln) and
// evidence (.db) file — or generates a built-in synthetic dataset — and
// runs MAP inference, marginal inference, or weight learning.
//
// Usage:
//   tuffy_cli -i prog.mln -e evidence.db -q query_pred [options]
//   tuffy_cli -gen rc -learnwt
//
// Options:
//   -i FILE        MLN program file
//   -e FILE        evidence file
//   -gen NAME      generate a tiny built-in dataset instead of -i/-e:
//                  rc, ie, lp, or er (default query predicate implied)
//   -q PRED        query predicate to report / learn (repeatable)
//   -o FILE        write results to FILE instead of stdout
//   -marginal      marginal inference (MC-SAT) instead of MAP
//   -session       open a long-lived serving session instead of a batch
//                  run, then read delta commands from stdin (see
//                  docs/SERVING.md):
//                    assert pred(a,b) [false]   stage an assertion
//                    retract pred(a,b)          stage a retraction
//                    apply                      apply staged delta
//                    cost                       print current MAP cost
//                    query PRED                 print true atoms of PRED
//                    marginals PRED             per-atom P(true) (-marginal)
//                    stats                      session counters
//                    recover                    drop resident state and
//                                               rebuild from -wal_dir
//                    quit
//   -learnwt       learn clause weights from the evidence: the -q
//                  predicates become training labels, the rest stays
//                  conditioning evidence
//   -algo A        learning algorithm: vp (voted perceptron, default)
//                  or dn (diagonal Newton)
//   -epochs N      learning epochs (default 60)
//   -lr X          learning rate (default 0.5)
//   -flips N       WalkSAT flip budget (default 1000000)
//   -explain       print EXPLAIN ANALYZE of every grounding query to
//                  stderr (per-operator rows / chunks / wall time)
//   -threads N     worker threads (default 1; also parallelizes
//                  per-rule grounding)
//   -budget BYTES  memory budget for search state (default unlimited)
//   -mode M        search mode: component (default), memory, partition,
//                  disk
//   -topdown       use the Alchemy-style top-down grounder
//   -seed N        RNG seed (default 42)
//   -wal_dir DIR   (-session) durable session: log every delta to a WAL
//                  in DIR and snapshot session state there. If DIR
//                  already holds a session, it is recovered instead of
//                  opened fresh. See docs/DURABILITY.md.
//   -snapshot_every N  (-session) snapshot after every N effective
//                  deltas (default 0: initial snapshot only)
//   -no_fsync      (-session) skip per-delta WAL fsync (faster; a crash
//                  may lose the OS write-back window)
//   -serve PORT    expose sessions over TCP (src/net/): start the
//                  poll-based server on PORT (0 = ephemeral, the chosen
//                  port is printed), block until SIGINT, then dump the
//                  serving metrics report plus the Prometheus-style
//                  registry text to stderr. SIGUSR1 dumps the registry
//                  text without stopping (a poor man's scrape; see
//                  docs/OBSERVABILITY.md). Fatal signals dump the
//                  flight recorder — to stderr, and to
//                  <wal_dir>/flight_recorder.txt when durable. Session
//                  knobs (-flips, -seed, -marginal, -wal_dir,
//                  -snapshot_every, -no_fsync, -threads, -budget) apply
//                  to every served session.
//   -connect HOST:PORT
//                  drive a remote -serve process instead of an
//                  in-process session: same REPL commands as -session,
//                  sent over the binary wire protocol, plus `metrics`
//                  (server-wide registry text) and `trace` (recent
//                  delta span trees for this session). The local
//                  program (-i/-gen, for atom names and the fingerprint
//                  check) must match the server's.
//   -follow HOST:PORT
//                  run as a hot standby of the durable primary at
//                  HOST:PORT (docs/DURABILITY.md, "Replication &
//                  failover"): subscribe to its session "cli", apply
//                  its shipped WAL records into a local replica rooted
//                  at -wal_dir (required), print "replicated to N"
//                  progress on stderr, and reconnect with backoff when
//                  the primary goes quiet. The REPL serves read-only
//                  queries (cost/query/marginals/status) plus `promote`
//                  — operator failover that seals the local WAL and
//                  makes apply work locally. Combine with -serve PORT
//                  to also front the replica over TCP (deltas are
//                  refused with a retryable not-primary error until
//                  promotion).
//   -crash_at SPEC arm a fault point before running, e.g.
//                  'wal.append.mid_record=crash@2' (see
//                  util/fault_points.h). The process _Exit()s with
//                  code 43 when a crash fault fires.
//
// Examples:
//   ./build/examples/tuffy_cli -i prog.mln -e facts.db -q cat
//   ./build/examples/tuffy_cli -gen rc -learnwt -algo dn -epochs 30
//   ./build/examples/tuffy_cli -gen rc -serve 7777
//   ./build/examples/tuffy_cli -gen rc -connect 127.0.0.1:7777

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "datagen/datasets.h"
#include "durability/snapshot.h"
#include "exec/tuffy_engine.h"
#include "mln/io.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "serve/follower_manager.h"
#include "util/fault_points.h"
#include "util/string_util.h"

using namespace tuffy;  // NOLINT: example brevity

namespace {

struct CliArgs {
  std::string program_file;
  std::string evidence_file;
  std::string gen_dataset;
  std::vector<std::string> query_preds;
  std::string output_file;
  bool marginal = false;
  bool learn = false;
  bool session = false;
  bool explain = false;
  bool serve = false;
  uint16_t serve_port = 0;
  std::string connect;  // "host:port"; empty = no -connect
  std::string follow;   // "host:port"; empty = no -follow
  std::string crash_at;  // fault-point spec to arm at startup
  EngineOptions engine;
  LearnOptions learnwt;
};

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s (-i prog.mln -e evidence.db | -gen rc|ie|lp|er) "
               "-q query_pred [-o out] [-marginal] [-session] [-explain] "
               "[-learnwt] "
               "[-algo vp|dn] [-epochs N] [-lr X] [-flips N] [-threads N] "
               "[-budget BYTES] [-mode component|memory|partition|disk] "
               "[-topdown] [-seed N] [-wal_dir DIR] [-snapshot_every N] "
               "[-no_fsync] [-serve PORT] [-connect HOST:PORT] "
               "[-follow HOST:PORT] [-crash_at SPEC]\n",
               argv0);
  return 2;
}

/// Tiny versions of the datagen workloads, sized so exhaustive
/// grounding (which learning requires) stays sub-second.
Result<Dataset> GenerateDataset(const std::string& name) {
  if (name == "rc") {
    RcParams p;
    p.num_clusters = 4;
    p.papers_per_cluster = 6;
    p.num_categories = 3;
    p.authors_per_cluster = 3;
    p.citations_per_paper = 2;
    p.labeled_fraction = 0.6;
    return MakeRcDataset(p);
  }
  if (name == "ie") {
    IeParams p;
    p.num_citations = 20;
    p.positions_per_citation = 3;
    p.num_fields = 3;
    p.vocabulary = 15;
    p.num_token_rules = 20;
    return MakeIeDataset(p);
  }
  if (name == "lp") {
    LpParams p;
    p.num_professors = 4;
    p.num_students = 12;
    p.num_courses = 6;
    p.num_publications = 20;
    return MakeLpDataset(p);
  }
  if (name == "er") {
    ErParams p;
    p.num_records = 12;
    p.num_entities = 4;
    return MakeErDataset(p);
  }
  return Status::InvalidArgument("unknown -gen dataset: " + name);
}

/// The natural training target of each built-in dataset.
const char* DefaultQueryPred(const std::string& name) {
  if (name == "rc") return "cat";
  if (name == "ie") return "infield";
  if (name == "lp") return "advisedBy";
  if (name == "er") return "sameBib";
  return "";
}

bool ParseArgs(int argc, char** argv, CliArgs* args) {
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (a == "-i") {
      const char* v = next();
      if (!v) return false;
      args->program_file = v;
    } else if (a == "-e") {
      const char* v = next();
      if (!v) return false;
      args->evidence_file = v;
    } else if (a == "-q") {
      const char* v = next();
      if (!v) return false;
      args->query_preds.push_back(v);
    } else if (a == "-o") {
      const char* v = next();
      if (!v) return false;
      args->output_file = v;
    } else if (a == "-gen") {
      const char* v = next();
      if (!v) return false;
      args->gen_dataset = v;
    } else if (a == "-marginal") {
      args->marginal = true;
      args->engine.task = InferenceTask::kMarginal;
    } else if (a == "-session") {
      args->session = true;
    } else if (a == "-explain") {
      args->explain = true;
      args->engine.optimizer.analyze = true;
    } else if (a == "-learnwt") {
      args->learn = true;
    } else if (a == "-algo") {
      const char* v = next();
      if (!v) return false;
      std::string algo = v;
      if (algo == "vp") {
        args->learnwt.algorithm = LearnAlgorithm::kVotedPerceptron;
      } else if (algo == "dn") {
        args->learnwt.algorithm = LearnAlgorithm::kDiagonalNewton;
      } else {
        return false;
      }
    } else if (a == "-epochs") {
      const char* v = next();
      if (!v) return false;
      args->learnwt.max_epochs = std::atoi(v);
    } else if (a == "-lr") {
      const char* v = next();
      if (!v) return false;
      args->learnwt.learning_rate = std::atof(v);
    } else if (a == "-flips") {
      const char* v = next();
      if (!v) return false;
      args->engine.total_flips = std::strtoull(v, nullptr, 10);
    } else if (a == "-threads") {
      const char* v = next();
      if (!v) return false;
      args->engine.num_threads = std::atoi(v);
    } else if (a == "-budget") {
      const char* v = next();
      if (!v) return false;
      args->engine.memory_budget_bytes = std::strtoull(v, nullptr, 10);
    } else if (a == "-mode") {
      const char* v = next();
      if (!v) return false;
      std::string mode = v;
      if (mode == "component") {
        args->engine.search_mode = SearchMode::kComponentAware;
      } else if (mode == "memory") {
        args->engine.search_mode = SearchMode::kInMemory;
      } else if (mode == "partition") {
        args->engine.search_mode = SearchMode::kPartitionAware;
      } else if (mode == "disk") {
        args->engine.search_mode = SearchMode::kDisk;
      } else {
        return false;
      }
    } else if (a == "-wal_dir") {
      const char* v = next();
      if (!v) return false;
      args->engine.wal_dir = v;
    } else if (a == "-snapshot_every") {
      const char* v = next();
      if (!v) return false;
      args->engine.snapshot_every =
          static_cast<uint32_t>(std::strtoul(v, nullptr, 10));
    } else if (a == "-no_fsync") {
      args->engine.wal_fsync = false;
    } else if (a == "-serve") {
      const char* v = next();
      if (!v) return false;
      args->serve = true;
      args->serve_port = static_cast<uint16_t>(std::strtoul(v, nullptr, 10));
    } else if (a == "-connect") {
      const char* v = next();
      if (!v) return false;
      args->connect = v;
    } else if (a == "-follow") {
      const char* v = next();
      if (!v) return false;
      args->follow = v;
    } else if (a == "-crash_at") {
      const char* v = next();
      if (!v) return false;
      args->crash_at = v;
    } else if (a == "-topdown") {
      args->engine.grounding_mode = GroundingMode::kTopDown;
    } else if (a == "-seed") {
      const char* v = next();
      if (!v) return false;
      args->engine.seed = std::strtoull(v, nullptr, 10);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", a.c_str());
      return false;
    }
  }
  if (!args->gen_dataset.empty()) {
    if (args->query_preds.empty()) {
      const char* pred = DefaultQueryPred(args->gen_dataset);
      if (pred[0] == '\0') return false;  // unknown dataset: usage
      args->query_preds.push_back(pred);
    }
    return true;
  }
  if (args->serve || !args->connect.empty() || !args->follow.empty()) {
    // The wire modes need the program (atom names, fingerprint check);
    // -serve also needs evidence for the sessions' base state, while a
    // -connect client or -follow replica never touches evidence locally
    // (a follower's base state arrives as a shipped snapshot).
    if (!args->follow.empty()) {
      return !args->program_file.empty() && !args->engine.wal_dir.empty();
    }
    return !args->program_file.empty() &&
           (!args->serve || !args->evidence_file.empty());
  }
  return !args->program_file.empty() && !args->evidence_file.empty() &&
         !args->query_preds.empty();
}

/// Writes `out` to -o (if given) or stdout. Returns the process status.
int EmitOutput(const CliArgs& args, const std::string& out) {
  if (args.output_file.empty()) {
    std::fputs(out.c_str(), stdout);
    return 0;
  }
  Status write = WriteStringToFile(args.output_file, out);
  if (!write.ok()) {
    std::fprintf(stderr, "%s\n", write.ToString().c_str());
    return 1;
  }
  return 0;
}

int RunLearn(const CliArgs& args, const MlnProgram& program,
             const EvidenceDb& evidence) {
  LearnOptions lopts = args.learnwt;
  lopts.query_predicates = args.query_preds;
  lopts.seed = args.engine.seed;
  TuffyEngine engine(program, evidence, args.engine);
  auto result = engine.Learn(lopts);
  if (!result.ok()) {
    std::fprintf(stderr, "learning failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  const LearnResult& lr = result.value();
  std::fprintf(stderr,
               "learnwt: %zu atoms, %zu ground clauses, %d epochs "
               "(%s), %.3fs\n",
               lr.num_atoms, lr.num_ground_clauses, lr.epochs,
               lr.converged ? "converged" : "budget exhausted", lr.seconds);
  std::string out;
  for (size_t r = 0; r < lr.weights.size(); ++r) {
    const Clause& rule = program.clauses()[r];
    out += StrFormat("rule %zu: %s%g -> %g  (n_data=%lld, E[n]=%.2f)\n", r,
                     rule.hard ? "hard " : "", lr.initial_weights[r],
                     lr.weights[r],
                     static_cast<long long>(lr.data_counts[r]),
                     r < lr.expected_counts.size() ? lr.expected_counts[r]
                                                   : 0.0);
  }
  return EmitOutput(args, out);
}

// ----------------------------------------------------------- -session

/// Parses "pred(arg1, arg2, ...)" against the program's symbol table.
bool ParseAtomSpec(const MlnProgram& program, const std::string& spec,
                   GroundAtom* atom) {
  size_t open = spec.find('(');
  size_t close = spec.rfind(')');
  if (open == std::string::npos || close == std::string::npos ||
      close < open) {
    std::fprintf(stderr, "bad atom syntax: %s\n", spec.c_str());
    return false;
  }
  auto pid = program.FindPredicate(spec.substr(0, open));
  if (!pid.ok()) {
    std::fprintf(stderr, "unknown predicate in: %s\n", spec.c_str());
    return false;
  }
  atom->pred = pid.value();
  atom->args.clear();
  std::string args = spec.substr(open + 1, close - open - 1);
  size_t pos = 0;
  while (pos <= args.size()) {
    size_t comma = args.find(',', pos);
    std::string tok = args.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    // Trim blanks and optional quotes.
    size_t b = tok.find_first_not_of(" \t\"");
    size_t e = tok.find_last_not_of(" \t\"");
    if (b == std::string::npos) break;
    tok = tok.substr(b, e - b + 1);
    ConstantId c = program.symbols().Find(tok);
    if (c < 0) {
      std::fprintf(stderr,
                   "unknown constant %s (sessions serve the loaded "
                   "universe; see docs/SERVING.md)\n",
                   tok.c_str());
      return false;
    }
    atom->args.push_back(c);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  const Predicate& pred = program.predicate(atom->pred);
  if (atom->args.size() != static_cast<size_t>(pred.arity())) {
    std::fprintf(stderr, "%s expects %d arguments\n", pred.name.c_str(),
                 pred.arity());
    return false;
  }
  return true;
}

void PrintRecoveryStats(const RecoveryStats& rs) {
  std::fprintf(stderr,
               "recovered: snapshot %llu (%zu tried), %llu/%llu records "
               "replayed (%llu from snapshot), %llu bytes scanned, "
               "%llu torn tail bytes truncated\n",
               (unsigned long long)rs.snapshot_seq, rs.snapshots_tried,
               (unsigned long long)rs.records_replayed,
               (unsigned long long)rs.wal_records_total,
               (unsigned long long)rs.records_skipped,
               (unsigned long long)rs.bytes_scanned,
               (unsigned long long)rs.truncated_bytes);
}

/// Handles "assert pred(...) [true|false]" / "retract pred(...)" for
/// both the in-process and the -connect REPL. Anything after the
/// closing paren must be a recognized truth flag — silently dropping a
/// typo like "False" would stage the opposite of what the user meant.
void StageEdit(const MlnProgram& program, const std::string& cmd,
               const std::string& rest, EvidenceDelta* staged) {
  size_t close = rest.rfind(')');
  std::string spec =
      close == std::string::npos ? rest : rest.substr(0, close + 1);
  std::string suffix =
      close == std::string::npos ? "" : rest.substr(close + 1);
  size_t b = suffix.find_first_not_of(" \t");
  size_t e = suffix.find_last_not_of(" \t");
  suffix = b == std::string::npos ? "" : suffix.substr(b, e - b + 1);
  bool truth = true;
  if (cmd == "retract") {
    if (!suffix.empty()) {
      std::fprintf(stderr, "retract takes no flag, got '%s'\n",
                   suffix.c_str());
      return;
    }
  } else if (suffix == "false") {
    truth = false;
  } else if (!suffix.empty() && suffix != "true") {
    std::fprintf(stderr, "expected 'true' or 'false', got '%s'\n",
                 suffix.c_str());
    return;
  }
  GroundAtom atom;
  if (!ParseAtomSpec(program, spec, &atom)) return;
  if (cmd == "assert") {
    staged->Assert(std::move(atom), truth);
  } else {
    staged->Retract(std::move(atom));
  }
  std::fprintf(stderr, "staged (%zu assertions, %zu retractions)\n",
               staged->assertions.size(), staged->retractions.size());
}

/// Interactive serving session: reads delta commands from stdin.
int RunSession(const CliArgs& args, const MlnProgram& program,
               const EvidenceDb& evidence) {
  TuffyEngine engine(program, evidence, args.engine);
  std::unique_ptr<InferenceSession> sess;
  auto session = engine.OpenSession();
  if (session.ok()) {
    sess = session.TakeValue();
  } else if (session.status().code() == StatusCode::kAlreadyExists) {
    // The -wal_dir already holds a session: pick up where it left off.
    RecoveryStats rs;
    auto recovered = engine.RecoverSession(&rs);
    if (!recovered.ok()) {
      std::fprintf(stderr, "session recovery failed: %s\n",
                   recovered.status().ToString().c_str());
      return 1;
    }
    sess = recovered.TakeValue();
    PrintRecoveryStats(rs);
  } else {
    std::fprintf(stderr, "session open failed: %s\n",
                 session.status().ToString().c_str());
    return 1;
  }
  std::fprintf(stderr,
               "session open: %zu atoms, %zu clauses, %zu components, "
               "cost %.2f\n> ",
               sess->atoms().num_atoms(), sess->clauses().size(),
               sess->num_components(), sess->map_cost());

  EvidenceDelta staged;
  std::string line;
  while (std::getline(std::cin, line)) {
    while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
      line.pop_back();
    }
    size_t sp = line.find(' ');
    std::string cmd = line.substr(0, sp);
    std::string rest = sp == std::string::npos ? "" : line.substr(sp + 1);

    if (cmd.empty()) {
    } else if (cmd == "assert" || cmd == "retract") {
      StageEdit(program, cmd, rest, &staged);
    } else if (cmd == "apply") {
      auto r = sess->ApplyDelta(staged);
      staged = EvidenceDelta{};
      if (!r.ok()) {
        std::fprintf(stderr, "delta failed: %s\n",
                     r.status().ToString().c_str());
      } else {
        std::fprintf(
            stderr,
            "%s: %zu rules re-ground, +%zu/-%zu/~%zu clauses, %zu/%zu "
            "components re-searched, %.3fs ground + %.3fs search, "
            "cost %.2f\n",
            r.value().edits.no_op ? "no-op" : "applied",
            r.value().edits.rules_reground, r.value().edits.clauses_added,
            r.value().edits.clauses_removed,
            r.value().edits.clauses_reweighted, r.value().components_dirty,
            r.value().components_total, r.value().edits.ground_seconds,
            r.value().search_seconds, r.value().map_cost);
      }
    } else if (cmd == "cost") {
      std::fprintf(stderr, "map cost: %.4f\n", sess->map_cost());
    } else if (cmd == "query") {
      auto atoms =
          ExtractTrueAtoms(program, sess->atoms(), sess->truth(), rest);
      if (!atoms.ok()) {
        std::fprintf(stderr, "%s\n", atoms.status().ToString().c_str());
      } else {
        for (const GroundAtom& atom : atoms.value()) {
          AtomId id;
          if (sess->atoms().Find(atom, &id)) {
            std::printf("%s\n", sess->atoms().AtomName(program, id).c_str());
          }
        }
        std::fflush(stdout);
      }
    } else if (cmd == "marginals") {
      if (sess->marginals().empty()) {
        std::fprintf(stderr, "session opened without -marginal\n");
      } else {
        auto pid = program.FindPredicate(rest);
        if (!pid.ok()) {
          std::fprintf(stderr, "unknown predicate %s\n", rest.c_str());
        } else {
          for (AtomId a = 0; a < sess->atoms().num_atoms(); ++a) {
            if (sess->atoms().atom(a).pred != pid.value()) continue;
            std::printf("%.4f\t%s\n", sess->marginals()[a],
                        sess->atoms().AtomName(program, a).c_str());
          }
          std::fflush(stdout);
        }
      }
    } else if (cmd == "recover") {
      if (args.engine.wal_dir.empty()) {
        std::fprintf(stderr, "recover needs -wal_dir\n");
      } else {
        // Drop the resident state on the floor — the WAL is the record —
        // and rebuild from disk, exactly as a restarted process would.
        sess.reset();
        RecoveryStats rs;
        auto recovered = engine.RecoverSession(&rs);
        if (!recovered.ok()) {
          std::fprintf(stderr, "recovery failed: %s\n",
                       recovered.status().ToString().c_str());
          return 1;
        }
        sess = recovered.TakeValue();
        PrintRecoveryStats(rs);
        std::fprintf(stderr, "map cost after recovery: %.4f\n",
                     sess->map_cost());
      }
    } else if (cmd == "stats") {
      const SessionStats& st = sess->stats();
      std::fprintf(stderr,
                   "deltas %zu (no-op %zu), components re-searched %zu, "
                   "flips %llu, resident %zu bytes\n",
                   st.deltas_applied, st.no_op_deltas,
                   st.components_researched,
                   static_cast<unsigned long long>(st.flips),
                   sess->EstimateBytes());
    } else if (cmd == "quit" || cmd == "exit") {
      break;
    } else {
      std::fprintf(stderr,
                   "commands: assert A [false] | retract A | apply | cost "
                   "| query P | marginals P | recover | stats | quit\n");
    }
    std::fprintf(stderr, "> ");
  }
  return 0;
}

// ------------------------------------------------------ -serve/-connect

std::atomic<bool> g_shutdown{false};
std::atomic<bool> g_dump_metrics{false};

void HandleShutdownSignal(int) { g_shutdown.store(true); }
void HandleDumpSignal(int) { g_dump_metrics.store(true); }

/// Serves the loaded program + evidence over TCP until SIGINT/SIGTERM,
/// then dumps the metrics report to stderr (the CI smoke greps it).
/// SIGUSR1 dumps the registry text mid-flight; the handlers only set
/// flags, the dump itself runs on this thread (RenderText allocates and
/// locks, so it must stay out of signal context).
int RunServe(const CliArgs& args, const MlnProgram& program,
             const EvidenceDb& evidence) {
  InstallFlightRecorderCrashHandlers();
  if (!args.engine.wal_dir.empty()) {
    FlightRecorder::Global().SetDumpPath(
        (args.engine.wal_dir + "/flight_recorder.txt").c_str());
  }
  ServerOptions opts;
  opts.port = args.serve_port;
  opts.num_workers = args.engine.num_threads > 1 ? args.engine.num_threads : 2;
  opts.session.total_flips = args.engine.total_flips;
  opts.session.seed = args.engine.seed;
  opts.session.track_marginals = args.marginal;
  opts.memory_budget_bytes = args.engine.memory_budget_bytes;
  opts.durability_root = args.engine.wal_dir;
  opts.snapshot_every = args.engine.snapshot_every;
  opts.wal_fsync = args.engine.wal_fsync;
  Server server(program, evidence, opts);
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "serve failed: %s\n", started.ToString().c_str());
    return 1;
  }
  // Port on stdout so scripts can capture it even with -serve 0.
  std::printf("serving on %s:%u\n", opts.host.c_str(), server.port());
  std::fflush(stdout);
  std::fprintf(stderr, "program fingerprint %016llx; SIGINT to stop\n",
               (unsigned long long)ProgramFingerprint(program));
  std::signal(SIGINT, HandleShutdownSignal);
  std::signal(SIGTERM, HandleShutdownSignal);
  std::signal(SIGUSR1, HandleDumpSignal);
  while (!g_shutdown.load()) {
    if (g_dump_metrics.exchange(false)) {
      std::fputs(MetricsRegistry::Global().RenderText().c_str(), stderr);
      std::fflush(stderr);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::fputs(server.MetricsReport().c_str(), stderr);
  std::fputs(MetricsRegistry::Global().RenderText().c_str(), stderr);
  server.Stop();
  return 0;
}

std::string FormatAtom(const MlnProgram& program, const GroundAtom& atom) {
  std::string out = program.predicate(atom.pred).name + "(";
  for (size_t i = 0; i < atom.args.size(); ++i) {
    if (i > 0) out += ", ";
    out += program.symbols().SymbolName(atom.args[i]);
  }
  out += ")";
  return out;
}

/// The -session REPL, but the session lives in a remote -serve process
/// and every command travels as one wire request.
int RunConnect(const CliArgs& args, const MlnProgram& program) {
  size_t colon = args.connect.rfind(':');
  if (colon == std::string::npos || colon + 1 == args.connect.size()) {
    std::fprintf(stderr, "-connect expects HOST:PORT, got '%s'\n",
                 args.connect.c_str());
    return 2;
  }
  const std::string host = args.connect.substr(0, colon);
  const uint16_t port = static_cast<uint16_t>(
      std::strtoul(args.connect.c_str() + colon + 1, nullptr, 10));
  Client client;
  Status st = client.Connect(host, port);
  if (!st.ok()) {
    std::fprintf(stderr, "connect failed: %s\n", st.ToString().c_str());
    return 1;
  }

  // A kError reply is a *successful* call at the transport level; a
  // non-OK Result means the connection itself is gone. The REPL keeps
  // going on wire errors (except at open) and dies on transport ones.
  auto call = [&](const char* what,
                  Result<NetResponse> r) -> Result<NetResponse> {
    if (!r.ok()) {
      std::fprintf(stderr, "%s: connection lost: %s\n", what,
                   r.status().ToString().c_str());
      return r;
    }
    if (r.value().type == MsgType::kError) {
      std::fprintf(stderr, "%s: %s%s: %s\n", what,
                   WireErrorName(r.value().error),
                   r.value().retryable ? " (retryable)" : "",
                   r.value().message.c_str());
    }
    return r;
  };

  const std::string session = "cli";
  auto open = call("open", client.OpenSession(
                               session, ProgramFingerprint(program)));
  if (!open.ok() || open.value().type != MsgType::kOpenReply) return 1;
  std::fprintf(stderr,
               "%s session '%s' on %s: %llu atoms, %llu clauses, "
               "%llu components, cost %.2f\n> ",
               open.value().attached ? "re-attached to" : "opened",
               session.c_str(), args.connect.c_str(),
               (unsigned long long)open.value().num_atoms,
               (unsigned long long)open.value().num_clauses,
               (unsigned long long)open.value().num_components,
               open.value().map_cost);

  EvidenceDelta staged;
  std::string line;
  while (std::getline(std::cin, line)) {
    while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
      line.pop_back();
    }
    size_t sp = line.find(' ');
    std::string cmd = line.substr(0, sp);
    std::string rest = sp == std::string::npos ? "" : line.substr(sp + 1);

    if (cmd.empty()) {
    } else if (cmd == "assert" || cmd == "retract") {
      StageEdit(program, cmd, rest, &staged);
    } else if (cmd == "apply") {
      // Retryable refusals (overload shedding, a not-yet-promoted
      // replica) are retried with backoff instead of bouncing back to
      // the user.
      NetRequest req;
      req.type = MsgType::kApplyDelta;
      req.session = session;
      req.delta = staged;
      auto r = call("apply", client.CallWithRetry(req));
      if (!r.ok()) return 1;
      if (r.value().type == MsgType::kDeltaReply) {
        staged = EvidenceDelta{};
        const NetResponse& d = r.value();
        std::fprintf(stderr,
                     "%s: seq %llu, %llu/%llu components re-searched, "
                     "%llu flips, cost %.2f\n",
                     d.no_op ? "no-op" : "applied",
                     (unsigned long long)d.seq,
                     (unsigned long long)d.components_dirty,
                     (unsigned long long)d.components_total,
                     (unsigned long long)d.flips, d.map_cost);
      }
      // On a retryable wire error the delta stays staged: "apply" again.
    } else if (cmd == "cost") {
      auto r = call("cost", client.QueryMap(session, ""));
      if (!r.ok()) return 1;
      if (r.value().type == MsgType::kMapReply) {
        std::fprintf(stderr, "map cost: %.4f\n", r.value().map_cost);
      }
    } else if (cmd == "query") {
      auto r = call("query", client.QueryMap(session, rest));
      if (!r.ok()) return 1;
      if (r.value().type == MsgType::kMapReply) {
        for (const GroundAtom& atom : r.value().atoms) {
          std::printf("%s\n", FormatAtom(program, atom).c_str());
        }
        std::fflush(stdout);
      }
    } else if (cmd == "marginals") {
      auto r = call("marginals", client.QueryMarginals(session, rest));
      if (!r.ok()) return 1;
      if (r.value().type == MsgType::kMarginalsReply) {
        for (const auto& [atom, p] : r.value().marginals) {
          std::printf("%.4f\t%s\n", p, FormatAtom(program, atom).c_str());
        }
        std::fflush(stdout);
      }
    } else if (cmd == "recover") {
      auto r = call("recover", client.Recover(session));
      if (!r.ok()) return 1;
      if (r.value().type == MsgType::kRecoverReply) {
        PrintRecoveryStats(r.value().recovery);
        std::fprintf(stderr, "map cost after recovery: %.4f\n",
                     r.value().map_cost);
      }
    } else if (cmd == "stats") {
      auto r = call("stats", client.Stats(session));
      if (!r.ok()) return 1;
      if (r.value().type == MsgType::kStatsReply) {
        for (const auto& [key, value] : r.value().stats) {
          std::fprintf(stderr, "%s = %g\n", key.c_str(), value);
        }
      }
    } else if (cmd == "metrics") {
      auto r = call("metrics", client.Metrics());
      if (!r.ok()) return 1;
      if (r.value().type == MsgType::kMetricsReply) {
        std::fputs(r.value().message.c_str(), stdout);
        std::fflush(stdout);
      }
    } else if (cmd == "trace") {
      auto r = call("trace", client.Trace(session));
      if (!r.ok()) return 1;
      if (r.value().type == MsgType::kTraceReply) {
        std::fputs(r.value().message.c_str(), stderr);
      }
    } else if (cmd == "quit" || cmd == "exit") {
      break;
    } else {
      std::fprintf(stderr,
                   "commands: assert A [false] | retract A | apply | cost "
                   "| query P | marginals P | recover | stats | metrics "
                   "| trace | quit\n");
    }
    std::fprintf(stderr, "> ");
  }
  client.Disconnect();
  return 0;
}

// --------------------------------------------------------------- -follow

/// Hot standby: stream the primary's WAL into a local replica, print
/// replication progress, and serve a read-only REPL with an operator
/// `promote` command. With -serve PORT, the replica is also fronted over
/// TCP (queries served, deltas refused with kNotPrimary until promoted).
int RunFollow(const CliArgs& args, const MlnProgram& program,
              const EvidenceDb& evidence) {
  if (args.engine.wal_dir.empty()) {
    std::fprintf(stderr, "-follow needs -wal_dir for the local copy\n");
    return 2;
  }
  size_t colon = args.follow.rfind(':');
  if (colon == std::string::npos || colon + 1 == args.follow.size()) {
    std::fprintf(stderr, "-follow expects HOST:PORT, got '%s'\n",
                 args.follow.c_str());
    return 2;
  }
  InstallFlightRecorderCrashHandlers();
  FlightRecorder::Global().SetDumpPath(
      (args.engine.wal_dir + "/flight_recorder.txt").c_str());

  FollowerOptions fopts;
  fopts.primary_host = args.follow.substr(0, colon);
  fopts.primary_port = static_cast<uint16_t>(
      std::strtoul(args.follow.c_str() + colon + 1, nullptr, 10));
  fopts.session = "cli";
  fopts.session_options.total_flips = args.engine.total_flips;
  fopts.session_options.seed = args.engine.seed;
  fopts.session_options.track_marginals = args.marginal;
  fopts.session_options.num_threads = args.engine.num_threads;
  fopts.session_options.wal_dir = args.engine.wal_dir;
  fopts.session_options.snapshot_every = args.engine.snapshot_every;
  fopts.session_options.wal_fsync = args.engine.wal_fsync;

  FollowerManager follower(program, fopts);
  Status started = follower.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "follow failed: %s\n", started.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "following %s from position %llu\n",
               args.follow.c_str(),
               (unsigned long long)follower.position());

  // Optional TCP front end over the replica.
  std::unique_ptr<Server> front;
  if (args.serve) {
    ServerOptions sopts;
    sopts.port = args.serve_port;
    sopts.replica = follower.replica();
    front = std::make_unique<Server>(program, evidence, sopts);
    Status fs = front->Start();
    if (!fs.ok()) {
      std::fprintf(stderr, "replica serve failed: %s\n",
                   fs.ToString().c_str());
      return 1;
    }
    std::printf("serving on %s:%u\n", sopts.host.c_str(), front->port());
    std::fflush(stdout);
  }

  // Progress monitor: one stderr line per replicated position, the
  // "replicated to N" lines scripts (and the CI failover smoke) wait on.
  std::atomic<bool> monitor_stop{false};
  std::thread monitor([&]() {
    uint64_t reported = follower.position();
    while (!monitor_stop.load(std::memory_order_acquire)) {
      const FollowerState st = follower.state();
      const uint64_t pos = follower.position();
      if (pos != reported &&
          (st == FollowerState::kStreaming ||
           st == FollowerState::kBootstrapping)) {
        double cost = 0.0;
        (void)follower.replica()->Read(
            fopts.session, [&](const InferenceSession& s) {
              cost = s.map_cost();
              return Status::OK();
            });
        std::fprintf(stderr, "replicated to %llu (cost %.4f)\n",
                     (unsigned long long)pos, cost);
        std::fflush(stderr);
        reported = pos;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });

  EvidenceDelta staged;
  std::string line;
  int rc = 0;
  ReplicaSession* replica = follower.replica();
  const std::string& name = fopts.session;
  while (std::getline(std::cin, line)) {
    while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
      line.pop_back();
    }
    size_t sp = line.find(' ');
    std::string cmd = line.substr(0, sp);
    std::string rest = sp == std::string::npos ? "" : line.substr(sp + 1);

    if (cmd.empty()) {
    } else if (cmd == "status") {
      std::fprintf(stderr,
                   "state %s, position %llu, primary committed %llu, "
                   "reconnects %llu%s\n",
                   FollowerStateName(follower.state()),
                   (unsigned long long)follower.position(),
                   (unsigned long long)follower.primary_committed(),
                   (unsigned long long)follower.reconnects(),
                   replica->promoted() ? ", promoted" : "");
    } else if (cmd == "cost") {
      Status read = replica->Read(name, [&](const InferenceSession& s) {
        std::fprintf(stderr, "map cost: %.4f\n", s.map_cost());
        return Status::OK();
      });
      if (!read.ok()) std::fprintf(stderr, "no replicated state yet\n");
    } else if (cmd == "query") {
      Status read = replica->Read(name, [&](const InferenceSession& s) {
        auto atoms = ExtractTrueAtoms(program, s.atoms(), s.truth(), rest);
        if (!atoms.ok()) {
          std::fprintf(stderr, "%s\n", atoms.status().ToString().c_str());
          return Status::OK();
        }
        for (const GroundAtom& atom : atoms.value()) {
          AtomId id;
          if (s.atoms().Find(atom, &id)) {
            std::printf("%s\n", s.atoms().AtomName(program, id).c_str());
          }
        }
        std::fflush(stdout);
        return Status::OK();
      });
      if (!read.ok()) std::fprintf(stderr, "no replicated state yet\n");
    } else if (cmd == "marginals") {
      Status read = replica->Read(name, [&](const InferenceSession& s) {
        if (s.marginals().empty()) return Status::NotFound("no marginals");
        auto pid = program.FindPredicate(rest);
        if (!pid.ok()) {
          std::fprintf(stderr, "unknown predicate %s\n", rest.c_str());
          return Status::OK();
        }
        for (AtomId a = 0; a < s.atoms().num_atoms(); ++a) {
          if (s.atoms().atom(a).pred != pid.value()) continue;
          std::printf("%.4f\t%s\n", s.marginals()[a],
                      s.atoms().AtomName(program, a).c_str());
        }
        std::fflush(stdout);
        return Status::OK();
      });
      if (!read.ok()) {
        std::fprintf(stderr, "no marginals (follow with -marginal and a "
                             "marginal-tracking primary)\n");
      }
    } else if (cmd == "assert" || cmd == "retract") {
      StageEdit(program, cmd, rest, &staged);
    } else if (cmd == "apply") {
      auto r = replica->ApplyDelta(name, staged);
      if (!r.ok()) {
        // Pre-promotion this is the not-primary refusal: the staged
        // delta survives, ready to re-apply after `promote`.
        std::fprintf(stderr, "delta refused: %s\n",
                     r.status().ToString().c_str());
      } else {
        staged = EvidenceDelta{};
        std::fprintf(stderr, "applied: cost %.4f at position %llu\n",
                     r.value().map_cost,
                     (unsigned long long)follower.position());
      }
    } else if (cmd == "promote") {
      auto promoted = follower.Promote();
      if (!promoted.ok()) {
        std::fprintf(stderr, "promote failed: %s\n",
                     promoted.status().ToString().c_str());
      } else {
        std::fprintf(stderr, "promoted at %llu\n",
                     (unsigned long long)promoted.value());
        std::fflush(stderr);
      }
    } else if (cmd == "quit" || cmd == "exit") {
      break;
    } else {
      std::fprintf(stderr,
                   "commands: status | cost | query P | marginals P | "
                   "assert A [false] | retract A | apply | promote | "
                   "quit\n");
    }
    std::fprintf(stderr, "> ");
  }
  monitor_stop.store(true, std::memory_order_release);
  monitor.join();
  if (front != nullptr) front->Stop();
  follower.Stop();
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args;
  if (!ParseArgs(argc, argv, &args)) return Usage(argv[0]);

  MlnProgram program;
  EvidenceDb evidence;
  if (!args.gen_dataset.empty()) {
    auto ds = GenerateDataset(args.gen_dataset);
    if (!ds.ok()) {
      std::fprintf(stderr, "%s\n", ds.status().ToString().c_str());
      return 1;
    }
    program = std::move(ds.value().program);
    evidence = std::move(ds.value().evidence);
  } else {
    auto program_result = LoadProgramFile(args.program_file);
    if (!program_result.ok()) {
      std::fprintf(stderr, "%s: %s\n", args.program_file.c_str(),
                   program_result.status().ToString().c_str());
      return 1;
    }
    program = program_result.TakeValue();
    if (!args.evidence_file.empty()) {  // -connect may go without
      Status st = LoadEvidenceFile(args.evidence_file, &program, &evidence);
      if (!st.ok()) {
        std::fprintf(stderr, "%s: %s\n", args.evidence_file.c_str(),
                     st.ToString().c_str());
        return 1;
      }
    }
  }

  if (!args.crash_at.empty()) {
    Status armed = ArmFaultFromSpec(args.crash_at);
    if (!armed.ok()) {
      std::fprintf(stderr, "-crash_at: %s\n", armed.ToString().c_str());
      return 2;
    }
  }

  if (!args.follow.empty()) return RunFollow(args, program, evidence);
  if (args.serve) return RunServe(args, program, evidence);
  if (!args.connect.empty()) return RunConnect(args, program);
  if (args.learn) return RunLearn(args, program, evidence);
  if (args.session) return RunSession(args, program, evidence);

  TuffyEngine engine(program, evidence, args.engine);
  auto result = engine.Run();
  if (!result.ok()) {
    std::fprintf(stderr, "inference failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  const EngineResult& r = result.value();
  if (args.explain) std::fputs(r.explain.c_str(), stderr);
  std::fprintf(stderr,
               "grounding: %zu atoms, %zu clauses, %.3fs; search: %.3fs, "
               "%llu flips, cost %.2f, %zu components\n",
               r.grounding.atoms.num_atoms(),
               r.grounding.clauses.num_clauses(), r.grounding_seconds,
               r.search_seconds, (unsigned long long)r.flips, r.total_cost,
               r.num_components);

  std::string out;
  for (const std::string& pred_name : args.query_preds) {
    auto pid = program.FindPredicate(pred_name);
    if (!pid.ok()) {
      std::fprintf(stderr, "unknown query predicate %s\n",
                   pred_name.c_str());
      return 1;
    }
    for (AtomId a = 0; a < r.grounding.atoms.num_atoms(); ++a) {
      if (r.grounding.atoms.atom(a).pred != pid.value()) continue;
      if (args.marginal) {
        out += StrFormat("%.4f\t", r.marginals[a]);
        out += r.grounding.atoms.AtomName(program, a);
        out += "\n";
      } else if (a < r.truth.size() && r.truth[a] != 0) {
        out += r.grounding.atoms.AtomName(program, a);
        out += "\n";
      }
    }
  }
  return EmitOutput(args, out);
}
