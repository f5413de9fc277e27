// net_fleet: a loopback net::Server in this process (its default two
// workers, volatile sessions) and a fleet of two connections, each owning
// one tiny relational-classification session and driven by its own
// generator thread.
//
// Set-up is server start + connect + OpenSession for every connection,
// made several times; every repetition is a sample and the last fleet
// serves the load.
//
// Load is open loop: a ladder of fixed offered rates from light load to
// past saturation. Each request has a due time on the schedule; the
// generator sends it at (or, when behind, after) that time without
// waiting for earlier replies, so sends are pipelined. Replies are
// timed from when the request was due, not from when it went out, so a
// stalled generator cannot hide queueing ("coordinated omission"). The
// generator holds at most kMaxOutstanding unanswered requests per
// connection, which keeps the server's queue below its shedding bound;
// a backlog shows up as lateness and latency instead of shed requests.
// Requests mix writes (ApplyDelta, relabeling one paper) and reads
// (QueryMap of `cat`).
//
// Output checks: every reply is the expected type and every write's
// sequence number follows the previous one. In part 0 (Args::part) each
// session's final cost (queried over the wire) also equals an in-process
// InferenceSession twin fed the same writes.
//
// run.py computes latencies, lateness, percentiles and net_max_rps from
// the per-request records this file reports (benchstats.py).

#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <barrier>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>

#include "common.h"
#include "datagen/datasets.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "serve/inference_session.h"
#include "spans.h"
#include "util/rng.h"

namespace perfbench {

using namespace tuffy;

namespace {

constexpr int kConnections = 2;
constexpr uint64_t kFlips = 60000;
constexpr int kSetupReps = 25;
constexpr size_t kMaxOutstanding = 24;
/// Share of requests that are writes. An assumption, not measured
/// traffic: nothing in the repository or the paper gives a read/write
/// mix (perfbench/README.md, "Assumed traffic mix").
constexpr double kWriteShare = 0.3;

/// A load step: offered rate (requests per second over the whole
/// fleet), the share of --seconds it lasts, and its kind. Only "ladder"
/// steps feed the latency metrics; the metrics registry is off during a
/// "metrics_off" step.
struct Step {
  double rate;
  double share;
  const char* kind = "ladder";
};
/// The first step is the reference rate of the gated latency metric
/// (op_p50_ms) and gets most of the time: the host's speed wanders over
/// seconds, and only a long window averages that out. The last step is
/// past saturation.
constexpr Step kLadder[] = {
    {200, 0.50}, {400, 0.07}, {800, 0.07}, {1600, 0.07}, {3200, 0.07},
};

/// The steps of one run: a short warm-up at the reference rate, then the
/// ladder. The traced run puts the reference rate with the metrics
/// registry off between them — the baseline of obs.trace_overhead_frac,
/// compared with the reference step right after it.
std::vector<Step> MakeSteps(bool trace) {
  std::vector<Step> steps = {{kLadder[0].rate, 0.04, "warmup"}};
  if (trace) steps.push_back({kLadder[0].rate, 0.2, "metrics_off"});
  steps.insert(steps.end(), std::begin(kLadder), std::end(kLadder));
  return steps;
}

/// bench_net_serving's scale, the same dataset for every seed: on 24
/// papers the MAP cost of a generated graph varies by tens of percent
/// from generator seed to generator seed, which would drown the cost
/// metric. Generator seed 9 rather than bench_net_serving's 1, whose
/// labels agree so well that the MAP cost is 0.
Result<Dataset> MakeTinyRc() {
  RcParams p;
  p.num_clusters = 4;
  p.papers_per_cluster = 6;
  p.num_categories = 6;
  p.labeled_fraction = 0.6;
  p.seed = 9;
  return MakeRcDataset(p);
}

SessionOptions MakeSessionOptions(uint64_t seed) {
  SessionOptions opts;
  opts.total_flips = kFlips;
  opts.seed = seed;
  return opts;
}

struct PlannedRequest {
  bool write = false;
  EvidenceDelta delta;  // writes only
};

/// Per-connection request plan: for every ladder step, the requests in
/// schedule order. Writes come in pairs: one relabels a labeled paper,
/// the next restores that label, so every session ends on its initial
/// evidence and the final cost does not depend on the stream.
std::vector<std::vector<PlannedRequest>> MakePlan(
    const Dataset& ds, const std::vector<Step>& steps, uint64_t seed, int conn,
    double seconds) {
  Rng rng(DeriveSeed(seed, 0x666c656574ull + static_cast<uint64_t>(conn)));
  const PredicateId cat = ds.program.FindPredicate("cat").value();
  const std::vector<ConstantId>& categories =
      ds.program.symbols().Domain("category");
  std::vector<GroundAtom> labels;
  for (const auto& [atom, truth] : ds.evidence.entries()) {
    if (atom.pred == cat && truth) labels.push_back(atom);
  }
  std::sort(labels.begin(), labels.end(),
            [](const GroundAtom& a, const GroundAtom& b) {
              return a.args < b.args;
            });
  std::vector<std::vector<PlannedRequest>> plan;
  GroundAtom original, relabeled;
  bool restore_next = false;
  PlannedRequest* unpaired = nullptr;
  for (const Step& step : steps) {
    const int n = std::max(
        1, static_cast<int>(step.rate / kConnections * step.share * seconds));
    std::vector<PlannedRequest> reqs(n);
    for (PlannedRequest& req : reqs) {
      req.write = rng.NextDouble() < kWriteShare;
      if (!req.write) continue;
      if (!restore_next) {
        original = labels[rng.Uniform(labels.size())];
        relabeled = original;
        do {
          relabeled.args[1] = categories[rng.Uniform(categories.size())];
        } while (relabeled.args[1] == original.args[1]);
      }
      req.delta.Retract(restore_next ? relabeled : original);
      req.delta.Assert(restore_next ? original : relabeled, true);
      unpaired = restore_next ? nullptr : &req;
      restore_next = !restore_next;
    }
    plan.push_back(std::move(reqs));
  }
  if (unpaired != nullptr) {
    // An unpaired relabel is left: the plan's last request restores it,
    // or becomes a read if it is that relabel.
    PlannedRequest& last = plan.back().back();
    last.delta = EvidenceDelta();
    last.write = &last != unpaired;
    if (last.write) {
      last.delta.Retract(relabeled);
      last.delta.Assert(original, true);
    }
  }
  return plan;
}

/// One request as observed by its generator. Times are monotonic ns.
struct Record {
  int step = 0;
  bool write = false;
  uint64_t due_ns = 0;
  uint64_t sent_ns = 0;
  uint64_t done_ns = 0;
};

struct ConnResult {
  std::vector<Record> records;
  uint64_t shed = 0;
  uint64_t bad_replies = 0;
  std::string transport_error;
};

/// Drives one connection through the ladder (runs on its own thread).
class Generator {
 public:
  Generator(Client* client, std::string session, const std::vector<Step>* steps,
            const std::vector<std::vector<PlannedRequest>>* plan,
            std::barrier<std::function<void()>>* step_barrier)
      : client_(client),
        session_(std::move(session)),
        steps_(steps),
        plan_(plan),
        barrier_(step_barrier) {}

  ConnResult Run(uint64_t first_request_id) {
    next_id_ = first_request_id;
    // Every step starts on all connections at once; a connection that
    // failed keeps arriving at the barrier so the others are not stuck.
    bool ok = true;
    for (size_t s = 0; s < plan_->size(); ++s) {
      barrier_->arrive_and_wait();
      if (ok) ok = RunStep(static_cast<int>(s));
    }
    return std::move(result_);
  }

 private:
  bool RunStep(int s) {
    const std::vector<PlannedRequest>& reqs = (*plan_)[s];
    const double rate = (*steps_)[s].rate / kConnections;
    const uint64_t interval_ns = static_cast<uint64_t>(1e9 / rate);
    const uint64_t start = NowNs();
    for (size_t k = 0; k < reqs.size(); ++k) {
      const uint64_t due = start + k * interval_ns;
      while (true) {
        const uint64_t now = NowNs();
        const bool capped = pending_.size() >= kMaxOutstanding;
        if (now >= due && !capped) break;
        const uint64_t wait_ns = capped ? 50000000 : due - now;
        if (!Drain(wait_ns)) return false;
      }
      NetRequest req;
      req.request_id = next_id_++;
      req.session = session_;
      if (reqs[k].write) {
        req.type = MsgType::kApplyDelta;
        req.delta = reqs[k].delta;
      } else {
        req.type = MsgType::kQueryMap;
        req.predicate = "cat";
      }
      Record rec;
      rec.step = s;
      rec.write = reqs[k].write;
      rec.due_ns = due;
      auto sent = client_->Send(std::move(req));
      rec.sent_ns = NowNs();
      if (!sent.ok()) {
        result_.transport_error = sent.status().ToString();
        return false;
      }
      pending_[sent.value()] = result_.records.size();
      result_.records.push_back(rec);
    }
    while (!pending_.empty()) {
      if (!Drain(50000000)) return false;
    }
    return true;
  }

  /// Waits up to `wait_ns` for reply bytes and consumes every complete
  /// reply frame. False on a transport error, which is recorded.
  bool Drain(uint64_t wait_ns) {
    pollfd pfd{client_->fd(), POLLIN, 0};
    timespec ts{static_cast<time_t>(wait_ns / 1000000000),
                static_cast<long>(wait_ns % 1000000000)};
    const int rc = ::ppoll(&pfd, 1, &ts, nullptr);
    if (rc == 0 || (rc < 0 && errno == EINTR)) return true;
    if (rc < 0) {
      result_.transport_error = std::string("poll: ") + std::strerror(errno);
      return false;
    }
    char buf[65536];
    while (true) {
      const ssize_t n = ::recv(client_->fd(), buf, sizeof(buf), MSG_DONTWAIT);
      if (n > 0) {
        in_.append(buf, static_cast<size_t>(n));
        continue;
      }
      if (n == 0) {
        result_.transport_error = "server closed the connection";
        return false;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      result_.transport_error = std::string("recv: ") + std::strerror(errno);
      return false;
    }
    if ((pfd.revents & (POLLERR | POLLNVAL)) != 0) {
      result_.transport_error = "socket error";
      return false;
    }
    const uint64_t now = NowNs();
    while (true) {
      std::string payload;
      size_t consumed = 0;
      const FrameDecode fd = TryDecodeFrame(in_.data(), in_.size(),
                                            kDefaultMaxFrameBytes, &payload,
                                            &consumed);
      if (fd == FrameDecode::kNeedMore) return true;
      if (fd != FrameDecode::kFrame) {
        result_.transport_error = "corrupt reply frame";
        return false;
      }
      in_.erase(0, consumed);
      auto resp = DecodeResponse(payload);
      if (!resp.ok()) {
        result_.transport_error = resp.status().ToString();
        return false;
      }
      auto it = pending_.find(resp.value().request_id);
      if (it == pending_.end()) {
        ++result_.bad_replies;
        continue;
      }
      Record& rec = result_.records[it->second];
      rec.done_ns = now;
      pending_.erase(it);
      const NetResponse& r = resp.value();
      if (r.type == MsgType::kError) {
        if (r.error == WireError::kOverloaded) {
          ++result_.shed;
        } else {
          ++result_.bad_replies;
        }
      } else if (rec.write) {
        // Pipelined writes of one session apply in send order.
        if (r.type != MsgType::kDeltaReply || r.seq != last_seq_ + 1) {
          ++result_.bad_replies;
        }
        last_seq_ = r.seq;
      } else if (r.type != MsgType::kMapReply) {
        ++result_.bad_replies;
      }
    }
  }

  Client* client_;
  std::string session_;
  const std::vector<Step>* steps_;
  const std::vector<std::vector<PlannedRequest>>* plan_;
  std::barrier<std::function<void()>>* barrier_;
  ConnResult result_;
  std::unordered_map<uint64_t, size_t> pending_;
  std::string in_;
  uint64_t next_id_ = 1;
  uint64_t last_seq_ = 0;
};

/// A started server with every connection's session open.
struct Fleet {
  std::unique_ptr<Server> server;
  std::vector<std::unique_ptr<Client>> clients;

  /// Disconnects the clients, then stops the server.
  void Stop() {
    clients.clear();
    server.reset();
  }
};

Result<Fleet> StartFleet(const Dataset& ds, uint64_t seed) {
  Fleet fleet;
  ServerOptions opts;
  opts.session = MakeSessionOptions(seed);
  fleet.server = std::make_unique<Server>(ds.program, ds.evidence, opts);
  TUFFY_RETURN_IF_ERROR(fleet.server->Start());
  for (int c = 0; c < kConnections; ++c) {
    auto client = std::make_unique<Client>();
    TUFFY_RETURN_IF_ERROR(client->Connect("127.0.0.1", fleet.server->port()));
    TUFFY_ASSIGN_OR_RETURN(NetResponse open,
                           client->OpenSession("fleet-" + std::to_string(c)));
    if (open.type != MsgType::kOpenReply) {
      return Status::Internal("OpenSession refused: " + open.message);
    }
    fleet.clients.push_back(std::move(client));
  }
  return fleet;
}

}  // namespace

bool RunNetWorkload(const Args& args, Report* report) {
  auto ds_or = MakeTinyRc();
  if (!ds_or.ok()) {
    std::fprintf(stderr, "datagen failed: %s\n",
                 ds_or.status().ToString().c_str());
    return false;
  }
  const Dataset ds = ds_or.TakeValue();

  // ---- set-up: server start + opens, repeated; keep the last fleet.
  Fleet fleet;
  std::vector<double> setup;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    fleet.Stop();
    const uint64_t t0 = NowNs();
    auto started = StartFleet(ds, args.seed);
    setup.push_back(Seconds(NowNs() - t0));
    report->attempted += kConnections;
    if (!started.ok()) {
      report->failed += kConnections;
      std::fprintf(stderr, "fleet start: %s\n",
                   started.status().ToString().c_str());
      return false;
    }
    fleet = started.TakeValue();
  }
  report->samples["setup_s"] = setup;

  const std::vector<Step> steps = MakeSteps(args.trace);
  std::vector<std::vector<std::vector<PlannedRequest>>> plans;
  for (int c = 0; c < kConnections; ++c) {
    plans.push_back(MakePlan(ds, steps, args.seed, c, args.seconds));
  }

  // ---- open-loop load.
  std::vector<ConnResult> results(kConnections);
  const uint64_t load_start = NowNs();
  {
    size_t next_step = 0;
    std::barrier<std::function<void()>> step_barrier(kConnections, [&] {
      if (next_step < steps.size()) {
        const std::string kind = steps[next_step++].kind;
        SetMetricsEnabled(kind != "metrics_off");
      }
    });
    std::vector<std::thread> threads;
    for (int c = 0; c < kConnections; ++c) {
      threads.emplace_back([&, c] {
        Generator gen(fleet.clients[c].get(), "fleet-" + std::to_string(c),
                      &steps, &plans[c], &step_barrier);
        results[c] = gen.Run(1000);
      });
    }
    for (std::thread& t : threads) t.join();
    SetMetricsEnabled(true);
  }
  const ServerMetrics server_metrics = fleet.server->metrics();

  // Per-request records for run.py: [conn, step, write, due, sent, done]
  // in microseconds since the load started.
  std::string rows = "[";
  uint64_t shed = 0;
  bool transport_ok = true;
  uint64_t bad_replies = 0;
  SpanRecorder rec;
  for (int c = 0; c < kConnections; ++c) {
    const ConnResult& r = results[c];
    shed += r.shed;
    bad_replies += r.bad_replies;
    if (!r.transport_error.empty()) {
      transport_ok = false;
      std::fprintf(stderr, "connection %d: %s\n", c,
                   r.transport_error.c_str());
    }
    for (size_t i = 0; i < r.records.size(); ++i) {
      const Record& x = r.records[i];
      auto us = [&](uint64_t ns) {
        return JsonNumber(static_cast<double>(ns - load_start) / 1e3);
      };
      if (rows.size() > 1) rows += ',';
      rows += "[" + std::to_string(c) + "," + std::to_string(x.step) + "," +
              (x.write ? "1" : "0") + "," + us(x.due_ns) + "," +
              us(x.sent_ns) + "," + (x.done_ns ? us(x.done_ns) : "null") +
              "]";
      if (args.trace && x.done_ns != 0) {
        rec.Add(x.write ? "net.write" : "net.read", x.due_ns, x.done_ns,
                static_cast<uint64_t>(c) << 32 | i);
      }
    }
    report->attempted += r.records.size();
  }
  report->failed += shed + bad_replies;
  report->sections["net_requests"] = rows + "]";
  std::string step_rows = "[";
  for (size_t s = 0; s < steps.size(); ++s) {
    uint64_t sent = 0;
    for (const auto& plan : plans) sent += plan[s].size();
    step_rows += std::string(s > 0 ? "," : "") +
             Json()
                 .Num("rate", steps[s].rate)
                 .Str("kind", steps[s].kind)
                 .Int("sent", sent)
                 .Render();
  }
  report->sections["net_steps"] = step_rows + "]";
  report->AddCheck("replies_ok", transport_ok && bad_replies == 0,
                   std::to_string(bad_replies) + " unexpected replies");
  report->values["net.shed"] = static_cast<double>(shed);
  report->values["net.queue_peak"] =
      static_cast<double>(server_metrics.queue_peak);
  report->values["net.bytes_per_req"] =
      server_metrics.requests > 0
          ? static_cast<double>(server_metrics.bytes_in +
                                server_metrics.bytes_out) /
                server_metrics.requests
          : 0.0;

  // ---- output check: each session against an in-process twin (part 0).
  double total_cost = 0.0;
  std::vector<double> twin_ms;
  report->values["peak_rss_mb"] = PeakRssMb();
  for (int c = 0; c < kConnections; ++c) {
    auto wire = fleet.clients[c]->QueryMap("fleet-" + std::to_string(c));
    const double wire_cost = wire.ok() ? wire.value().map_cost : -1.0;
    total_cost += wire_cost;
    if (args.part != 0) continue;
    InferenceSession twin(ds.program, MakeSessionOptions(args.seed));
    Status st = twin.Open(ds.evidence);
    bool twin_ok = st.ok();
    for (const auto& step : plans[c]) {
      for (const PlannedRequest& req : step) {
        if (!req.write || !twin_ok) continue;
        const uint64_t t0 = NowNs();
        twin_ok = twin.ApplyDelta(req.delta).ok();
        twin_ms.push_back(Millis(NowNs() - t0));
      }
    }
    report->AddCheck("session_" + std::to_string(c) + "_equals_twin",
                     wire.ok() && twin_ok && twin.map_cost() == wire_cost,
                     "wire " + CostText(wire_cost) + " vs in-process " +
                         CostText(twin.map_cost()));
  }
  report->values["map_cost"] = total_cost;
  report->samples["inproc_write_ms"] = twin_ms;
  fleet.Stop();

  if (args.trace) {
    const std::string trace_path = args.work_dir + "/trace-net_fleet.json";
    if (rec.WriteChromeTrace(trace_path)) {
      std::fprintf(stderr, "trace written to %s\n", trace_path.c_str());
    }
  }
  return true;
}

}  // namespace perfbench
