#include <gtest/gtest.h>

#include <stdlib.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "durability/serialize.h"
#include "durability/snapshot.h"
#include "mln/parser.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace tuffy {
namespace {

std::string MakeTempDir(const std::string& tag) {
  std::string templ = ::testing::TempDir() + "net_" + tag + "_XXXXXX";
  EXPECT_NE(::mkdtemp(templ.data()), nullptr);
  return templ;
}

MlnProgram LinkProgram() {
  auto r = ParseProgram(
      "*link(node, node)\n"
      "label(node, cls)\n"
      "2 link(x, y), label(x, c) => label(y, c)\n");
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  MlnProgram program = r.TakeValue();
  program.symbols().Intern("A", "cls");
  program.symbols().Intern("B", "cls");
  for (int i = 0; i < 6; ++i) {
    program.symbols().Intern("n" + std::to_string(i), "node");
  }
  return program;
}

GroundAtom Atom(const MlnProgram& program, const std::string& pred,
                const std::vector<std::string>& args) {
  GroundAtom atom;
  auto pid = program.FindPredicate(pred);
  EXPECT_TRUE(pid.ok());
  atom.pred = pid.value();
  for (const std::string& a : args) {
    ConstantId c = program.symbols().Find(a);
    EXPECT_GE(c, 0) << "unknown constant " << a;
    atom.args.push_back(c);
  }
  return atom;
}

/// True when the call reached the server and got a reply of `type`.
bool Replied(const Result<NetResponse>& reply, MsgType type) {
  return reply.ok() && reply.value().type == type;
}

/// One server-wide kStats figure (-1 when the reply lacks it).
double StatValue(const Result<NetResponse>& reply, const std::string& key) {
  EXPECT_TRUE(reply.ok());
  if (!reply.ok()) return -1;
  for (const auto& [k, value] : reply.value().stats) {
    if (k == key) return value;
  }
  return -1;
}

/// Turns the registry's kill switch off for one scope.
struct MetricsOff {
  MetricsOff() { SetMetricsEnabled(false); }
  ~MetricsOff() { SetMetricsEnabled(true); }
};

class NetTest : public ::testing::Test {
 protected:
  void StartServer(ServerOptions opts = ServerOptions{}) {
    program_ = LinkProgram();
    evidence_.Add(Atom(program_, "link", {"n0", "n1"}), true);
    evidence_.Add(Atom(program_, "link", {"n2", "n3"}), true);
    evidence_.Add(Atom(program_, "label", {"n0", "A"}), true);
    evidence_.Add(Atom(program_, "label", {"n2", "B"}), true);
    if (opts.session.total_flips == SessionOptions{}.total_flips) {
      opts.session.total_flips = 20000;
      opts.session.seed = 11;
    }
    server_ = std::make_unique<Server>(program_, evidence_, opts);
    ASSERT_TRUE(server_->Start().ok());
  }

  Client MakeClient() {
    Client client;
    EXPECT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
    return client;
  }

  EvidenceDelta ToggleDelta(int i) {
    EvidenceDelta delta;
    if (i % 2 == 0) {
      delta.Assert(Atom(program_, "link", {"n1", "n2"}), true);
    } else {
      delta.Retract(Atom(program_, "link", {"n1", "n2"}));
    }
    return delta;
  }

  MlnProgram program_;
  EvidenceDb evidence_;
  std::unique_ptr<Server> server_;
};

// ---------------------------------------------------------------- codec

TEST(NetProtocolTest, DeltaRequestRoundTrips) {
  MlnProgram program = LinkProgram();
  NetRequest req;
  req.type = MsgType::kApplyDelta;
  req.request_id = 0x1122334455667788ull;
  req.session = "sess-a";
  req.delta.Assert(Atom(program, "link", {"n0", "n1"}), true);
  req.delta.Assert(Atom(program, "label", {"n2", "B"}), false);
  req.delta.Retract(Atom(program, "link", {"n2", "n3"}));

  auto decoded = DecodeRequest(EncodeRequest(req));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const NetRequest& out = decoded.value();
  EXPECT_EQ(out.type, req.type);
  EXPECT_EQ(out.request_id, req.request_id);
  EXPECT_EQ(out.session, req.session);
  ASSERT_EQ(out.delta.assertions.size(), 2u);
  EXPECT_EQ(out.delta.assertions[0].first, req.delta.assertions[0].first);
  EXPECT_TRUE(out.delta.assertions[0].second);
  EXPECT_FALSE(out.delta.assertions[1].second);
  ASSERT_EQ(out.delta.retractions.size(), 1u);
  EXPECT_EQ(out.delta.retractions[0], req.delta.retractions[0]);
}

TEST(NetProtocolTest, OpenAndQueryRequestsRoundTrip) {
  NetRequest open;
  open.type = MsgType::kOpenSession;
  open.request_id = 5;
  open.session = "s";
  open.program_fp = 0xdeadbeefcafef00dull;
  auto open_out = DecodeRequest(EncodeRequest(open));
  ASSERT_TRUE(open_out.ok());
  EXPECT_EQ(open_out.value().program_fp, open.program_fp);

  NetRequest query;
  query.type = MsgType::kQueryMarginals;
  query.request_id = 6;
  query.session = "s";
  query.predicate = "label";
  auto query_out = DecodeRequest(EncodeRequest(query));
  ASSERT_TRUE(query_out.ok());
  EXPECT_EQ(query_out.value().predicate, "label");
}

TEST(NetProtocolTest, DeltaReplyRoundTrips) {
  NetResponse resp;
  resp.type = MsgType::kDeltaReply;
  resp.request_id = 42;
  resp.seq = 7;
  resp.no_op = true;
  resp.components_dirty = 2;
  resp.components_total = 9;
  resp.flips = 1234;
  resp.map_cost = 3.25;

  auto decoded = DecodeResponse(EncodeResponse(resp));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const NetResponse& out = decoded.value();
  EXPECT_EQ(out.type, resp.type);
  EXPECT_EQ(out.request_id, 42u);
  EXPECT_EQ(out.seq, 7u);
  EXPECT_TRUE(out.no_op);
  EXPECT_EQ(out.components_dirty, 2u);
  EXPECT_EQ(out.components_total, 9u);
  EXPECT_EQ(out.flips, 1234u);
  EXPECT_EQ(out.map_cost, 3.25);
}

TEST(NetProtocolTest, MarginalsAndStatsRepliesRoundTrip) {
  MlnProgram program = LinkProgram();
  NetResponse marg;
  marg.type = MsgType::kMarginalsReply;
  marg.request_id = 43;
  marg.marginals.emplace_back(Atom(program, "label", {"n1", "B"}), 0.75);
  auto marg_out = DecodeResponse(EncodeResponse(marg));
  ASSERT_TRUE(marg_out.ok());
  ASSERT_EQ(marg_out.value().marginals.size(), 1u);
  EXPECT_EQ(marg_out.value().marginals[0].first, marg.marginals[0].first);
  EXPECT_EQ(marg_out.value().marginals[0].second, 0.75);

  NetResponse stats;
  stats.type = MsgType::kStatsReply;
  stats.request_id = 44;
  stats.stats.emplace_back("flips", 123.0);
  auto stats_out = DecodeResponse(EncodeResponse(stats));
  ASSERT_TRUE(stats_out.ok());
  ASSERT_EQ(stats_out.value().stats.size(), 1u);
  EXPECT_EQ(stats_out.value().stats[0].first, "flips");
  EXPECT_EQ(stats_out.value().stats[0].second, 123.0);
}

TEST(NetProtocolTest, FrameDecodeHandlesPartialCorruptAndOversized) {
  const std::string frame = EncodeFrame("hello frame");
  std::string payload;
  size_t consumed = 0;

  // Every strict prefix wants more bytes.
  for (size_t n = 0; n < frame.size(); ++n) {
    EXPECT_EQ(TryDecodeFrame(frame.data(), n, kDefaultMaxFrameBytes,
                             &payload, &consumed),
              FrameDecode::kNeedMore);
  }
  ASSERT_EQ(TryDecodeFrame(frame.data(), frame.size(), kDefaultMaxFrameBytes,
                           &payload, &consumed),
            FrameDecode::kFrame);
  EXPECT_EQ(payload, "hello frame");
  EXPECT_EQ(consumed, frame.size());

  // Flip one payload byte: crc must catch it.
  std::string corrupt = frame;
  corrupt[kFrameHeaderBytes] ^= 0x40;
  EXPECT_EQ(TryDecodeFrame(corrupt.data(), corrupt.size(),
                           kDefaultMaxFrameBytes, &payload, &consumed),
            FrameDecode::kBadCrc);

  // A length past the cap is rejected from the header alone, before any
  // payload arrives.
  EXPECT_EQ(TryDecodeFrame(frame.data(), frame.size(), /*max_payload=*/4,
                           &payload, &consumed),
            FrameDecode::kTooLarge);
}

TEST(NetProtocolTest, ForgedCountsFailDecodeInsteadOfAllocating) {
  NetRequest req;
  req.type = MsgType::kApplyDelta;
  req.request_id = 9;
  req.session = "s";
  std::string payload = EncodeRequest(req);
  // The assertion count lives right after tag + id + session; forge a
  // huge value into whatever u32 follows the session string and the
  // decode must fail cleanly rather than trust it.
  const size_t count_off = 1 + 8 + 4 + req.session.size();
  ASSERT_LE(count_off + 4, payload.size());
  const uint32_t forged = 0x7fffffff;
  std::memcpy(&payload[count_off], &forged, sizeof(forged));
  EXPECT_FALSE(DecodeRequest(payload).ok());
}

// Seeded protocol fuzz: random bytes, bit-flipped mutations of valid
// frames, and truncations must all come back as a clean verdict — no
// crash, no allocation sized by attacker-controlled bytes. The frame
// CRC catches most mutations; the ones that slip through (header-only
// damage) land in the codecs, which bounds-check every count against
// remaining() before allocating.
TEST(NetProtocolTest, FuzzMutatedFramesAreRejectedWithoutCrashing) {
  MlnProgram program = LinkProgram();

  // Valid-payload corpus covering every message family.
  std::vector<std::string> payloads;
  {
    NetRequest r;
    r.type = MsgType::kApplyDelta;
    r.request_id = 1;
    r.session = "fuzz";
    r.delta.Assert(Atom(program, "link", {"n0", "n1"}), true);
    r.delta.Retract(Atom(program, "link", {"n2", "n3"}));
    payloads.push_back(EncodeRequest(r));
  }
  {
    NetRequest r;
    r.type = MsgType::kOpenSession;
    r.request_id = 2;
    r.session = "fuzz";
    r.program_fp = 0x1234567890abcdefull;
    payloads.push_back(EncodeRequest(r));
  }
  {
    NetRequest r;
    r.type = MsgType::kQueryMarginals;
    r.request_id = 3;
    r.session = "fuzz";
    r.predicate = "label";
    payloads.push_back(EncodeRequest(r));
  }
  {
    NetRequest r;
    r.type = MsgType::kStats;
    r.request_id = 4;
    payloads.push_back(EncodeRequest(r));
  }
  {
    NetResponse r;
    r.type = MsgType::kDeltaReply;
    r.request_id = 5;
    r.seq = 9;
    r.map_cost = 1.5;
    payloads.push_back(EncodeResponse(r));
  }
  {
    NetResponse r;
    r.type = MsgType::kMarginalsReply;
    r.request_id = 6;
    r.marginals.emplace_back(Atom(program, "label", {"n1", "B"}), 0.75);
    payloads.push_back(EncodeResponse(r));
  }
  {
    NetResponse r;
    r.type = MsgType::kStatsReply;
    r.request_id = 7;
    r.stats.emplace_back("flips", 123.0);
    payloads.push_back(EncodeResponse(r));
  }
  {
    NetResponse r;
    r.type = MsgType::kError;
    r.request_id = 8;
    r.error = WireError::kOverloaded;
    r.retryable = true;
    r.message = "busy";
    payloads.push_back(EncodeResponse(r));
  }
  std::vector<std::string> frames;
  for (const std::string& p : payloads) frames.push_back(EncodeFrame(p));

  Rng rng(20260808);
  std::string payload;
  size_t consumed = 0;
  // Every outcome is acceptable except a crash; a successfully decoded
  // frame additionally must respect the payload cap and feed the codecs
  // without incident.
  auto poke = [&](const std::string& bytes) {
    FrameDecode d = TryDecodeFrame(bytes.data(), bytes.size(),
                                   kDefaultMaxFrameBytes, &payload, &consumed);
    if (d == FrameDecode::kFrame) {
      ASSERT_LE(payload.size(), kDefaultMaxFrameBytes);
      ASSERT_LE(consumed, bytes.size());
      (void)DecodeRequest(payload);
      (void)DecodeResponse(payload);
      (void)PeekRequestId(payload);
    }
  };

  constexpr int kIters = 10000;
  for (int it = 0; it < kIters; ++it) {
    switch (rng.Uniform(4)) {
      case 0: {  // pure random bytes, straight into framing and codecs
        std::string junk(1 + rng.Uniform(96), '\0');
        for (char& c : junk) c = static_cast<char>(rng.Uniform(256));
        poke(junk);
        (void)DecodeRequest(junk);
        (void)DecodeResponse(junk);
        break;
      }
      case 1: {  // bit-flipped valid frame
        std::string f = frames[rng.Uniform(frames.size())];
        const int flips = 1 + static_cast<int>(rng.Uniform(4));
        for (int k = 0; k < flips; ++k) {
          f[rng.Uniform(f.size())] ^= static_cast<char>(1u << rng.Uniform(8));
        }
        poke(f);
        break;
      }
      case 2: {  // truncated or zero-padded frame
        std::string f = frames[rng.Uniform(frames.size())];
        f.resize(rng.Uniform(f.size() + 8));
        poke(f);
        break;
      }
      case 3: {  // bit-flipped bare payload, bypassing the CRC shield
        std::string p = payloads[rng.Uniform(payloads.size())];
        const int flips = 1 + static_cast<int>(rng.Uniform(4));
        for (int k = 0; k < flips; ++k) {
          p[rng.Uniform(p.size())] ^= static_cast<char>(1u << rng.Uniform(8));
        }
        (void)DecodeRequest(p);
        (void)DecodeResponse(p);
        (void)PeekRequestId(p);
        break;
      }
    }
  }

  // A tiny payload cap must veto every corpus frame from the header
  // alone — the length field never sizes an allocation first.
  for (const std::string& f : frames) {
    EXPECT_NE(TryDecodeFrame(f.data(), f.size(), /*max_payload=*/4, &payload,
                             &consumed),
              FrameDecode::kFrame);
  }

  // BinaryReader primitives over random bytes: every read past the end
  // zero-fills and latches the fail flag.
  for (int it = 0; it < 2000; ++it) {
    std::string junk(rng.Uniform(33), '\0');
    for (char& c : junk) c = static_cast<char>(rng.Uniform(256));
    BinaryReader reader(junk.data(), junk.size());
    // Every read consumes at least one byte while ok, so 64 reads always
    // overrun a <= 32-byte buffer.
    for (int k = 0; k < 64; ++k) {
      switch (rng.Uniform(6)) {
        case 0: reader.U8(); break;
        case 1: reader.U16(); break;
        case 2: reader.U32(); break;
        case 3: reader.U64(); break;
        case 4: reader.I64(); break;
        default: reader.F64(); break;
      }
    }
    EXPECT_FALSE(reader.ok());
    EXPECT_EQ(reader.U64(), 0u);
    EXPECT_FALSE(reader.Exhausted());
  }
}

TEST(NetProtocolTest, PeekRequestIdReadsIdFromAnyPayload) {
  NetRequest req;
  req.type = MsgType::kStats;
  req.request_id = 0xabcdef;
  EXPECT_EQ(PeekRequestId(EncodeRequest(req)), 0xabcdefull);
  EXPECT_EQ(PeekRequestId("short"), 0u);
}

TEST(HistogramTest, PercentilesLandInTheRightBucketRange) {
  Histogram h;
  for (int i = 0; i < 900; ++i) h.RecordAlways(1e-3);   // 1 ms
  for (int i = 0; i < 100; ++i) h.RecordAlways(100e-3);  // 100 ms
  EXPECT_EQ(h.count(), 1000u);
  // p50 sits in the 1ms bucket (512..1024 us), p99 in the 100ms one.
  EXPECT_GE(h.Percentile(0.50), 0.5e-3);
  EXPECT_LE(h.Percentile(0.50), 2e-3);
  EXPECT_GE(h.Percentile(0.99), 64e-3);
  EXPECT_LE(h.Percentile(0.99), 200e-3);

  // Snapshots subtract, which is how the server baselines the
  // process-global registry histogram at Start().
  HistogramSnapshot before = h.Snapshot();
  h.RecordAlways(1e-3);
  HistogramSnapshot diff = h.Snapshot() - before;
  EXPECT_EQ(diff.count, 1u);
}

TEST(NetProtocolTest, MetricsAndTraceMessagesRoundTrip) {
  NetRequest metrics;
  metrics.type = MsgType::kMetrics;
  metrics.request_id = 9;
  auto metrics_out = DecodeRequest(EncodeRequest(metrics));
  ASSERT_TRUE(metrics_out.ok());
  EXPECT_EQ(metrics_out.value().type, MsgType::kMetrics);

  NetRequest trace;
  trace.type = MsgType::kTrace;
  trace.request_id = 10;
  trace.session = "s1";
  auto trace_out = DecodeRequest(EncodeRequest(trace));
  ASSERT_TRUE(trace_out.ok());
  EXPECT_EQ(trace_out.value().session, "s1");

  NetResponse reply;
  reply.type = MsgType::kMetricsReply;
  reply.request_id = 9;
  reply.message = "serve.delta.count 3\n";
  auto reply_out = DecodeResponse(EncodeResponse(reply));
  ASSERT_TRUE(reply_out.ok());
  EXPECT_EQ(reply_out.value().message, reply.message);

  reply.type = MsgType::kTraceReply;
  reply.message = "apply_delta 1.2 ms\n";
  auto trace_reply_out = DecodeResponse(EncodeResponse(reply));
  ASSERT_TRUE(trace_reply_out.ok());
  EXPECT_EQ(trace_reply_out.value().type, MsgType::kTraceReply);
  EXPECT_EQ(trace_reply_out.value().message, reply.message);
}

// --------------------------------------------------------------- server

TEST_F(NetTest, OpenDeltaQueryCloseRoundTrip) {
  StartServer();
  Client client = MakeClient();

  auto open = client.OpenSession("s1", ProgramFingerprint(program_));
  ASSERT_TRUE(open.ok()) << open.status().ToString();
  ASSERT_EQ(open.value().type, MsgType::kOpenReply) << open.value().message;
  EXPECT_FALSE(open.value().attached);
  EXPECT_GT(open.value().num_atoms, 0u);

  auto delta = client.ApplyDelta("s1", ToggleDelta(0));
  ASSERT_TRUE(delta.ok());
  ASSERT_EQ(delta.value().type, MsgType::kDeltaReply)
      << delta.value().message;
  EXPECT_EQ(delta.value().seq, 1u);
  EXPECT_FALSE(delta.value().no_op);

  auto map = client.QueryMap("s1", "label");
  ASSERT_TRUE(map.ok());
  ASSERT_EQ(map.value().type, MsgType::kMapReply) << map.value().message;
  EXPECT_EQ(map.value().map_cost, delta.value().map_cost);

  auto stats = client.Stats("s1");
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(stats.value().type, MsgType::kStatsReply);
  bool saw_deltas = false;
  for (const auto& [key, value] : stats.value().stats) {
    if (key == "deltas_applied") {
      saw_deltas = true;
      EXPECT_EQ(value, 1.0);
    }
  }
  EXPECT_TRUE(saw_deltas);

  auto closed = client.CloseSession("s1");
  ASSERT_TRUE(closed.ok());
  EXPECT_EQ(closed.value().type, MsgType::kCloseReply);

  // Gone now.
  auto map2 = client.QueryMap("s1");
  ASSERT_TRUE(map2.ok());
  EXPECT_EQ(map2.value().type, MsgType::kError);
  EXPECT_EQ(map2.value().error, WireError::kNotFound);
}

TEST_F(NetTest, MetricsAndTraceOverTheWire) {
  StartServer();
  Client client = MakeClient();
  ASSERT_TRUE(client.OpenSession("s1").ok());
  auto delta = client.ApplyDelta("s1", ToggleDelta(0));
  ASSERT_TRUE(delta.ok());
  ASSERT_EQ(delta.value().type, MsgType::kDeltaReply);

  // kMetrics is server-wide: Prometheus-style registry text with the
  // serving catalog present and the delta visible in the series the CI
  // smoke greps.
  auto metrics = client.Metrics();
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  ASSERT_EQ(metrics.value().type, MsgType::kMetricsReply);
  const std::string& text = metrics.value().message;
  for (const char* name :
       {"serve.delta.count", "wal.append.count", "ground.delta.count",
        "search.component.count", "net.lane.queue.wait.seconds",
        "serve.delta.seconds", "net.delta.wire.seconds"}) {
    EXPECT_NE(text.find(name), std::string::npos) << name;
  }
  EXPECT_NE(text.find("# TYPE"), std::string::npos);

  // kTrace returns the session's recent span trees: the delta above
  // must show its lifecycle, including the lane queue wait stamped by
  // the server worker.
  auto trace = client.Trace("s1");
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  ASSERT_EQ(trace.value().type, MsgType::kTraceReply);
  const std::string& spans = trace.value().message;
  EXPECT_NE(spans.find("apply_delta"), std::string::npos) << spans;
  EXPECT_NE(spans.find("net.lane.wait"), std::string::npos) << spans;
  EXPECT_NE(spans.find("ground.delta"), std::string::npos) << spans;

  // Tracing an unknown session is a wire error, not a crash.
  auto missing = client.Trace("nope");
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing.value().type, MsgType::kError);
  EXPECT_EQ(missing.value().error, WireError::kNotFound);
}

TEST_F(NetTest, ProgramFingerprintMismatchIsRejected) {
  StartServer();
  Client client = MakeClient();
  auto open = client.OpenSession("s1", /*program_fp=*/12345);
  ASSERT_TRUE(open.ok());
  EXPECT_EQ(open.value().type, MsgType::kError);
  EXPECT_EQ(open.value().error, WireError::kInvalidArgument);
  EXPECT_FALSE(open.value().retryable);
}

TEST_F(NetTest, PipelinedDeltasApplyInSendOrder) {
  StartServer();
  Client client = MakeClient();
  ASSERT_TRUE(client.OpenSession("s1").ok());

  constexpr int kDeltas = 10;
  std::vector<uint64_t> ids;
  for (int i = 0; i < kDeltas; ++i) {
    NetRequest req;
    req.type = MsgType::kApplyDelta;
    req.session = "s1";
    req.delta = ToggleDelta(i);
    auto id = client.Send(std::move(req));
    ASSERT_TRUE(id.ok());
    ids.push_back(id.value());
  }
  for (int i = 0; i < kDeltas; ++i) {
    auto resp = client.Receive();
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    ASSERT_EQ(resp.value().type, MsgType::kDeltaReply)
        << resp.value().message;
    // Replies come back in send order...
    EXPECT_EQ(resp.value().request_id, ids[static_cast<size_t>(i)]);
    // ...because the lane applied them in send order.
    EXPECT_EQ(resp.value().seq, static_cast<uint64_t>(i + 1));
  }
}

TEST_F(NetTest, SessionSurvivesMidRequestDisconnectAndReattaches) {
  StartServer();
  double cost_after_delta = 0.0;
  {
    Client client = MakeClient();
    ASSERT_TRUE(client.OpenSession("s1").ok());
    auto applied = client.ApplyDelta("s1", ToggleDelta(0));
    ASSERT_TRUE(applied.ok());
    cost_after_delta = applied.value().map_cost;
    // Fire a second delta and vanish without reading the reply.
    NetRequest req;
    req.type = MsgType::kApplyDelta;
    req.session = "s1";
    req.delta = ToggleDelta(1);
    ASSERT_TRUE(client.Send(std::move(req)).ok());
  }  // destructor closes the socket mid-request

  Client again = MakeClient();
  auto open = again.OpenSession("s1");
  ASSERT_TRUE(open.ok());
  ASSERT_EQ(open.value().type, MsgType::kOpenReply) << open.value().message;
  EXPECT_TRUE(open.value().attached);

  // The abandoned delta still applied (lane order: delta, then this
  // open, then the next delta), so seq reflects both earlier deltas.
  auto applied = again.ApplyDelta("s1", ToggleDelta(0));
  ASSERT_TRUE(applied.ok());
  ASSERT_EQ(applied.value().type, MsgType::kDeltaReply);
  EXPECT_EQ(applied.value().seq, 3u);
  EXPECT_EQ(applied.value().map_cost, cost_after_delta);
}

TEST_F(NetTest, CorruptCrcClosesConnectionButServerSurvives) {
  StartServer();
  Client client = MakeClient();
  ASSERT_TRUE(client.OpenSession("s1").ok());

  std::string frame = EncodeFrame(EncodeRequest(NetRequest{}));
  frame[kFrameHeaderBytes] ^= 0x01;
  ASSERT_EQ(::send(client.fd(), frame.data(), frame.size(), 0),
            static_cast<ssize_t>(frame.size()));
  auto resp = client.Receive();
  EXPECT_FALSE(resp.ok());  // server hung up on the poisoned stream

  // Server and session are fine; only the connection died.
  Client again = MakeClient();
  auto open = again.OpenSession("s1");
  ASSERT_TRUE(open.ok());
  EXPECT_TRUE(open.value().attached);
  EXPECT_GE(server_->metrics().protocol_errors, 1u);
}

TEST_F(NetTest, OversizedFrameIsRejectedAtTheHeader) {
  ServerOptions opts;
  opts.max_frame_bytes = 1024;
  StartServer(opts);
  Client client = MakeClient();

  // Header announcing 1 MiB; no payload ever sent.
  std::string header(kFrameHeaderBytes, '\0');
  const uint32_t fake_len = 1u << 20;
  std::memcpy(&header[4], &fake_len, sizeof(fake_len));
  ASSERT_EQ(::send(client.fd(), header.data(), header.size(), 0),
            static_cast<ssize_t>(header.size()));
  auto resp = client.Receive();
  EXPECT_FALSE(resp.ok());
  EXPECT_GE(server_->metrics().protocol_errors, 1u);
}

TEST_F(NetTest, TruncatedFrameThenDisconnectLeavesServerHealthy) {
  StartServer();
  {
    Client client = MakeClient();
    const std::string frame = EncodeFrame(EncodeRequest(NetRequest{}));
    // Half a frame, then the destructor hangs up.
    ASSERT_EQ(::send(client.fd(), frame.data(), frame.size() / 2, 0),
              static_cast<ssize_t>(frame.size() / 2));
  }
  Client again = MakeClient();
  auto open = again.OpenSession("s1");
  ASSERT_TRUE(open.ok());
  EXPECT_EQ(open.value().type, MsgType::kOpenReply);
  // A partial frame is just bytes in flight, not a protocol error.
  EXPECT_EQ(server_->metrics().protocol_errors, 0u);
}

TEST_F(NetTest, IdleAndHalfOpenConnectionsAreReaped) {
  ServerOptions opts;
  opts.idle_timeout_seconds = 0.2;
  opts.read_deadline_seconds = 0.15;
  StartServer(opts);

  // One connection goes silent after a successful call; one starts a
  // frame and never finishes it. The sweep must reap both — the idle
  // one on the idle timeout, the half-open one on the read deadline.
  Client idle = MakeClient();
  ASSERT_TRUE(idle.OpenSession("s1").ok());
  Client half = MakeClient();
  const std::string frame = EncodeFrame(EncodeRequest(NetRequest{}));
  ASSERT_EQ(::send(half.fd(), frame.data(), frame.size() / 2, 0),
            static_cast<ssize_t>(frame.size() / 2));

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server_->metrics().connections_reaped < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(server_->metrics().connections_reaped, 2u);
  EXPECT_EQ(server_->metrics().connections_open, 0u);

  // The reaped socket is dead: the next call fails at transport level.
  auto r = idle.Stats();
  EXPECT_FALSE(r.ok());
}

TEST_F(NetTest, UnknownTagGetsErrorReplyAndConnectionLives) {
  StartServer();
  Client client = MakeClient();

  // tag 0x63 does not exist; id must still be echoed back.
  std::string payload;
  payload.push_back(static_cast<char>(0x63));
  const uint64_t id = 777;
  payload.append(reinterpret_cast<const char*>(&id), sizeof(id));
  const std::string frame = EncodeFrame(payload);
  ASSERT_EQ(::send(client.fd(), frame.data(), frame.size(), 0),
            static_cast<ssize_t>(frame.size()));

  auto resp = client.Receive();
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp.value().type, MsgType::kError);
  EXPECT_EQ(resp.value().error, WireError::kUnknownMessage);
  EXPECT_EQ(resp.value().request_id, 777u);

  // Same connection keeps working.
  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().type, MsgType::kStatsReply);
}

TEST_F(NetTest, FullQueueShedsWithRetryableOverload) {
  ServerOptions opts;
  opts.num_workers = 1;
  opts.max_queue = 1;
  opts.session.total_flips = 200000;  // make each delta take a while
  // The link components are tractable, so the exact fast path would
  // answer each delta instantly and the queue would never back up.
  opts.session.exact_fast_path = false;
  opts.session.seed = 11;
  StartServer(opts);
  Client client = MakeClient();
  ASSERT_TRUE(client.OpenSession("s1").ok());

  // One burst write: the first delta occupies the queue's single slot;
  // the rest decode while it runs and must shed immediately.
  constexpr int kBurst = 8;
  for (int i = 0; i < kBurst; ++i) {
    NetRequest req;
    req.type = MsgType::kApplyDelta;
    req.session = "s1";
    req.delta = ToggleDelta(i);
    ASSERT_TRUE(client.Send(std::move(req)).ok());
  }
  int ok = 0, overloaded = 0;
  for (int i = 0; i < kBurst; ++i) {
    auto resp = client.Receive();
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    if (resp.value().type == MsgType::kDeltaReply) {
      ++ok;
    } else {
      ASSERT_EQ(resp.value().type, MsgType::kError);
      EXPECT_EQ(resp.value().error, WireError::kOverloaded);
      EXPECT_TRUE(resp.value().retryable);
      ++overloaded;
    }
  }
  EXPECT_GE(ok, 1);
  EXPECT_GE(overloaded, 1);
  EXPECT_GE(server_->metrics().overloaded, 1u);

  // Shedding is transient: once drained, deltas apply again.
  auto after = client.ApplyDelta("s1", ToggleDelta(0));
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().type, MsgType::kDeltaReply);
}

TEST_F(NetTest, MarginalsOverTheWire) {
  ServerOptions opts;
  opts.session.total_flips = 20000;
  opts.session.seed = 11;
  opts.session.track_marginals = true;
  StartServer(opts);
  Client client = MakeClient();
  ASSERT_TRUE(client.OpenSession("s1").ok());

  auto m = client.QueryMarginals("s1", "label");
  ASSERT_TRUE(m.ok());
  ASSERT_EQ(m.value().type, MsgType::kMarginalsReply) << m.value().message;
  ASSERT_GT(m.value().marginals.size(), 0u);
  for (const auto& [atom, p] : m.value().marginals) {
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

TEST_F(NetTest, RecoverOverTheWire) {
  ServerOptions opts;
  opts.durability_root = MakeTempDir("recover");
  opts.session.total_flips = 20000;
  opts.session.seed = 11;
  StartServer(opts);
  Client client = MakeClient();
  ASSERT_TRUE(client.OpenSession("s1").ok());
  auto applied = client.ApplyDelta("s1", ToggleDelta(0));
  ASSERT_TRUE(applied.ok());
  const double cost = applied.value().map_cost;

  // Drop the in-memory session (its WAL stays), then recover it.
  ASSERT_TRUE(client.CloseSession("s1").ok());
  auto recovered = client.Recover("s1");
  ASSERT_TRUE(recovered.ok());
  ASSERT_EQ(recovered.value().type, MsgType::kRecoverReply)
      << recovered.value().message;
  EXPECT_NEAR(recovered.value().map_cost, cost, 1e-9);
}

TEST_F(NetTest, ServerWideStatsAndMetricsReport) {
  StartServer();
  Client client = MakeClient();
  ASSERT_TRUE(client.OpenSession("s1").ok());
  ASSERT_TRUE(client.ApplyDelta("s1", ToggleDelta(0)).ok());

  auto stats = client.Stats();  // empty session = server-wide
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(stats.value().type, MsgType::kStatsReply);
  double deltas = -1, conns = -1;
  for (const auto& [key, value] : stats.value().stats) {
    if (key == "deltas_applied") deltas = value;
    if (key == "connections_open") conns = value;
  }
  EXPECT_EQ(deltas, 1.0);
  EXPECT_EQ(conns, 1.0);

  const std::string report = server_->MetricsReport();
  EXPECT_NE(report.find("deltas: 1 applied"), std::string::npos) << report;
  EXPECT_NE(report.find("connections:"), std::string::npos);

  // A job that answers kError is an error reply on both sides: the
  // server-wide errors_sent and the registry's serve.error.count.
  Counter* registry_errors =
      MetricsRegistry::Global().GetCounter("serve.error.count");
  const double errors_before = StatValue(client.Stats(), "errors_sent");
  const uint64_t registry_before = registry_errors->Value();
  auto missing = client.QueryMap("never-opened");
  ASSERT_TRUE(missing.ok());
  ASSERT_EQ(missing.value().type, MsgType::kError);
  EXPECT_EQ(missing.value().error, WireError::kNotFound);
  EXPECT_EQ(StatValue(client.Stats(), "errors_sent"), errors_before + 1);
  EXPECT_EQ(registry_errors->Value(), registry_before + 1);
}

TEST_F(NetTest, SecondServerCountsOnlyItsOwnTraffic) {
  ServerOptions opts;
  opts.session.total_flips = 20000;
  opts.session.seed = 11;
  // One connection: open, two deltas, then the server-wide kStats.
  auto drive = [&] {
    Client client = MakeClient();
    EXPECT_TRUE(Replied(client.OpenSession("s1"), MsgType::kOpenReply));
    for (int i = 0; i < 2; ++i) {
      EXPECT_TRUE(Replied(client.ApplyDelta("s1", ToggleDelta(i)),
                          MsgType::kDeltaReply));
    }
    return client.Stats();
  };
  const char* kKeys[] = {"requests", "responses", "bytes_in", "bytes_out",
                         "connections_accepted", "deltas_applied",
                         "queue_peak"};
  auto counted = [](const ServerMetrics& m) {
    return std::vector<uint64_t>{m.requests, m.responses, m.bytes_in,
                                 m.bytes_out, m.connections_accepted,
                                 m.deltas_applied, m.queue_peak};
  };

  StartServer(opts);
  const Result<NetResponse> first_stats = drive();
  // After Stop every count is final (the last reply's bytes included).
  server_->Stop();
  const ServerMetrics first = server_->metrics();
  EXPECT_EQ(first.requests, 4u);
  EXPECT_EQ(first.responses, 4u);
  EXPECT_EQ(first.connections_accepted, 1u);
  EXPECT_EQ(first.deltas_applied, 2u);
  EXPECT_EQ(first.queue_peak, 1u);
  EXPECT_GT(first.bytes_in, 0u);
  EXPECT_GT(first.bytes_out, 0u);
  EXPECT_EQ(first.connections_open, 0u);

  // A second server in the same process starts from zero...
  server_ = std::make_unique<Server>(program_, evidence_, opts);
  ASSERT_TRUE(server_->Start().ok());
  const ServerMetrics fresh = server_->metrics();
  for (uint64_t v : counted(fresh)) EXPECT_EQ(v, 0u);
  EXPECT_EQ(fresh.connections_open, 0u);
  EXPECT_EQ(fresh.queue_depth, 0u);

  // ...and the same traffic reads exactly as it did on the first.
  const Result<NetResponse> second_stats = drive();
  for (const char* key : kKeys) {
    EXPECT_EQ(StatValue(second_stats, key), StatValue(first_stats, key))
        << key;
  }
  EXPECT_EQ(StatValue(second_stats, "requests"), 4.0);
  server_->Stop();
  EXPECT_EQ(counted(server_->metrics()), counted(first));
}

TEST_F(NetTest, MetricsKillSwitchStopsServerCounts) {
  StartServer();
  Client client = MakeClient();
  ASSERT_TRUE(Replied(client.OpenSession("s1"), MsgType::kOpenReply));
  const ServerMetrics before = server_->metrics();
  ASSERT_EQ(before.deltas_applied, 0u);
  {
    // The server's figures are registry series: with the kill switch
    // off, a delta applies but is not counted.
    MetricsOff off;
    ASSERT_TRUE(Replied(client.ApplyDelta("s1", ToggleDelta(0)),
                        MsgType::kDeltaReply));
  }
  const ServerMetrics during = server_->metrics();
  EXPECT_EQ(during.deltas_applied, before.deltas_applied);
  EXPECT_EQ(during.requests, before.requests);
  EXPECT_EQ(during.responses, before.responses);
  EXPECT_EQ(during.bytes_in, before.bytes_in);

  ASSERT_TRUE(Replied(client.ApplyDelta("s1", ToggleDelta(1)),
                      MsgType::kDeltaReply));
  const ServerMetrics after = server_->metrics();
  EXPECT_EQ(after.deltas_applied, before.deltas_applied + 1);
  EXPECT_EQ(after.requests, before.requests + 1);
}

}  // namespace
}  // namespace tuffy
