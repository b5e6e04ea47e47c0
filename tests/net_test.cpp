// Remote estimation subsystem: wire-protocol round trips must be lossless
// (bit-exact doubles, every Query/Predicate feature), malformed and
// truncated input must be rejected without crashing either side, and the
// client/server pair over a real socket must serve values bit-identical to
// the in-process service.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <bit>
#include <future>
#include <thread>
#include <vector>

#include "factorjoin/estimator.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "net/socket.h"
#include "query/serialize.h"
#include "query/subplan.h"
#include "service/estimator_service.h"
#include "service/model_registry.h"
#include "stats/snapshot.h"
#include "storage/database.h"
#include "util/bytes.h"

namespace fj {
namespace {

using net::EstimatorClient;
using net::EstimatorClientOptions;
using net::EstimatorServer;
using net::EstimatorServerOptions;
using net::Frame;
using net::MsgType;
using net::NetError;
using net::ProtocolError;
using net::RemoteError;

// ---------------------------------------------------------------------------
// Byte primitives.

TEST(BytesTest, PrimitivesRoundTrip) {
  ByteWriter w;
  w.U8(0xab);
  w.U16(0xbeef);
  w.U32(0xdeadbeef);
  w.U64(0x0123456789abcdefULL);
  w.I64(-42);
  w.F64(0.1);
  w.Str("hello");
  w.Str("");

  ByteReader r(w.bytes());
  EXPECT_EQ(r.U8(), 0xab);
  EXPECT_EQ(r.U16(), 0xbeef);
  EXPECT_EQ(r.U32(), 0xdeadbeefu);
  EXPECT_EQ(r.U64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.I64(), -42);
  EXPECT_EQ(r.F64(), 0.1);
  EXPECT_EQ(r.Str(), "hello");
  EXPECT_EQ(r.Str(), "");
  EXPECT_TRUE(r.AtEnd());
}

TEST(BytesTest, DoublesAreBitExact) {
  // -0.0, a denormal, an NaN payload, infinity: all must round-trip by
  // bits, not by value.
  for (uint64_t bits :
       {std::bit_cast<uint64_t>(-0.0), uint64_t{1},  // smallest denormal
        std::bit_cast<uint64_t>(std::numeric_limits<double>::quiet_NaN()),
        std::bit_cast<uint64_t>(std::numeric_limits<double>::infinity())}) {
    ByteWriter w;
    w.F64(std::bit_cast<double>(bits));
    ByteReader r(w.bytes());
    EXPECT_EQ(std::bit_cast<uint64_t>(r.F64()), bits);
  }
}

TEST(BytesTest, TruncatedReadsThrow) {
  ByteWriter w;
  w.U64(7);
  ByteReader r(w.bytes().data(), 5);
  EXPECT_THROW(r.U64(), SerializeError);
  ByteWriter w2;
  w2.Str("hello");
  ByteReader r2(w2.bytes().data(), 6);  // length prefix says 5, 2 present
  EXPECT_THROW(r2.Str(), SerializeError);
}

// ---------------------------------------------------------------------------
// Query serialization.

// A query exercising every serializable feature: aliases + self join, every
// comparison op, Between, IN over mixed-type literals, LIKE / NOT LIKE
// patterns, IS NULL / IS NOT NULL, AND / OR / NOT nesting, and an explicit
// TRUE filter.
Query EveryFeatureQuery() {
  Query q;
  q.AddTable("title", "t").AddTable("cast_info", "ci");
  q.AddTable("name", "n1").AddTable("name", "n2");  // self join
  q.AddTable("movie_info");                         // default alias
  q.AddJoin("t", "id", "ci", "movie_id");
  q.AddJoin("ci", "person_id", "n1", "id");
  q.AddJoin("ci", "partner_id", "n2", "id");
  q.AddJoin("t", "id", "movie_info", "movie_id");

  q.SetFilter("t", Predicate::And({
      Predicate::Cmp("production_year", CmpOp::kGt, Literal::Int(1990)),
      Predicate::Cmp("production_year", CmpOp::kLe, Literal::Int(2005)),
      Predicate::Cmp("rating", CmpOp::kGe, Literal::Double(7.25)),
      Predicate::Cmp("kind", CmpOp::kNe, Literal::Str("video game")),
  }));
  q.SetFilter("ci", Predicate::Or({
      Predicate::Cmp("role_id", CmpOp::kEq, Literal::Int(1)),
      Predicate::Cmp("note", CmpOp::kLt, Literal::Str("b")),
      Predicate::Between("nr_order", Literal::Int(1), Literal::Int(10)),
  }));
  q.SetFilter("n1", Predicate::And({
      Predicate::Like("name", "%Scorsese%"),
      Predicate::IsNotNull("imdb_index"),
  }));
  q.SetFilter("n2", Predicate::Not(Predicate::Or({
      Predicate::NotLike("name", "A%"),
      Predicate::IsNull("gender"),
      Predicate::In("surname_pcode",
                    {Literal::Str("S62"), Literal::Int(3),
                     Literal::Double(0.5)}),
  })));
  q.SetFilter("movie_info", Predicate::True());
  return q;
}

TEST(QuerySerializeTest, EveryFeatureRoundTripsExactly) {
  Query q = EveryFeatureQuery();
  std::vector<uint8_t> bytes = SerializeQuery(q);
  Query back = DeserializeQuery(bytes);

  // Construction-lossless: same rendering, same canonical fingerprint, and
  // re-encoding gives the same bytes.
  EXPECT_EQ(back.ToString(), q.ToString());
  EXPECT_EQ(back.Fingerprint(), q.Fingerprint());
  EXPECT_EQ(SerializeQuery(back), bytes);
  ASSERT_EQ(back.NumTables(), q.NumTables());
  for (size_t i = 0; i < q.NumTables(); ++i) {
    EXPECT_EQ(back.tables()[i].alias, q.tables()[i].alias);
    EXPECT_EQ(back.tables()[i].table, q.tables()[i].table);
  }
  ASSERT_EQ(back.joins().size(), q.joins().size());
  // The explicitly set TRUE filter survives as a set filter.
  EXPECT_TRUE(back.HasFilter("movie_info"));
}

TEST(QuerySerializeTest, DoubleLiteralsAreBitExact) {
  Query q;
  q.AddTable("t");
  double value = 0.1 + 0.2;  // not representable as a round literal
  q.SetFilter("t", Predicate::Cmp("x", CmpOp::kLt, Literal::Double(value)));
  Query back = DeserializeQuery(SerializeQuery(q));
  EXPECT_EQ(std::bit_cast<uint64_t>(back.FilterFor("t")->value().d),
            std::bit_cast<uint64_t>(value));
}

TEST(QuerySerializeTest, EmptyQueryRoundTrips) {
  Query q;
  Query back = DeserializeQuery(SerializeQuery(q));
  EXPECT_EQ(back.NumTables(), 0u);
  EXPECT_EQ(back.Fingerprint(), q.Fingerprint());
}

TEST(QuerySerializeTest, EveryTruncationThrowsNotCrashes) {
  std::vector<uint8_t> bytes = SerializeQuery(EveryFeatureQuery());
  // Every strict prefix must be rejected as malformed — never accepted,
  // never a crash or over-read.
  for (size_t len = 0; len < bytes.size(); ++len) {
    std::vector<uint8_t> prefix(bytes.begin(),
                                bytes.begin() + static_cast<long>(len));
    EXPECT_THROW(DeserializeQuery(prefix), SerializeError) << "len " << len;
  }
  // Trailing garbage is malformed too.
  std::vector<uint8_t> padded = bytes;
  padded.push_back(0);
  EXPECT_THROW(DeserializeQuery(padded), SerializeError);
}

TEST(QuerySerializeTest, MalformedContentThrows) {
  {
    ByteWriter w;  // unknown predicate kind
    w.U8(200);
    ByteReader r(w.bytes());
    EXPECT_THROW(DecodePredicate(&r), SerializeError);
  }
  {
    ByteWriter w;  // unknown literal type tag
    w.U8(static_cast<uint8_t>(Predicate::Kind::kCompare));
    w.Str("col");
    w.U8(static_cast<uint8_t>(CmpOp::kEq));
    w.U8(77);
    ByteReader r(w.bytes());
    EXPECT_THROW(DecodePredicate(&r), SerializeError);
  }
  {
    ByteWriter w;  // unknown comparison op
    w.U8(static_cast<uint8_t>(Predicate::Kind::kCompare));
    w.Str("col");
    w.U8(99);
    EncodeLiteral(Literal::Int(1), &w);
    ByteReader r(w.bytes());
    EXPECT_THROW(DecodePredicate(&r), SerializeError);
  }
  {
    // NOT-chain nested beyond the depth limit must throw, not overflow the
    // stack.
    ByteWriter w;
    for (int i = 0; i < 100000; ++i) {
      w.U8(static_cast<uint8_t>(Predicate::Kind::kNot));
    }
    w.U8(static_cast<uint8_t>(Predicate::Kind::kTrue));
    ByteReader r(w.bytes());
    EXPECT_THROW(DecodePredicate(&r), SerializeError);
  }
  {
    // Duplicate alias: structurally valid bytes, semantically bad query.
    ByteWriter w;
    w.U32(2);
    w.Str("a");
    w.Str("t1");
    w.Str("a");
    w.Str("t2");
    w.U32(0);
    w.U32(0);
    EXPECT_THROW(DeserializeQuery(w.bytes()), SerializeError);
  }
}

// ---------------------------------------------------------------------------
// Frames over a real socket pair.

struct SocketPair {
  int a = -1;
  int b = -1;
  SocketPair() {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    a = fds[0];
    b = fds[1];
  }
  ~SocketPair() {
    net::CloseSocket(a);
    net::CloseSocket(b);
  }
};

TEST(ProtocolTest, FrameRoundTripsOverSocket) {
  SocketPair sp;
  std::vector<uint8_t> body = net::EncodeEstimateResp(42.5);
  ASSERT_TRUE(net::WriteFrame(sp.a, MsgType::kEstimateResp, 7, body));
  auto frame = net::ReadFrame(sp.b, net::kDefaultMaxFrameBytes);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, MsgType::kEstimateResp);
  EXPECT_EQ(frame->request_id, 7u);
  EXPECT_EQ(net::DecodeEstimateResp(frame->body), 42.5);
}

TEST(ProtocolTest, OversizedFrameRejectedBeforeAllocation) {
  SocketPair sp;
  ByteWriter w;
  w.U32(200 << 20);  // 200 MiB length prefix, no payload follows
  ASSERT_TRUE(net::SendAll(sp.a, w.bytes().data(), w.size()));
  EXPECT_THROW(net::ReadFrame(sp.b, net::kDefaultMaxFrameBytes),
               ProtocolError);
}

TEST(ProtocolTest, UnknownMessageTypeRejected) {
  SocketPair sp;
  ByteWriter w;
  w.U32(9);
  w.U8(99);  // not a MsgType
  w.U64(1);
  ASSERT_TRUE(net::SendAll(sp.a, w.bytes().data(), w.size()));
  EXPECT_THROW(net::ReadFrame(sp.b, net::kDefaultMaxFrameBytes),
               ProtocolError);
}

TEST(ProtocolTest, EofMidFrameIsOrderlyNullopt) {
  SocketPair sp;
  ByteWriter w;
  w.U32(100);  // promises 100 bytes
  w.U8(static_cast<uint8_t>(MsgType::kStatsReq));
  ASSERT_TRUE(net::SendAll(sp.a, w.bytes().data(), w.size()));
  net::CloseSocket(sp.a);
  sp.a = -1;
  EXPECT_FALSE(net::ReadFrame(sp.b, net::kDefaultMaxFrameBytes).has_value());
}

TEST(ProtocolTest, SubplansReqMaskCountValidated) {
  Query q;
  q.AddTable("t");
  ByteWriter w;
  w.Str("some-model");
  EncodeQuery(q, &w);
  w.U32(1u << 30);  // claims 2^30 masks with no bytes behind them
  EXPECT_THROW(net::DecodeSubplansReq(w.bytes()), ProtocolError);
}

TEST(ProtocolTest, RequestBodiesCarryTheModelId) {
  Query q;
  q.AddTable("t");
  net::EstimateReq est = net::DecodeEstimateReq(net::EncodeEstimateReq("m1", q));
  EXPECT_EQ(est.model, "m1");
  EXPECT_EQ(est.query.ToString(), q.ToString());

  net::SubplansReq sub =
      net::DecodeSubplansReq(net::EncodeSubplansReq("m2", q, {1}));
  EXPECT_EQ(sub.model, "m2");
  ASSERT_EQ(sub.masks.size(), 1u);

  net::NotifyUpdateReq upd =
      net::DecodeNotifyUpdateReq(net::EncodeNotifyUpdateReq("m3", "orders"));
  EXPECT_EQ(upd.model, "m3");
  EXPECT_EQ(upd.table, "orders");

  EXPECT_EQ(net::DecodeStatsReq(net::EncodeStatsReq("m4")), "m4");
  // "" routes to the default model.
  EXPECT_EQ(net::DecodeStatsReq(net::EncodeStatsReq("")), "");
}

TEST(ProtocolTest, ServiceStatsRoundTrip) {
  ServiceStats stats;
  stats.requests = 11;
  stats.subplan_requests = 22;
  stats.subplans_estimated = 333;
  stats.errors = 1;
  stats.updates_notified = 4;
  stats.epoch = 4;
  stats.pending_requests = 9;
  stats.queue_depth = 5;
  stats.cache.hits = 100;
  stats.cache.misses = 50;
  stats.cache.evictions = 3;
  stats.cache.invalidations = 2;
  stats.cache.entries = 77;
  stats.slow_requests = 3;
  stats.slow_suppressed = 17;
  // The wire carries full histograms; quantiles are re-derived on decode,
  // never trusted from the peer.
  obs::LatencyHistogram lat;
  for (uint64_t v : {10, 10, 45, 800, 123456}) lat.Record(v);
  stats.latency = lat.Snapshot();
  obs::LatencyHistogram est_stage;
  est_stage.Record(700);
  stats.stages[static_cast<size_t>(obs::Stage::kEstimate)] =
      est_stage.Snapshot();
  ServiceStats back = net::DecodeServiceStats(net::EncodeServiceStats(stats));
  EXPECT_EQ(back.requests, stats.requests);
  EXPECT_EQ(back.subplan_requests, stats.subplan_requests);
  EXPECT_EQ(back.subplans_estimated, stats.subplans_estimated);
  EXPECT_EQ(back.errors, stats.errors);
  EXPECT_EQ(back.updates_notified, stats.updates_notified);
  EXPECT_EQ(back.epoch, stats.epoch);
  EXPECT_EQ(back.pending_requests, stats.pending_requests);
  EXPECT_EQ(back.queue_depth, stats.queue_depth);
  EXPECT_EQ(back.cache.hits, stats.cache.hits);
  EXPECT_EQ(back.cache.entries, stats.cache.entries);
  EXPECT_EQ(back.slow_requests, stats.slow_requests);
  EXPECT_EQ(back.slow_suppressed, stats.slow_suppressed);
  EXPECT_EQ(back.latency.count, stats.latency.count);
  EXPECT_EQ(back.latency.sum, stats.latency.sum);
  EXPECT_EQ(back.latency.max, stats.latency.max);
  EXPECT_EQ(back.latency.buckets, stats.latency.buckets);
  for (size_t i = 0; i < obs::kNumStages; ++i) {
    EXPECT_EQ(back.stages[i].count, stats.stages[i].count) << "stage " << i;
    EXPECT_EQ(back.stages[i].buckets, stats.stages[i].buckets);
  }
  // Decoded quantiles come from the shipped histogram.
  ServiceStats expect = stats;
  expect.RefreshQuantiles();
  EXPECT_EQ(back.p50_micros, expect.p50_micros);
  EXPECT_EQ(back.p90_micros, expect.p90_micros);
  EXPECT_EQ(back.p99_micros, expect.p99_micros);
  EXPECT_EQ(back.p999_micros, expect.p999_micros);
  EXPECT_EQ(back.max_micros, 123456.0);
}

TEST(ProtocolTest, ServiceStatsRejectsWrongStageCount) {
  // A stats body claiming a different stage-histogram count than this
  // build's obs::kNumStages must be rejected, not misparsed.
  ServiceStats stats;
  std::vector<uint8_t> body = net::EncodeServiceStats(stats);
  // The stage-count byte precedes the kNumStages empty stage histograms;
  // each empty histogram encodes to 28 bytes (3×u64 + u32, no entries).
  size_t stage_count_pos = body.size() - obs::kNumStages * 28 - 1;
  ASSERT_EQ(body[stage_count_pos], obs::kNumStages);
  body[stage_count_pos] = obs::kNumStages + 1;
  EXPECT_THROW(net::DecodeServiceStats(body), SerializeError);
}

// ---------------------------------------------------------------------------
// Client/server end to end (loopback TCP + Unix socket).

Database MakeDb() {
  Database db;
  Table* users = db.AddTable("users");
  Column* u_id = users->AddColumn("id", ColumnType::kInt64);
  Column* u_age = users->AddColumn("age", ColumnType::kInt64);
  for (int i = 0; i < 500; ++i) {
    u_id->AppendInt(i);
    u_age->AppendInt(18 + (i * 7) % 60);
  }
  Table* orders = db.AddTable("orders");
  Column* o_user = orders->AddColumn("user_id", ColumnType::kInt64);
  Column* o_item = orders->AddColumn("item_id", ColumnType::kInt64);
  Column* o_amount = orders->AddColumn("amount", ColumnType::kInt64);
  for (int i = 0; i < 6000; ++i) {
    int user = (i * i + 17 * i) % 500;
    user = user % (1 + user % 50);
    o_user->AppendInt(user);
    o_item->AppendInt((i * 13) % 200);
    o_amount->AppendInt((i * 37) % 500);
  }
  Table* items = db.AddTable("items");
  Column* i_id = items->AddColumn("id", ColumnType::kInt64);
  Column* i_price = items->AddColumn("price", ColumnType::kInt64);
  for (int i = 0; i < 200; ++i) {
    i_id->AppendInt(i);
    i_price->AppendInt((i * 11) % 90);
  }
  db.AddJoinRelation({"users", "id"}, {"orders", "user_id"});
  db.AddJoinRelation({"orders", "item_id"}, {"items", "id"});
  return db;
}

Query ChainQuery(int age_lo, int amount_hi) {
  Query q;
  q.AddTable("users", "u").AddTable("orders", "o").AddTable("items", "i");
  q.AddJoin("u", "id", "o", "user_id");
  q.AddJoin("o", "item_id", "i", "id");
  q.SetFilter("u", Predicate::Cmp("age", CmpOp::kGt, Literal::Int(age_lo)));
  q.SetFilter("o", Predicate::Cmp("amount", CmpOp::kLt,
                                  Literal::Int(amount_hi)));
  return q;
}

// Everything a remote test needs: trained estimator, service, server on an
// ephemeral loopback port, connected client.
struct RemoteStack {
  Database db = MakeDb();
  FactorJoinEstimator estimator;
  EstimatorService service;
  EstimatorServer server;
  std::unique_ptr<EstimatorClient> client;

  explicit RemoteStack(EstimatorServerOptions server_options = {})
      : estimator(db,
                  [] {
                    FactorJoinConfig c;
                    c.num_bins = 32;
                    return c;
                  }()),
        service(estimator, {.num_threads = 2}),
        server(service, std::move(server_options)) {
    server.Start();
    EstimatorClientOptions client_options;
    client_options.endpoint = server.endpoint();
    client = std::make_unique<EstimatorClient>(client_options);
    client->Connect();
  }
};

TEST(RemoteTest, EstimateBitIdenticalToInProcess) {
  RemoteStack stack;
  Query q = ChainQuery(30, 250);
  EXPECT_EQ(stack.client->Estimate(q), stack.service.Estimate(q));
  EXPECT_EQ(stack.client->Estimate(q), stack.estimator.Estimate(q));
}

// The acceptance-criteria shape: EstimateSubplans through a socket returns
// values bit-identical to the in-process service.
TEST(RemoteTest, SubplansBitIdenticalToInProcess) {
  RemoteStack stack;
  Query q = ChainQuery(25, 300);
  std::vector<uint64_t> masks = EnumerateConnectedSubsets(q, 1);
  auto remote = stack.client->EstimateSubplans(q, masks);
  auto local = stack.service.EstimateSubplans(q, masks);
  ASSERT_EQ(remote.size(), local.size());
  for (uint64_t mask : masks) {
    EXPECT_EQ(remote.at(mask), local.at(mask)) << "mask " << mask;
  }
}

TEST(RemoteTest, UnixDomainSocketWorks) {
  EstimatorServerOptions options;
  options.endpoint.unix_path =
      "/tmp/fj_net_test_" + std::to_string(::getpid()) + ".sock";
  RemoteStack stack(options);
  Query q = ChainQuery(30, 250);
  EXPECT_EQ(stack.client->Estimate(q), stack.service.Estimate(q));
}

TEST(RemoteTest, PipelinedRequestsAllResolveCorrectly) {
  RemoteStack stack;
  constexpr int kInFlight = 64;
  std::vector<Query> queries;
  std::vector<std::future<double>> futures;
  for (int i = 0; i < kInFlight; ++i) {
    queries.push_back(ChainQuery(20 + i % 30, 100 + (i * 13) % 400));
    futures.push_back(stack.client->EstimateAsync(queries.back()));
  }
  for (int i = 0; i < kInFlight; ++i) {
    EXPECT_EQ(futures[static_cast<size_t>(i)].get(),
              stack.estimator.Estimate(queries[static_cast<size_t>(i)]));
  }
}

TEST(RemoteTest, ConcurrentClientsShareOneServer) {
  RemoteStack stack;
  constexpr int kClients = 4;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      EstimatorClientOptions options;
      options.endpoint = stack.server.endpoint();
      EstimatorClient client(options);
      for (int i = 0; i < 8; ++i) {
        Query q = ChainQuery(20 + (c * 8 + i) % 30, 150 + i * 20);
        if (client.Estimate(q) != stack.estimator.Estimate(q)) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(stack.server.Stats().connections_accepted, 5u);
}

TEST(RemoteTest, ServerErrorsArriveAsRemoteError) {
  RemoteStack stack;
  Query disconnected;
  disconnected.AddTable("users", "u").AddTable("items", "i");
  try {
    stack.client->Estimate(disconnected);
    FAIL() << "expected RemoteError";
  } catch (const RemoteError& e) {
    // The server forwards the estimator's message.
    EXPECT_NE(std::string(e.what()).find("join"), std::string::npos);
  }
  // The connection survives a request-scoped error.
  Query q = ChainQuery(30, 250);
  EXPECT_EQ(stack.client->Estimate(q), stack.estimator.Estimate(q));
}

// A sub-plan mask with bits past the query's alias count is a request error,
// not a cache hit: with {u} cached, mask u | bit 40 must not be served the
// cached {u} value.
TEST(RemoteTest, OutOfRangeMaskArrivesAsRemoteError) {
  RemoteStack stack;
  Query q = ChainQuery(30, 250);
  auto masks = EnumerateConnectedSubsets(q, 1);
  auto warm = stack.client->EstimateSubplans(q, masks);
  try {
    stack.client->EstimateSubplans(q, {1 | (uint64_t{1} << 40)});
    FAIL() << "expected RemoteError";
  } catch (const RemoteError& e) {
    EXPECT_NE(std::string(e.what()).find("mask"), std::string::npos);
  }
  // The connection survives, and valid masks still hit the cache.
  auto again = stack.client->EstimateSubplans(q, masks);
  for (uint64_t mask : masks) EXPECT_EQ(again.at(mask), warm.at(mask));
}

TEST(RemoteTest, NotifyUpdateAndStatsRpcs) {
  RemoteStack stack;
  Query q = ChainQuery(30, 250);
  stack.client->Estimate(q);
  EXPECT_EQ(stack.client->NotifyUpdate("orders"), 1u);
  EXPECT_EQ(stack.service.Epoch(), 1u);
  ServiceStats stats = stack.client->Stats();
  EXPECT_EQ(stats.requests, 1u);
  EXPECT_EQ(stats.updates_notified, 1u);
  EXPECT_EQ(stats.epoch, 1u);
}

TEST(RemoteTest, MalformedFrameDropsOnlyThatConnection) {
  RemoteStack stack;
  // A raw attacker connection: handshake, then garbage.
  int fd = net::ConnectSocket(stack.server.endpoint());
  ASSERT_TRUE(net::WriteFrame(fd, MsgType::kHello, 0, net::EncodeHello({})));
  auto ack = net::ReadFrame(fd, net::kDefaultMaxFrameBytes);
  ASSERT_TRUE(ack.has_value());
  ASSERT_EQ(ack->type, MsgType::kHelloAck);
  ByteWriter garbage;
  garbage.U32(9);
  garbage.U8(99);  // unknown type
  garbage.U64(1);
  ASSERT_TRUE(net::SendAll(fd, garbage.bytes().data(), garbage.size()));
  // The server answers with a connection-level error and closes.
  auto error = net::ReadFrame(fd, net::kDefaultMaxFrameBytes);
  ASSERT_TRUE(error.has_value());
  EXPECT_EQ(error->type, MsgType::kError);
  EXPECT_EQ(error->request_id, 0u);
  EXPECT_FALSE(net::ReadFrame(fd, net::kDefaultMaxFrameBytes).has_value());
  net::CloseSocket(fd);

  // The well-behaved client is unaffected.
  Query q = ChainQuery(30, 250);
  EXPECT_EQ(stack.client->Estimate(q), stack.estimator.Estimate(q));
  EXPECT_GE(stack.server.Stats().protocol_errors, 1u);
}

TEST(RemoteTest, TruncatedFrameMidBodyDropsConnection) {
  RemoteStack stack;
  int fd = net::ConnectSocket(stack.server.endpoint());
  ASSERT_TRUE(net::WriteFrame(fd, MsgType::kHello, 0, net::EncodeHello({})));
  ASSERT_TRUE(net::ReadFrame(fd, net::kDefaultMaxFrameBytes).has_value());
  // A frame whose length promises more than the body delivers: the body
  // claims to be an EstimateReq but is cut mid-query.
  std::vector<uint8_t> good =
      net::EncodeFrame(MsgType::kEstimateReq, 1,
                       net::EncodeEstimateReq("", ChainQuery(30, 250)));
  // Rewrite the length prefix to only cover half the body, producing a
  // syntactically complete frame with a truncated query inside.
  ByteWriter w;
  uint32_t half = static_cast<uint32_t>((good.size() - 4) / 2);
  w.U32(half);
  ASSERT_TRUE(net::SendAll(fd, w.bytes().data(), w.size()));
  ASSERT_TRUE(net::SendAll(fd, good.data() + 4, half));
  auto error = net::ReadFrame(fd, net::kDefaultMaxFrameBytes);
  ASSERT_TRUE(error.has_value());
  EXPECT_EQ(error->type, MsgType::kError);
  net::CloseSocket(fd);
  // Server still healthy.
  EXPECT_EQ(stack.client->Estimate(ChainQuery(30, 250)),
            stack.estimator.Estimate(ChainQuery(30, 250)));
}

TEST(RemoteTest, HandshakeVersionMismatchRejected) {
  RemoteStack stack;
  // A from-the-future version and every retired one (v1 requests lack the
  // model-id field; v2 lacks the trace flag and histogram stats bodies; v3
  // lacks the slow-log suppressed counter; v4 stats bodies carry four
  // counters v5 dropped) must be rejected cleanly at the handshake, never
  // half-spoken.
  for (uint16_t version :
       {uint16_t{99}, uint16_t{1}, uint16_t{2}, uint16_t{3}, uint16_t{4}}) {
    int fd = net::ConnectSocket(stack.server.endpoint());
    net::Hello hello;
    hello.version = version;
    ASSERT_TRUE(net::WriteFrame(fd, MsgType::kHello, 0,
                                net::EncodeHello(hello)));
    auto resp = net::ReadFrame(fd, net::kDefaultMaxFrameBytes);
    ASSERT_TRUE(resp.has_value()) << "version " << version;
    EXPECT_EQ(resp->type, MsgType::kError);
    std::string message = net::DecodeError(resp->body);
    EXPECT_NE(message.find("version"), std::string::npos);
    EXPECT_FALSE(net::ReadFrame(fd, net::kDefaultMaxFrameBytes).has_value());
    net::CloseSocket(fd);
  }
}

TEST(RemoteTest, TracedRequestsCarryServerStageBreakdown) {
  RemoteStack stack;
  Query q = ChainQuery(30, 250);
  auto masks = EnumerateConnectedSubsets(q, 1);

  // Traced batch: same values as untraced, plus a server-side breakdown.
  auto untraced = stack.client->EstimateSubplans(q, masks);
  EstimatorClient::TracedSubplans traced =
      stack.client->EstimateSubplansTraced(q, masks);
  ASSERT_TRUE(traced.has_trace);
  ASSERT_EQ(traced.estimates.size(), untraced.size());
  for (const auto& [mask, value] : untraced) {
    EXPECT_EQ(traced.estimates.at(mask), value);
  }
  // total covers the service-side life of the request; the net stages the
  // server measured for this request (decode at minimum, since a frame was
  // parsed) ride along. respond/socket_write happen after the response
  // body is sealed and can only appear in the aggregate histograms.
  EXPECT_GT(traced.trace.total_micros, 0u);
  EXPECT_EQ(traced.trace.Get(obs::Stage::kRespond), 0u);
  EXPECT_EQ(traced.trace.Get(obs::Stage::kSocketWrite), 0u);

  EstimatorClient::TracedEstimate single =
      stack.client->EstimateTraced(ChainQuery(31, 260));
  ASSERT_TRUE(single.has_trace);
  EXPECT_GT(single.trace.total_micros, 0u);
  EXPECT_EQ(single.estimate, stack.client->Estimate(ChainQuery(31, 260)));

  // Untraced requests stay trace-free on the wire (flag off).
  net::EstimatorClient::TracedSubplans again =
      stack.client->EstimateSubplansTraced(q, masks);
  EXPECT_TRUE(again.has_trace);

  // The aggregate net-stage histograms on the server saw every frame.
  net::ServerStats server_stats = stack.server.Stats();
  EXPECT_GT(
      server_stats.stages[static_cast<size_t>(obs::Stage::kDecode)].count,
      0u);
  EXPECT_GT(server_stats.bytes_received, 0u);
  EXPECT_GT(server_stats.bytes_sent, 0u);
}

TEST(RemoteTest, RequestBeforeHandshakeRejected) {
  RemoteStack stack;
  int fd = net::ConnectSocket(stack.server.endpoint());
  ASSERT_TRUE(net::WriteFrame(fd, MsgType::kStatsReq, 1, {}));
  auto resp = net::ReadFrame(fd, net::kDefaultMaxFrameBytes);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->type, MsgType::kError);
  net::CloseSocket(fd);
}

TEST(RemoteTest, ClientReconnectsAfterServerRestart) {
  Database db = MakeDb();
  FactorJoinConfig config;
  config.num_bins = 32;
  FactorJoinEstimator estimator(db, config);
  EstimatorService service(estimator, {.num_threads = 2});

  auto server = std::make_unique<EstimatorServer>(service);
  server->Start();
  uint16_t port = server->port();

  EstimatorClientOptions client_options;
  client_options.endpoint.port = port;
  client_options.reconnect_attempts = 2;
  client_options.reconnect_backoff_ms = 10;
  EstimatorClient client(client_options);
  Query q = ChainQuery(30, 250);
  EXPECT_EQ(client.Estimate(q), estimator.Estimate(q));

  // Kill the server: outstanding connection dies; the next request fails.
  server.reset();
  EXPECT_THROW(client.Estimate(q), std::runtime_error);

  // Restart on the same port: the client redials on the next request.
  EstimatorServerOptions restart_options;
  restart_options.endpoint.port = port;
  EstimatorServer restarted(service, restart_options);
  restarted.Start();
  EXPECT_EQ(client.Estimate(q), estimator.Estimate(q));
}

// ---------------------------------------------------------------------------
// Multi-model serving (ModelRegistry + protocol-v2 model routing).

// Two differently configured FactorJoin models (16 vs 48 bins — different
// binnings, different bounds) behind one server. "a" additionally goes
// through a snapshot serialize/deserialize round trip before serving, so
// the remote values prove the loaded model is bit-identical.
struct MultiModelStack {
  Database db = MakeDb();
  ModelRegistry registry;
  FactorJoinEstimator trained_a;  // reference models, served via snapshots
  FactorJoinEstimator trained_b;
  net::EstimatorServer server;
  std::unique_ptr<EstimatorClient> client;

  static FactorJoinConfig Config(uint32_t bins) {
    FactorJoinConfig c;
    c.num_bins = bins;
    return c;
  }

  MultiModelStack()
      : trained_a(db, Config(16)), trained_b(db, Config(48)),
        server(registry) {
    registry.AddModel("a", DeserializeEstimator(
                               db, SerializeEstimator(trained_a)),
                      {.num_threads = 2});
    registry.AddModel("b", DeserializeEstimator(
                               db, SerializeEstimator(trained_b)),
                      {.num_threads = 2});
    server.Start();
    EstimatorClientOptions options;
    options.endpoint = server.endpoint();
    client = std::make_unique<EstimatorClient>(options);
    client->Connect();
  }
};

TEST(MultiModelTest, RequestsRouteToTheNamedModel) {
  MultiModelStack stack;
  Query q = ChainQuery(30, 250);
  double a = stack.client->Estimate("a", q);
  double b = stack.client->Estimate("b", q);
  EXPECT_EQ(a, stack.trained_a.Estimate(q));
  EXPECT_EQ(b, stack.trained_b.Estimate(q));
  // 16-bin and 48-bin models genuinely differ on this workload, so the
  // routing assertion cannot pass by accident.
  EXPECT_NE(a, b);
  // "" routes to the default (first-registered) model.
  EXPECT_EQ(stack.client->Estimate("", q), a);
}

TEST(MultiModelTest, SubplansPerModelBitIdentical) {
  MultiModelStack stack;
  Query q = ChainQuery(25, 300);
  std::vector<uint64_t> masks = EnumerateConnectedSubsets(q, 1);
  auto remote_a = stack.client->EstimateSubplans("a", q, masks);
  auto remote_b = stack.client->EstimateSubplans("b", q, masks);
  auto local_a = stack.trained_a.EstimateSubplans(q, masks);
  auto local_b = stack.trained_b.EstimateSubplans(q, masks);
  for (uint64_t mask : masks) {
    EXPECT_EQ(remote_a.at(mask), local_a.at(mask)) << "a mask " << mask;
    EXPECT_EQ(remote_b.at(mask), local_b.at(mask)) << "b mask " << mask;
  }
}

TEST(MultiModelTest, UnknownModelIsARequestErrorNotADrop) {
  MultiModelStack stack;
  Query q = ChainQuery(30, 250);
  try {
    stack.client->Estimate("nope", q);
    FAIL() << "expected RemoteError";
  } catch (const RemoteError& e) {
    std::string message = e.what();
    EXPECT_NE(message.find("unknown model"), std::string::npos);
    EXPECT_NE(message.find("a, b"), std::string::npos);  // lists the models
  }
  // The connection survives; correctly addressed requests still work.
  EXPECT_EQ(stack.client->Estimate("a", q), stack.trained_a.Estimate(q));
  EXPECT_GE(stack.server.Stats().request_errors, 1u);
}

TEST(MultiModelTest, EpochsAndStatsArePerModel) {
  MultiModelStack stack;
  Query q = ChainQuery(30, 250);
  stack.client->Estimate("a", q);
  stack.client->Estimate("b", q);
  EXPECT_EQ(stack.client->NotifyUpdate("a", "orders"), 1u);
  ServiceStats stats_a = stack.client->Stats("a");
  ServiceStats stats_b = stack.client->Stats("b");
  EXPECT_EQ(stats_a.epoch, 1u);
  EXPECT_EQ(stats_b.epoch, 0u);  // "b" never saw the update
  EXPECT_EQ(stats_a.requests, 1u);
  EXPECT_EQ(stats_b.requests, 1u);
}

TEST(RemoteTest, LostConnectionFailsOutstandingFutures) {
  Database db = MakeDb();
  FactorJoinConfig config;
  config.num_bins = 32;
  FactorJoinEstimator estimator(db, config);
  EstimatorService service(estimator, {.num_threads = 1});
  auto server = std::make_unique<EstimatorServer>(service);
  server->Start();
  EstimatorClientOptions client_options;
  client_options.endpoint.port = server->port();
  client_options.reconnect_attempts = 1;
  EstimatorClient client(client_options);
  client.Connect();

  // Requests the server will never answer: stop it while they're parked.
  std::vector<std::future<double>> futures;
  for (int i = 0; i < 4; ++i) {
    futures.push_back(client.EstimateAsync(ChainQuery(20 + i, 400)));
  }
  server.reset();
  size_t failed = 0;
  for (auto& f : futures) {
    try {
      f.get();  // may have been served before the stop — also fine
    } catch (const std::runtime_error&) {
      ++failed;
    }
  }
  SUCCEED() << failed << " of 4 futures failed with the connection";
}

}  // namespace
}  // namespace fj
