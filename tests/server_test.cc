// QueryServer end-to-end over real loopback sockets: protocol framing,
// concurrent sessions golden-diffed against the serial Shell, shared
// plan cache traffic, and cross-session write visibility through the
// snapshot store.

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <functional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "eval/fixpoint.h"
#include "obs/metrics.h"
#include "server/protocol.h"
#include "server/server.h"
#include "shell/shell.h"
#include "util/hash_util.h"
#include "util/string_util.h"

#include "gtest/gtest.h"
#include "test_helpers.h"

namespace semopt {
namespace {

using testing_util::MustParse;
using testing_util::MustParseFacts;

// --- protocol unit tests ---

TEST(ProtocolTest, EncodesTerminatorAndDotEscapes) {
  EXPECT_EQ(EncodeResponse(""), ".\n");
  EXPECT_EQ(EncodeResponse("hello"), "hello\n.\n");
  EXPECT_EQ(EncodeResponse("a\nb"), "a\nb\n.\n");
  // Lines starting with '.' double the dot; a body line of exactly "."
  // therefore survives transport.
  EXPECT_EQ(EncodeResponse(".load failed"), "..load failed\n.\n");
  EXPECT_EQ(EncodeResponse("x\n.\ny"), "x\n..\ny\n.\n");
}

TEST(ProtocolTest, DecodeReversesTheEscape) {
  EXPECT_EQ(DecodeBodyLine("plain"), "plain");
  EXPECT_EQ(DecodeBodyLine("..load failed"), ".load failed");
  EXPECT_EQ(DecodeBodyLine(".."), ".");
}

TEST(ProtocolTest, LineBufferSplitsAndStripsCrLf) {
  LineBuffer buffer;
  buffer.Feed("one\r\ntwo\nthr");
  EXPECT_EQ(buffer.PopLine(), "one");
  EXPECT_EQ(buffer.PopLine(), "two");
  EXPECT_FALSE(buffer.PopLine().has_value());
  buffer.Feed("ee\n");
  EXPECT_EQ(buffer.PopLine(), "three");
}

TEST(ProtocolTest, LineBufferDrainsAPipelinedBurstInOrder) {
  // 10k lines arrive before the first is popped: every third is
  // "\r\n"-terminated, and the burst is fed in uneven chunks so lines
  // (and some "\r\n" pairs) straddle Feed boundaries.
  constexpr int kLines = 10000;
  std::string burst;
  std::vector<std::string> want;
  for (int i = 0; i < kLines; ++i) {
    want.push_back("e(" + std::to_string(i) + ", " + std::to_string(i * 7) +
                   ").");
    burst += want.back();
    burst += i % 3 == 0 ? "\r\n" : "\n";
  }
  LineBuffer buffer;
  size_t pos = 0;
  for (size_t chunk = 1; pos < burst.size(); chunk = chunk % 37 + 1) {
    buffer.Feed(std::string_view(burst).substr(pos, chunk));
    pos += chunk;
  }
  std::vector<std::string> got;
  while (std::optional<std::string> line = buffer.PopLine()) {
    got.push_back(*line);
  }
  EXPECT_EQ(got, want);

  // Interleaved feeding and popping keeps working after compaction.
  buffer.Feed("tail\r");
  EXPECT_FALSE(buffer.PopLine().has_value());
  buffer.Feed("\nnext\n");
  EXPECT_EQ(buffer.PopLine(), "tail");
  EXPECT_EQ(buffer.PopLine(), "next");
  EXPECT_FALSE(buffer.PopLine().has_value());
}

TEST(ProtocolTest, LineBufferPopsAMegabyteLineFedByteByByte) {
  // The server pops after every recv chunk; a search that rescanned the
  // whole pending line each time would compare ~5 * 10^11 bytes here.
  const std::string line(size_t{1} << 20, 'x');
  LineBuffer buffer;
  for (char c : line) {
    buffer.Feed(std::string_view(&c, 1));
    ASSERT_FALSE(buffer.PopLine().has_value());
  }
  buffer.Feed("\nnext\n");
  EXPECT_EQ(buffer.PopLine(), line);
  EXPECT_EQ(buffer.PopLine(), "next");
  EXPECT_FALSE(buffer.overflowed());
}

TEST(ProtocolTest, LineBufferOverflowsPastTheCap) {
  // Exactly the cap is still a line.
  LineBuffer fits;
  fits.Feed(std::string(LineBuffer::kMaxLineBytes, 'a'));
  EXPECT_FALSE(fits.PopLine().has_value());
  fits.Feed("\n");
  std::optional<std::string> line = fits.PopLine();
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(line->size(), LineBuffer::kMaxLineBytes);
  EXPECT_FALSE(fits.overflowed());

  // One byte more, unterminated, overflows: the bytes are released and
  // the buffer takes no more input, complete lines included.
  LineBuffer over;
  over.Feed("ok\n");
  EXPECT_EQ(over.PopLine(), "ok");
  over.Feed(std::string(LineBuffer::kMaxLineBytes + 1, 'b'));
  EXPECT_FALSE(over.PopLine().has_value());
  EXPECT_TRUE(over.overflowed());
  over.Feed("\nlater\n");
  EXPECT_FALSE(over.PopLine().has_value());
}

// --- socket test client ---

/// Minimal blocking client for tests: send one request line, read one
/// dot-terminated response, return the decoded body.
class TestClient {
 public:
  explicit TestClient(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    EXPECT_EQ(
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0)
        << std::strerror(errno);
  }
  ~TestClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  std::string Request(const std::string& line) {
    SendRaw(line + "\n");
    return ReadResponse();
  }

  /// Sends `bytes` as they are, with no terminator added.
  void SendRaw(std::string_view bytes) {
    while (!bytes.empty()) {
      ssize_t n = ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        ADD_FAILURE() << "send failed: " << std::strerror(errno);
        return;
      }
      bytes.remove_prefix(static_cast<size_t>(n));
    }
  }

  /// Reads one dot-terminated response and returns the decoded body.
  std::string ReadResponse() {
    std::string body;
    bool first = true;
    char buf[4096];
    while (true) {
      while (true) {
        std::optional<std::string> received = lines_.PopLine();
        if (!received.has_value()) break;
        if (*received == ".") return body;
        if (!first) body += "\n";
        body += DecodeBodyLine(*received);
        first = false;
      }
      ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) {
        ADD_FAILURE() << "connection closed mid-response";
        return body;
      }
      lines_.Feed(std::string_view(buf, static_cast<size_t>(n)));
    }
  }

  /// True when the server has closed the connection and nothing more
  /// is buffered.
  bool Closed() {
    char byte;
    return !lines_.PopLine().has_value() && ::recv(fd_, &byte, 1, 0) == 0;
  }

 private:
  int fd_ = -1;
  LineBuffer lines_;
};

// --- server tests ---

TEST(QueryServerTest, ServesTheShellCommandSetOverASocket) {
  QueryServer server(MustParseFacts("e(a, b). e(b, c). e(c, d)."));
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.port(), 0);

  TestClient client(server.port());
  EXPECT_EQ(client.Request("t(X, Y) :- e(X, Y)."), "added 1 rule(s)");
  EXPECT_EQ(client.Request("t(X, Z) :- t(X, Y), e(Y, Z)."),
            "added 1 rule(s)");
  EXPECT_EQ(client.Request("?- t(a, Y)."), "Y=b\nY=c\nY=d\n3 answer(s)");
  EXPECT_EQ(client.Request(".db"), "e/2: 3 tuple(s)\n3 tuple(s) total");
  EXPECT_EQ(client.Request("% comment"), "");
  EXPECT_EQ(client.Request(".quit"), "bye");
  server.Stop();
  EXPECT_EQ(server.sessions_served(), 1u);
}

TEST(QueryServerTest, EightConcurrentSessionsMatchTheSerialShell) {
  // The acceptance bar of the serving subsystem: 8 sessions running
  // the same script concurrently against one shared database must each
  // produce byte-identical output to the serial Shell running that
  // script alone. Scripts are read-only on the database (rules are
  // session-private), so the serial reference is deterministic.
  const std::vector<std::string> script = {
      "t(X, Y) :- e(X, Y).",
      "t(X, Z) :- t(X, Y), e(Y, Z).",
      "?- t(0, Y), Y > 17.",
      "?- e(X, Y), e(Y, Z), Z > 18.",
      ".program",
      "?- t(X, 20), X < 3.",
  };

  std::string fact_text;
  for (int i = 0; i < 20; ++i) {
    fact_text += "e(" + std::to_string(i) + ", " + std::to_string(i + 1) +
                 "). ";
  }

  // Serial reference.
  std::vector<std::string> expected;
  {
    Shell shell;
    shell.Execute(fact_text);
    for (const std::string& line : script) {
      expected.push_back(shell.Execute(line));
    }
  }

  QueryServer::Options options;
  options.sched.max_heavy = 3;  // force heavy queries to queue
  QueryServer server(MustParseFacts(fact_text), options);
  ASSERT_TRUE(server.Start().ok());

  const int kSessions = 8;
  std::vector<std::vector<std::string>> outputs(kSessions);
  std::vector<std::thread> sessions;
  for (int s = 0; s < kSessions; ++s) {
    sessions.emplace_back([&, s] {
      TestClient client(server.port());
      for (const std::string& line : script) {
        outputs[s].push_back(client.Request(line));
      }
    });
  }
  for (std::thread& t : sessions) t.join();
  server.Stop();

  for (int s = 0; s < kSessions; ++s) {
    EXPECT_EQ(outputs[s], expected) << "session " << s;
  }
  EXPECT_EQ(server.sessions_served(), static_cast<uint64_t>(kSessions));

  // Those 8 sessions planned through one shared cache: the first
  // session's misses became everyone else's hits.
  EXPECT_GT(server.plan_cache().hits(), 0u);
  EXPECT_GT(server.plan_cache().size(), 0u);
}

TEST(QueryServerTest, WritesPublishAcrossSessions) {
  QueryServer server(MustParseFacts("e(a, b)."));
  ASSERT_TRUE(server.Start().ok());

  TestClient writer(server.port());
  TestClient reader(server.port());
  EXPECT_EQ(reader.Request(".db"), "e/2: 1 tuple(s)\n1 tuple(s) total");

  const uint64_t epoch_before = server.store().epoch();
  EXPECT_EQ(writer.Request("e(b, c). e(c, d)."), "added 2 fact(s)");
  EXPECT_EQ(server.store().epoch(), epoch_before + 1);

  // The write is one published generation: the other session's next
  // read sees both facts.
  EXPECT_EQ(reader.Request(".db"), "e/2: 3 tuple(s)\n3 tuple(s) total");
  server.Stop();
}

TEST(QueryServerTest, SessionProgramsAreIsolated) {
  QueryServer server(MustParseFacts("e(a, b)."));
  ASSERT_TRUE(server.Start().ok());

  TestClient one(server.port());
  TestClient two(server.port());
  EXPECT_EQ(one.Request("t(X, Y) :- e(X, Y)."), "added 1 rule(s)");
  // Session one can query through its rule; session two never sees it.
  EXPECT_EQ(one.Request("?- t(X, Y)."), "X=a, Y=b\n1 answer(s)");
  EXPECT_EQ(two.Request(".program"), "(empty program)");
  server.Stop();
}

TEST(QueryServerTest, MaintainedViewTracksWrites) {
  QueryServer server(MustParseFacts("e(a, b). e(b, c). e(c, d)."));
  ASSERT_TRUE(server.Start().ok());

  TestClient writer(server.port());
  EXPECT_EQ(writer.Request("t(X, Y) :- e(X, Y)."), "added 1 rule(s)");
  EXPECT_EQ(writer.Request("t(X, Z) :- t(X, Y), e(Y, Z)."),
            "added 1 rule(s)");
  std::string mat = writer.Request(".materialize");
  EXPECT_NE(mat.find("materialized 6 idb tuple(s)"), std::string::npos)
      << mat;

  // A rule-less session reads the published IDB as plain base facts:
  // light queries, no fixpoint.
  TestClient reader(server.port());
  EXPECT_EQ(reader.Request("?- t(a, Y)."), "Y=b\nY=c\nY=d\n3 answer(s)");

  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  const uint64_t batches_before =
      registry.GetCounter("eval.ivm.batches").value();
  const uint64_t net_deleted_before =
      registry.GetCounter("eval.ivm.net_deleted").value();

  // A delete batch: published as one generation, so the reader's next
  // pinned snapshot sees the severed closure — and it was served by
  // incremental maintenance (the eval.ivm counters move; nothing else
  // publishes them), not by recomputing the fixpoint.
  std::string retract = writer.Request("~ e(b, c).");
  EXPECT_NE(retract.find("retracted 1 fact(s)"), std::string::npos)
      << retract;
  EXPECT_EQ(reader.Request("?- t(a, Y)."), "Y=b\n1 answer(s)");
  EXPECT_EQ(reader.Request("?- t(c, Y)."), "Y=d\n1 answer(s)");
  EXPECT_EQ(registry.GetCounter("eval.ivm.batches").value(),
            batches_before + 1);
  EXPECT_GT(registry.GetCounter("eval.ivm.net_deleted").value(),
            net_deleted_before);

  // Re-adding the edge through the same maintained write path restores
  // the closure for the next snapshot.
  EXPECT_EQ(writer.Request("e(b, c)."), "added 1 fact(s)");
  EXPECT_EQ(reader.Request("?- t(a, Y)."), "Y=b\nY=c\nY=d\n3 answer(s)");
  server.Stop();
}

TEST(QueryServerTest, RetractionWithoutViewIsAPlainWrite) {
  QueryServer server(MustParseFacts("e(a, b). e(b, c)."));
  ASSERT_TRUE(server.Start().ok());
  TestClient client(server.port());
  EXPECT_EQ(client.Request("~ e(a, b)."), "retracted 1 fact(s)");
  // Absent facts are no-ops, reported as such.
  EXPECT_EQ(client.Request("~ e(a, b)."), "retracted 0 fact(s) (1 absent)");
  EXPECT_EQ(client.Request(".db"), "e/2: 1 tuple(s)\n1 tuple(s) total");
  server.Stop();
}

// --- delta publishing through DatabaseHost::ApplyUpdate ---

/// The query server's host shape without the sockets: reads pin the
/// store's head, writes go through Mutate / ApplyDelta.
class StoreHost : public DatabaseHost {
 public:
  explicit StoreHost(Database initial) : store_(std::move(initial)) {}
  DatabaseSnapshot Snapshot() override { return store_.Pin(); }
  Result<uint64_t> ApplyWrite(
      const std::function<Status(Database*)>& fn) override {
    return store_.Mutate(fn);
  }
  Result<uint64_t> ApplyDelta(const SnapshotStore::DeltaFn& fn) override {
    return store_.ApplyDelta(fn);
  }
  PlanCacheInterface* plan_cache() override { return &cache_; }

 private:
  SnapshotStore store_;
  PlanCache cache_;
};

/// Every fact of `db` as text, order-insensitive — a generation's
/// fingerprint for the "pinned generations never change" check.
std::multiset<std::string> FactsOf(const Database& db) {
  std::multiset<std::string> facts;
  for (const PredicateId& pred : db.Predicates()) {
    for (RowRef row : db.Find(pred)->rows()) {
      facts.insert(StrCat(pred.ToString(), TupleToString(row)));
    }
  }
  return facts;
}

/// `head` restricted to the non-IDB predicates, plus a from-scratch
/// Evaluate of `program` over them: what a maintained head must hold.
Database ExpectedHead(const Program& program, const Database& head) {
  const std::set<PredicateId> idb_preds = program.IdbPredicates();
  Database expected;
  for (const PredicateId& pred : head.Predicates()) {
    if (idb_preds.count(pred) > 0) continue;
    Relation& rel = expected.GetOrCreate(pred);
    for (RowRef row : head.Find(pred)->rows()) rel.Insert(row);
  }
  Result<Database> idb = Evaluate(program, expected);
  EXPECT_TRUE(idb.ok()) << idb.status();
  if (idb.ok()) expected.CopyRelationsFrom(*idb);
  return expected;
}

TEST(DeltaPublishDifferentialTest, ViewWritesMatchFromScratchUnderPins) {
  // Random add/retract batches through ApplyUpdate with a maintained
  // view. Simulated readers hold pins for random spans (measured in
  // batches, so nothing depends on timing): kept copies are recycled
  // whenever no pin holds them and deep-copied otherwise. After every
  // batch the head must equal a from-scratch fixpoint of its own EDB,
  // and every still-pinned generation must be exactly what it was.
  const char* kPrograms[] = {
      R"(reach(Y) :- src(X), e(X, Y).
         reach(Y) :- reach(X), e(X, Y).
         linked(X, Y) :- e(X, Y), src(X).
         dark(X) :- node(X), not reach(X).)",
      R"(t(X, Y) :- e(X, Y).
         t(X, Z) :- t(X, Y), e(Y, Z).
         hub(X) :- t(X, Y), t(Y, X).)",
  };
  constexpr int kNodes = 12;
  for (const char* source : kPrograms) {
    SCOPED_TRACE(source);
    SplitMix64 rng(91);
    Database base;
    base.AddTuple("src", {Term::Int(0)});
    for (int n = 0; n < kNodes; ++n) base.AddTuple("node", {Term::Int(n)});
    auto random_edge = [&rng]() {
      return Atom("e", {Term::Int(static_cast<int64_t>(rng.Below(kNodes))),
                        Term::Int(static_cast<int64_t>(rng.Below(kNodes)))});
    };
    for (int i = 0; i < 14; ++i) {
      ASSERT_TRUE(base.AddFact(random_edge()).ok());
    }
    const Program program = MustParse(source);
    StoreHost host(std::move(base));
    ASSERT_TRUE(host.Materialize(program, EvalOptions()).ok());

    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    const uint64_t cloned_before =
        registry.GetCounter("storage.snapshot.relations_cloned").value();
    const uint64_t reused_before =
        registry.GetCounter("storage.snapshot.relations_reused").value();
    struct Pinned {
      DatabaseSnapshot snap;
      std::multiset<std::string> facts;
      int release_after = 0;
    };
    std::vector<Pinned> pinned;
    for (int batch = 0; batch < 60; ++batch) {
      if (rng.Below(3) == 0) {
        Pinned p;
        p.snap = host.Snapshot();
        p.facts = FactsOf(p.snap.db());
        p.release_after = batch + static_cast<int>(rng.Below(5));
        pinned.push_back(std::move(p));
      }
      std::vector<Atom> adds, dels;
      const int n_adds = static_cast<int>(rng.Below(4));
      const int n_dels = static_cast<int>(rng.Below(4));
      for (int i = 0; i < n_adds; ++i) adds.push_back(random_edge());
      for (int i = 0; i < n_dels; ++i) dels.push_back(random_edge());
      ASSERT_TRUE(host.ApplyUpdate(adds, dels).ok());

      DatabaseSnapshot head = host.Snapshot();
      ASSERT_TRUE(head.db().SameFactsAs(ExpectedHead(program, head.db())))
          << "batch " << batch << "\n"
          << head.db().ToString();
      for (const Pinned& p : pinned) {
        ASSERT_EQ(FactsOf(p.snap.db()), p.facts) << "batch " << batch;
      }
      std::erase_if(pinned, [batch](const Pinned& p) {
        return p.release_after <= batch;
      });
    }
    // Both publishing paths ran: kept copies recycled, and deep copies
    // while a pin held them.
    EXPECT_GT(registry.GetCounter("storage.snapshot.relations_reused").value(),
              reused_before);
    EXPECT_GT(registry.GetCounter("storage.snapshot.relations_cloned").value(),
              cloned_before);
  }
}

TEST(DeltaPublishDifferentialTest, RejectedBatchLeavesTheHeadUnchanged) {
  // A batch that mixes valid `e` edges with an IDB fact, or with a
  // non-ground fact, fails as a whole: the view rejects it before its
  // EDB moves, so nothing publishes and the next valid batch still
  // maintains the head exactly.
  const Program program = MustParse(R"(t(X, Y) :- e(X, Y).
                                       t(X, Z) :- t(X, Y), e(Y, Z).)");
  StoreHost host(MustParseFacts("e(1, 2). e(2, 3). e(3, 4)."));
  ASSERT_TRUE(host.Materialize(program, EvalOptions()).ok());
  auto edge = [](int a, int b) {
    return Atom("e", {Term::Int(a), Term::Int(b)});
  };
  const Atom bad_facts[] = {Atom("t", {Term::Int(1), Term::Int(9)}),
                            Atom("e", {Term::Var("X"), Term::Int(9)})};
  int round = 0;
  for (const Atom& bad : bad_facts) {
    SCOPED_TRACE(bad.ToString());
    const std::multiset<std::string> before = FactsOf(host.Snapshot().db());
    EXPECT_FALSE(
        host.ApplyUpdate({edge(4, 5), bad, edge(5, 6)}, {edge(1, 2)}).ok());
    EXPECT_FALSE(host.ApplyUpdate({edge(4, 5)}, {edge(1, 2), bad}).ok());
    EXPECT_EQ(FactsOf(host.Snapshot().db()), before);

    const Atom added = edge(4, 5 + round);
    const Atom deleted = edge(1 + round, 2 + round);
    ASSERT_TRUE(host.ApplyUpdate({added}, {deleted}).ok());
    DatabaseSnapshot head = host.Snapshot();
    const Relation* e = head.db().Find(added.pred_id());
    ASSERT_NE(e, nullptr);
    EXPECT_TRUE(e->Contains(*FactTuple(added)));
    EXPECT_FALSE(e->Contains(*FactTuple(deleted)));
    EXPECT_TRUE(head.db().SameFactsAs(ExpectedHead(program, head.db())))
        << head.db().ToString();
    ++round;
  }
}

TEST(DeltaPublishDifferentialTest, PlainWritesWithoutAView) {
  // The no-view `fact.` / `~ fact.` path publishes through the same
  // delta write: the head tracks a reference set exactly, a tuple
  // retracted and re-added in one batch stays, and the reported counts
  // are the net change.
  StoreHost host(Database{});
  std::set<std::pair<int, int>> want;
  SplitMix64 rng(5);
  for (int batch = 0; batch < 40; ++batch) {
    std::vector<Atom> adds, dels;
    std::set<std::pair<int, int>> next = want;
    for (int i = 0; i < 3; ++i) {
      const int a = static_cast<int>(rng.Below(4));
      const int b = static_cast<int>(rng.Below(4));
      dels.push_back(Atom("e", {Term::Int(a), Term::Int(b)}));
      next.erase({a, b});
    }
    for (int i = 0; i < 3; ++i) {
      const int a = static_cast<int>(rng.Below(4));
      const int b = static_cast<int>(rng.Below(4));
      adds.push_back(Atom("e", {Term::Int(a), Term::Int(b)}));
      next.insert({a, b});
    }
    Result<IvmStats> stats = host.ApplyUpdate(adds, dels);
    ASSERT_TRUE(stats.ok());
    size_t gone = 0, fresh = 0;
    for (const auto& edge : want) gone += next.count(edge) == 0 ? 1 : 0;
    for (const auto& edge : next) fresh += want.count(edge) == 0 ? 1 : 0;
    EXPECT_EQ(stats->edb_deleted, gone) << "batch " << batch;
    EXPECT_EQ(stats->edb_inserted, fresh) << "batch " << batch;
    want = std::move(next);
    DatabaseSnapshot head = host.Snapshot();
    EXPECT_EQ(testing_util::RelationSize(head.db(), "e", 2), want.size());
    for (const auto& [a, b] : want) {
      EXPECT_TRUE(head.db().Find(PredicateId{InternSymbol("e"), 2})
                      ->Contains(Tuple{Term::Int(a), Term::Int(b)}));
    }
  }
}

TEST(QueryServerTest, OverlongLineGetsAnErrorAndClosesOnlyThatSession) {
  QueryServer server(MustParseFacts("e(a, b)."));
  ASSERT_TRUE(server.Start().ok());
  TestClient bystander(server.port());
  EXPECT_EQ(bystander.Request(".db e/2"), "e(a, b).");

  // One byte past the cap, never terminated: the server reads it all,
  // answers once and hangs up.
  TestClient flooder(server.port());
  flooder.SendRaw(std::string(LineBuffer::kMaxLineBytes + 1, 'x'));
  EXPECT_NE(flooder.ReadResponse().find("request line longer than"),
            std::string::npos);
  EXPECT_TRUE(flooder.Closed());

  EXPECT_EQ(bystander.Request(".db e/2"), "e(a, b).");
  server.Stop();
}

TEST(QueryServerTest, StopDisconnectsIdleSessions) {
  QueryServer server(Database{});
  ASSERT_TRUE(server.Start().ok());
  TestClient idle(server.port());
  EXPECT_EQ(idle.Request(".db"), "0 tuple(s) total");
  // Stop must not hang on the connected-but-quiet session.
  server.Stop();
}

}  // namespace
}  // namespace semopt
