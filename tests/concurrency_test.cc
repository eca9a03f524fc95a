// Cross-session concurrency: many threads evaluating read-only over
// ONE shared Database (lazy index builds included) through ONE shared
// plan cache must produce exactly the serial results. These are the
// TSan differential targets for the concurrent-read contract of
// Relation/Interner and for SharedPlanCache; the scheduler tests below
// cover the admission layer.

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "ast/rename.h"
#include "eval/query.h"
#include "eval/shared_plan_cache.h"
#include "magic/query_paths.h"
#include "server/scheduler.h"
#include "server/session.h"
#include "storage/relation.h"

#include "gtest/gtest.h"
#include "test_helpers.h"

namespace semopt {
namespace {

using testing_util::MustParse;
using testing_util::MustParseFacts;
using testing_util::MustParseLiteral;
using testing_util::RelationRows;

/// A database with a few interlocking relations; queries over it have
/// multi-literal joins so evaluations build probe indexes on demand.
Database BuildSharedEdb() {
  Database db;
  for (int i = 0; i < 60; ++i) {
    EXPECT_TRUE(
        db.AddFact(Atom("e", {Term::Int(i), Term::Int(i + 1)})).ok());
    EXPECT_TRUE(
        db.AddFact(Atom("w", {Term::Int(i), Term::Int(i % 7)})).ok());
  }
  return db;
}

TEST(SharedEvaluationTest, ConcurrentReadersMatchSerialResults) {
  const Database edb = BuildSharedEdb();
  Program program = MustParse(R"(
    t(X, Y) :- e(X, Y).
    t(X, Z) :- t(X, Y), e(Y, Z).
    hop2(X, Z, W) :- e(X, Y), e(Y, Z), w(Z, W).
  )");

  // Serial reference answers, on private copies so the shared-read run
  // below starts from a cold shared database.
  const std::vector<std::string> queries = {"t(X, Y), w(Y, W)",
                                            "hop2(X, Z, W), W > 3",
                                            "e(X, Y), w(Y, W), X > 50"};
  std::vector<std::vector<std::string>> expected;
  for (const std::string& q : queries) {
    Database private_edb = edb.Clone();
    Result<QueryResult> serial = AnswerQuery(program, private_edb, q);
    ASSERT_TRUE(serial.ok()) << serial.status();
    std::vector<std::string> rows;
    for (const Tuple& t : serial->tuples) rows.push_back(TupleToString(t));
    std::sort(rows.begin(), rows.end());
    ASSERT_FALSE(rows.empty());
    expected.push_back(std::move(rows));
  }

  // 8 threads × several rounds, all sharing `edb` and one plan cache.
  // Every thread runs every query; every result must equal serial.
  SharedPlanCache shared_cache;
  EvalOptions options;
  options.plan_cache = &shared_cache;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  const int kThreads = 8, kRounds = 3;
  for (int th = 0; th < kThreads; ++th) {
    threads.emplace_back([&] {
      for (int round = 0; round < kRounds; ++round) {
        for (size_t qi = 0; qi < queries.size(); ++qi) {
          Result<QueryResult> result =
              AnswerQuery(program, edb, queries[qi], options);
          if (!result.ok()) {
            mismatches.fetch_add(1);
            continue;
          }
          std::vector<std::string> rows;
          for (const Tuple& t : result->tuples) {
            rows.push_back(TupleToString(t));
          }
          std::sort(rows.begin(), rows.end());
          if (rows != expected[qi]) mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);

  // The shared cache served every session: far more lookups than
  // entries, so the steady-state traffic was hits.
  EXPECT_GT(shared_cache.hits(), 0u);
  EXPECT_GT(shared_cache.hits(), shared_cache.misses());
  EXPECT_EQ(shared_cache.evictions(), 0u);
}

TEST(SharedEvaluationTest, ConcurrentEnsureIndexBuildsEachIndexOnce) {
  // Many threads demanding overlapping index sets on one relation:
  // every Probe must see a fully-built index, and the relation ends
  // with exactly one index per distinct column set.
  Database db;
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(
        db.AddFact(Atom("r", {Term::Int(i % 50), Term::Int(i % 7),
                              Term::Int(i)}))
            .ok());
  }
  Relation* rel = db.FindMutable(PredicateId{InternSymbol("r"), 3});
  ASSERT_NE(rel, nullptr);

  const std::vector<std::vector<uint32_t>> column_sets = {
      {0}, {1}, {2}, {0, 1}, {1, 2}, {0, 2}};
  std::atomic<int> bad_probes{0};
  std::vector<std::thread> threads;
  for (int th = 0; th < 8; ++th) {
    threads.emplace_back([&, th] {
      // Stagger which index each thread builds first.
      for (size_t k = 0; k < column_sets.size(); ++k) {
        const std::vector<uint32_t>& cols =
            column_sets[(k + th) % column_sets.size()];
        rel->EnsureIndex(cols);
        // Probe through the index for row i=3, whose projection onto
        // every column set is all-3s (3 % 50 == 3 % 7 == 3).
        Tuple key(cols.size(), Term::Int(3));
        if (rel->Probe(cols, key).empty()) bad_probes.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(bad_probes.load(), 0);
  EXPECT_EQ(rel->index_count(), column_sets.size());
}

TEST(SessionSchedulerTest, ClassifiesByIdbReachability) {
  Program program = MustParse(R"(
    t(X, Y) :- e(X, Y).
    t(X, Z) :- t(X, Y), e(Y, Z).
  )");
  std::vector<Literal> heavy = {MustParseLiteral("t(X, Y)")};
  std::vector<Literal> light = {MustParseLiteral("e(X, Y)")};
  std::vector<Literal> mixed = {MustParseLiteral("e(X, Y)"),
                                MustParseLiteral("t(Y, Z)")};
  std::vector<Literal> comparisons_only = {MustParseLiteral("e(X, Y)"),
                                           MustParseLiteral("X > 3")};
  // The class follows the query path: light iff the path is edb.
  auto classify = [&](const std::vector<Literal>& body) {
    std::vector<Term> projection;
    for (SymbolId v : CollectVariables(body)) {
      projection.push_back(Term::Var(v));
    }
    Result<QueryPlan> plan = PlanQuery(program, body, projection);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    return SessionCommandProcessor::Classify(plan->path);
  };
  EXPECT_EQ(classify(heavy), QueryClass::kHeavy);
  EXPECT_EQ(classify(light), QueryClass::kLight);
  EXPECT_EQ(classify(mixed), QueryClass::kHeavy);
  EXPECT_EQ(classify(comparisons_only), QueryClass::kLight);
}

TEST(SessionSchedulerTest, EnforcesPerClassLimits) {
  SessionScheduler scheduler(SessionScheduler::Options{/*max_heavy=*/1,
                                                       /*max_light=*/2});
  SessionScheduler::Ticket first = scheduler.Admit(QueryClass::kHeavy);
  EXPECT_EQ(scheduler.running(QueryClass::kHeavy), 1u);

  // A second heavy admission must wait until the first releases; light
  // admissions are unaffected by the saturated heavy class.
  std::atomic<bool> second_admitted{false};
  std::thread waiter([&] {
    SessionScheduler::Ticket second = scheduler.Admit(QueryClass::kHeavy);
    second_admitted.store(true);
  });
  SessionScheduler::Ticket light = scheduler.Admit(QueryClass::kLight);

  // Give the waiter ample time to (incorrectly) slip through.
  for (int i = 0; i < 50 && scheduler.queued(QueryClass::kHeavy) == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(scheduler.queued(QueryClass::kHeavy), 1u);
  EXPECT_FALSE(second_admitted.load());

  first.Release();
  waiter.join();
  EXPECT_TRUE(second_admitted.load());
  EXPECT_EQ(scheduler.queued(QueryClass::kHeavy), 0u);
}

TEST(SessionSchedulerTest, ManyThreadsNeverExceedTheLimit) {
  SessionScheduler scheduler(SessionScheduler::Options{/*max_heavy=*/3,
                                                       /*max_light=*/3});
  std::atomic<int> running{0};
  std::atomic<int> max_seen{0};
  std::vector<std::thread> threads;
  for (int th = 0; th < 16; ++th) {
    threads.emplace_back([&, th] {
      const QueryClass cls =
          th % 2 == 0 ? QueryClass::kHeavy : QueryClass::kLight;
      for (int i = 0; i < 20; ++i) {
        SessionScheduler::Ticket ticket = scheduler.Admit(cls);
        int now = running.fetch_add(1) + 1;
        int seen = max_seen.load();
        while (now > seen && !max_seen.compare_exchange_weak(seen, now)) {
        }
        std::this_thread::yield();
        running.fetch_sub(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  // Both classes at 3 → at most 6 queries ever ran at once.
  EXPECT_LE(max_seen.load(), 6);
  EXPECT_EQ(scheduler.running(QueryClass::kHeavy), 0u);
  EXPECT_EQ(scheduler.running(QueryClass::kLight), 0u);
}

}  // namespace
}  // namespace semopt
