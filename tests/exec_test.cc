#include <atomic>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "gtest/gtest.h"

#include "eval/fixpoint.h"
#include "exec/parallel_fixpoint.h"
#include "exec/thread_pool.h"
#include "test_helpers.h"
#include "workload/genealogy.h"
#include "workload/honors.h"
#include "workload/organization.h"
#include "workload/university.h"

namespace semopt {
namespace {

using testing_util::ExpectMatchesReference;
using testing_util::MustParse;
using testing_util::MustParseFacts;
using testing_util::RelationRows;

// ---------------------------------------------------------------- ThreadPool

TEST(ThreadPoolTest, RunsEveryTaskExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  constexpr size_t kTasks = 1000;
  std::vector<std::atomic<int>> hits(kTasks);
  Status status = pool.ParallelFor(kTasks, [&](size_t i) {
    hits[i].fetch_add(1);
    return Status::Ok();
  });
  EXPECT_TRUE(status.ok()) << status;
  for (size_t i = 0; i < kTasks; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPoolTest, SingleThreadRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1u);
  std::vector<size_t> order;
  Status status = pool.ParallelFor(5, [&](size_t i) {
    order.push_back(i);  // no synchronization needed: inline execution
    return Status::Ok();
  });
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4}));
}

TEST(ThreadPoolTest, ZeroTasksIsANoOp) {
  ThreadPool pool(3);
  Status status =
      pool.ParallelFor(0, [&](size_t) { return Status::Internal("no"); });
  EXPECT_TRUE(status.ok());
}

TEST(ThreadPoolTest, PropagatesLowestIndexError) {
  ThreadPool pool(4);
  for (int repeat = 0; repeat < 20; ++repeat) {
    Status status = pool.ParallelFor(64, [&](size_t i) {
      if (i == 7) return Status::InvalidArgument("seven");
      if (i == 40) return Status::Internal("forty");
      return Status::Ok();
    });
    ASSERT_FALSE(status.ok());
    // 40 may be cancelled, 7 never is; if both ran, the lowest index wins.
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(status.message(), "seven");
  }
}

TEST(ThreadPoolTest, ErrorCancelsUnclaimedTail) {
  ThreadPool pool(2);
  std::atomic<int> executed{0};
  Status status = pool.ParallelFor(10000, [&](size_t i) {
    executed.fetch_add(1);
    if (i == 0) return Status::Internal("stop");
    return Status::Ok();
  });
  EXPECT_FALSE(status.ok());
  EXPECT_LT(executed.load(), 10000);
}

TEST(ThreadPoolTest, ConvertsExceptionsToStatus) {
  ThreadPool pool(4);
  Status status = pool.ParallelFor(8, [&](size_t i) -> Status {
    if (i == 3) throw std::runtime_error("boom");
    return Status::Ok();
  });
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_NE(status.message().find("boom"), std::string::npos);
}

TEST(ThreadPoolTest, ReusableAcrossManyRounds) {
  ThreadPool pool(4);
  std::atomic<uint64_t> sum{0};
  for (int round = 0; round < 200; ++round) {
    Status status = pool.ParallelFor(32, [&](size_t i) {
      sum.fetch_add(i);
      return Status::Ok();
    });
    ASSERT_TRUE(status.ok());
  }
  EXPECT_EQ(sum.load(), 200u * (31u * 32u / 2));
}

// ------------------------------------------ engine-vs-reference equivalence

EvalOptions Opts(size_t threads) {
  EvalOptions options;
  options.num_threads = threads;
  return options;
}

TEST(ParallelEquivalenceTest, Genealogy) {
  Result<Program> program = GenealogyProgram();
  ASSERT_TRUE(program.ok()) << program.status();
  GenealogyParams params;
  params.num_families = 8;
  params.generations = 5;
  ExpectMatchesReference(*program, GenerateGenealogyDb(params));
}

TEST(ParallelEquivalenceTest, University) {
  Result<Program> program = UniversityProgram();
  ASSERT_TRUE(program.ok()) << program.status();
  UniversityParams params;
  params.num_professors = 40;
  params.num_students = 80;
  ExpectMatchesReference(*program, GenerateUniversityDb(params));
}

TEST(ParallelEquivalenceTest, Organization) {
  Result<Program> program = OrganizationProgram();
  ASSERT_TRUE(program.ok()) << program.status();
  OrganizationParams params;
  params.num_employees = 120;
  ExpectMatchesReference(*program, GenerateOrganizationDb(params));
}

TEST(ParallelEquivalenceTest, Honors) {
  Result<Program> program = HonorsProgram();
  ASSERT_TRUE(program.ok()) << program.status();
  HonorsParams params;
  params.num_students = 100;
  ExpectMatchesReference(*program, GenerateHonorsDb(params));
}

TEST(ParallelEquivalenceTest, MutualRecursionAndNegation) {
  // Stratified negation over mutually recursive even/odd reachability.
  Program program = MustParse(R"(
    num(X) :- succ(X, Y).
    num(Y) :- succ(X, Y).
    even(z).
    even(Y) :- odd(X), succ(X, Y).
    odd(Y) :- even(X), succ(X, Y).
    strange(X) :- num(X), not even(X), not odd(X).
  )");
  Database edb = MustParseFacts(
      "succ(z, a). succ(a, b). succ(b, c). succ(c, d). succ(d, e). "
      "succ(q1, q2).");
  ExpectMatchesReference(program, edb);
}

TEST(ParallelEquivalenceTest, SelfJoinOnRecursivePredicate) {
  Program program = MustParse(R"(
    path(X, Y) :- edge(X, Y).
    path(X, Z) :- path(X, Y), path(Y, Z).
  )");
  Database edb = MustParseFacts(
      "edge(a, b). edge(b, c). edge(c, d). edge(d, e). edge(e, f). "
      "edge(c, a).");
  ExpectMatchesReference(program, edb);
  // Spot-check the transitive closure itself.
  Result<Database> idb = Evaluate(program, edb, Opts(8));
  ASSERT_TRUE(idb.ok());
  EXPECT_FALSE(RelationRows(*idb, "path", 2).empty());
}

TEST(ParallelEvalTest, UnstratifiableProgramFailsLikeSerial) {
  Program program = MustParse("p(X) :- q(X), not p(X).");
  Database edb = MustParseFacts("q(a).");
  Result<Database> serial = Evaluate(program, edb, Opts(1));
  Result<Database> parallel = Evaluate(program, edb, Opts(4));
  ASSERT_FALSE(serial.ok());
  ASSERT_FALSE(parallel.ok());
  EXPECT_EQ(serial.status().code(), parallel.status().code());
}

TEST(ParallelEvalTest, MaxIterationsBudgetApplies) {
  Program program = MustParse(R"(
    path(X, Y) :- edge(X, Y).
    path(X, Z) :- path(X, Y), edge(Y, Z).
  )");
  Database edb = MustParseFacts(
      "edge(n1, n2). edge(n2, n3). edge(n3, n4). edge(n4, n5). "
      "edge(n5, n6). edge(n6, n7). edge(n7, n8).");
  EvalOptions options = Opts(4);
  options.max_iterations = 2;
  Result<Database> result = Evaluate(program, edb, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ParallelEvalTest, AutoThreadCountResolves) {
  EvalOptions options;
  options.num_threads = 0;
  EXPECT_GE(ResolveNumThreads(options), 1u);
  options.num_threads = 6;
  EXPECT_EQ(ResolveNumThreads(options), 6u);
}

TEST(ParallelEvalTest, StatsAreMergedAcrossWorkers) {
  Result<Program> program = GenealogyProgram();
  ASSERT_TRUE(program.ok());
  GenealogyParams params;
  params.num_families = 4;
  Database edb = GenerateGenealogyDb(params);
  EvalStats stats;
  Result<Database> idb =
      Evaluate(*program, edb, Opts(4), &stats);
  ASSERT_TRUE(idb.ok());
  EXPECT_GT(stats.derived_tuples, 0u);
  EXPECT_GT(stats.rule_applications, 0u);
  EXPECT_GT(stats.bindings_explored, 0u);
}

}  // namespace
}  // namespace semopt
