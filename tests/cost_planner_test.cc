// Unit tests for the cost-based join-order enumerator, the one
// planner behind RuleExecutor::Prepare: the memoized DP over
// (bound-variable set, remaining-literal set), the distinct-sketch cost
// model, and the Prepare integration (explicit order, plan annotation,
// greedy fallback outside the enumerable envelope).

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "eval/cost_planner.h"
#include "eval/rule_executor.h"
#include "storage/database.h"

#include "gtest/gtest.h"
#include "test_helpers.h"

namespace semopt {
namespace {

using testing_util::MustParseRule;

/// Synthetic LiteralInput: a relation of `size` rows whose column c
/// binds frame slot slots[c] and has distinct[c] distinct values.
CostPlanner::LiteralInput Lit(size_t original_index, size_t size,
                              std::vector<uint32_t> slots,
                              std::vector<size_t> distinct) {
  CostPlanner::LiteralInput lit;
  lit.original_index = original_index;
  lit.size = size;
  lit.slots = std::move(slots);
  auto stats = std::make_shared<RelationStats>();
  stats->rows = size;
  stats->distinct = std::move(distinct);
  lit.stats = std::move(stats);
  return lit;
}

TEST(CostPlannerTest, FallsBackOutsideTheEnumerableEnvelope) {
  // One literal: nothing to order.
  std::vector<CostPlanner::LiteralInput> one = {Lit(0, 10, {0, 1}, {10, 10})};
  EXPECT_FALSE(CostPlanner::Enumerate(one, -1).has_value());

  // More than 16 literals: outside the 2^16-state memo.
  std::vector<CostPlanner::LiteralInput> many;
  for (size_t i = 0; i < 17; ++i) many.push_back(Lit(i, 10, {0}, {10}));
  EXPECT_FALSE(CostPlanner::Enumerate(many, -1).has_value());

  // A frame slot beyond the 64-bit bound-set bitmask.
  std::vector<CostPlanner::LiteralInput> wide = {
      Lit(0, 10, {0, 64}, {10, 10}), Lit(1, 10, {64, 1}, {10, 10})};
  EXPECT_FALSE(CostPlanner::Enumerate(wide, -1).has_value());
}

TEST(CostPlannerTest, PicksTheLowFanOutOrderGreedySizeTieBreakMisses) {
  // q(A, C) :- src(A, B), hub(B, C), filt(A, C).  Slots A=0, B=1, C=2.
  // hub is the smallest relation — the greedy size tie-break schedules
  // it right after src — but it fans out (only 20 distinct B), while
  // filt probed on A is nearly unique. The enumerator must place hub
  // last: src -> filt -> hub.
  std::vector<CostPlanner::LiteralInput> lits = {
      Lit(0, 800, {0, 1}, {800, 20}),     // src: A unique-ish, B skewed
      Lit(1, 900, {1, 2}, {20, 45}),      // hub: smallest distinct B
      Lit(2, 1000, {0, 2}, {1000, 45}),   // filt: A unique
  };
  std::optional<CostPlanner::Result> result =
      CostPlanner::Enumerate(lits, -1);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->order, (std::vector<size_t>{0, 2, 1}));
  ASSERT_EQ(result->est_rows.size(), 3u);
  // src scans all 800 rows; filt probed on unique A stays ~800; hub
  // probed on (B, C) is fully bound and stays ~800 too — no blow-up.
  EXPECT_GT(result->est_rows[0], 700.0);
  EXPECT_LT(result->est_rows[1], 2000.0);
  EXPECT_LT(result->est_rows[2], 2000.0);
}

TEST(CostPlannerTest, MemoizesSharedSubsetStates) {
  // A 4-literal chain: every permutation prefix covering the same
  // literal subset reaches the same (bound set, remaining set) state,
  // so the DP must hit its memo instead of re-walking the subtree.
  std::vector<CostPlanner::LiteralInput> lits = {
      Lit(0, 10, {0, 1}, {10, 10}), Lit(1, 10, {1, 2}, {10, 10}),
      Lit(2, 10, {2, 3}, {10, 10}), Lit(3, 10, {3, 4}, {10, 10})};
  std::optional<CostPlanner::Result> result =
      CostPlanner::Enumerate(lits, -1);
  ASSERT_TRUE(result.has_value());
  EXPECT_GT(result->memo_hits, 0u);
  // At most one state per non-full subset of 4 literals.
  EXPECT_LE(result->memo_states, 15u);
  ASSERT_EQ(result->order.size(), 4u);
  ASSERT_EQ(result->est_rows.size(), 4u);
  std::vector<size_t> sorted = result->order;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<size_t>{0, 1, 2, 3}));
}

TEST(CostPlannerTest, ForceFirstPinsTheDrivingLiteral) {
  // The partitioned engine rotates the delta occurrence to the front;
  // for the enumerator that is a constraint on the search space, not a
  // post-pass — even when the pinned literal is the costliest opener.
  std::vector<CostPlanner::LiteralInput> lits = {
      Lit(0, 10, {0, 1}, {10, 10}), Lit(1, 5000, {1, 2}, {10, 5000}),
      Lit(2, 10, {2, 3}, {10, 10})};
  std::optional<CostPlanner::Result> result =
      CostPlanner::Enumerate(lits, /*force_first=*/1);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->order.front(), 1u);
}

// --- Prepare integration ---

/// src/hub/filt with hub smallest but fanning out on B: a greedy
/// smallest-relation tie-break would open with hub; the cost planner
/// starts from src and keeps hub last.
Database FanOutDatabase() {
  Database db;
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(
        db.AddFact(Atom("src", {Term::Int(i), Term::Int(i % 20)})).ok());
    EXPECT_TRUE(
        db.AddFact(Atom("filt", {Term::Int(i), Term::Int(i % 4)})).ok());
  }
  for (int b = 0; b < 20; ++b) {
    for (int c = 0; c < 4; ++c) {
      EXPECT_TRUE(db.AddFact(Atom("hub", {Term::Int(b), Term::Int(c)})).ok());
    }
  }
  return db;
}

TEST(CostPlannerPrepareTest, CostOrderDivergesFromGreedyAndIsAnnotated) {
  Database db = FanOutDatabase();
  DatabaseSource source(&db);
  Result<RuleExecutor> exec = RuleExecutor::Create(
      MustParseRule("q(A, C) :- src(A, B), hub(B, C), filt(A, C)"));
  ASSERT_TRUE(exec.ok());

  // Greedy's most-bound-then-smallest pick would open with hub (every
  // literal has zero bound columns and hub is the smallest relation).
  Result<RuleExecutor::PreparedPlan> plan = exec->Prepare(source, -1);
  ASSERT_TRUE(plan.ok());
  const std::string text = exec->DescribePlan(*plan);
  EXPECT_NE(text.find("1. src(A, B)"), std::string::npos) << text;
  EXPECT_EQ(text.find("1. hub(B, C)"), std::string::npos) << text;
  EXPECT_NE(text.find("est~"), std::string::npos) << text;

  // The chosen order derives exactly the reference's tuples.
  testing_util::ExpectRuleMatchesReference(exec->rule(), db);
  EXPECT_GT(testing_util::RunRuleBatched(*exec, source, -1, 1024).size(), 0u);
}

TEST(CostPlannerPrepareTest, SingleLiteralRuleFallsBackToGreedy) {
  Database db = FanOutDatabase();
  DatabaseSource source(&db);
  Result<RuleExecutor> exec =
      RuleExecutor::Create(MustParseRule("p(A) :- src(A, B)"));
  ASSERT_TRUE(exec.ok());
  Result<RuleExecutor::PreparedPlan> plan = exec->Prepare(source, -1);
  ASSERT_TRUE(plan.ok());
  // Nothing to enumerate: the greedy pick schedules the one scan and
  // the plan carries no cost estimate.
  const std::string text = exec->DescribePlan(*plan);
  EXPECT_NE(text.find("1. src(A, B)  [scan]"), std::string::npos) << text;
  EXPECT_EQ(text.find("est~"), std::string::npos) << text;
}

}  // namespace
}  // namespace semopt
