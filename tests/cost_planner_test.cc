// Unit tests for the cost-based join-order enumerator behind
// PlannerMode::kCost: the memoized DP over (bound-variable set,
// remaining-literal set), the distinct-sketch cost model, the runtime
// feedback corrections, and the Prepare integration (explicit order,
// plan annotation, greedy fallback outside the enumerable envelope).

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

TEST(CostFeedbackTest, CorrectionStartsAtOneThenTracksAndClamps) {
  CostFeedback& fb = CostFeedback::Global();
  fb.Reset();

  // No executions recorded: neutral correction.
  EXPECT_DOUBLE_EQ(fb.CorrectionFor("r0", 0), 1.0);

  // Underestimate by 4x: the correction is (actual+1)/(estimated+1).
  CostFeedback::Cell* cell = fb.CellFor("r0", 0);
  cell->executions.fetch_add(1);
  cell->estimated_bindings.fetch_add(99);
  cell->actual_bindings.fetch_add(399);
  EXPECT_DOUBLE_EQ(fb.CorrectionFor("r0", 0), 4.0);

  // Gross underestimate clamps at 64x …
  CostFeedback::Cell* high = fb.CellFor("r0", 1);
  high->executions.fetch_add(1);
  high->estimated_bindings.fetch_add(1);
  high->actual_bindings.fetch_add(1000000);
  EXPECT_DOUBLE_EQ(fb.CorrectionFor("r0", 1), 64.0);

  // … and an estimate of thousands against an observed zero clamps at
  // 1/64 (zero-row feedback still corrects hard).
  CostFeedback::Cell* low = fb.CellFor("r0", 2);
  low->executions.fetch_add(1);
  low->estimated_bindings.fetch_add(100000);
  EXPECT_DOUBLE_EQ(fb.CorrectionFor("r0", 2), 1.0 / 64.0);
  fb.Reset();
}

TEST(CostPlannerTest, FallsBackOutsideTheEnumerableEnvelope) {
  // One literal: nothing to order.
  std::vector<CostPlanner::LiteralInput> one = {Lit(0, 10, {0, 1}, {10, 10})};
  EXPECT_FALSE(CostPlanner::Enumerate("r", one, -1).has_value());

  // More than 16 literals: outside the 2^16-state memo.
  std::vector<CostPlanner::LiteralInput> many;
  for (size_t i = 0; i < 17; ++i) many.push_back(Lit(i, 10, {0}, {10}));
  EXPECT_FALSE(CostPlanner::Enumerate("r", many, -1).has_value());

  // A frame slot beyond the 64-bit bound-set bitmask.
  std::vector<CostPlanner::LiteralInput> wide = {
      Lit(0, 10, {0, 64}, {10, 10}), Lit(1, 10, {64, 1}, {10, 10})};
  EXPECT_FALSE(CostPlanner::Enumerate("r", wide, -1).has_value());
}

TEST(CostPlannerTest, PicksTheLowFanOutOrderGreedySizeTieBreakMisses) {
  CostFeedback::Global().Reset();
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
      CostPlanner::Enumerate("r_fanout", lits, -1);
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
  CostFeedback::Global().Reset();
  // A 4-literal chain: every permutation prefix covering the same
  // literal subset reaches the same (bound set, remaining set) state,
  // so the DP must hit its memo instead of re-walking the subtree.
  std::vector<CostPlanner::LiteralInput> lits = {
      Lit(0, 10, {0, 1}, {10, 10}), Lit(1, 10, {1, 2}, {10, 10}),
      Lit(2, 10, {2, 3}, {10, 10}), Lit(3, 10, {3, 4}, {10, 10})};
  std::optional<CostPlanner::Result> result =
      CostPlanner::Enumerate("r_chain", lits, -1);
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
  CostFeedback::Global().Reset();
  // The partitioned engine rotates the delta occurrence to the front;
  // for the enumerator that is a constraint on the search space, not a
  // post-pass — even when the pinned literal is the costliest opener.
  std::vector<CostPlanner::LiteralInput> lits = {
      Lit(0, 10, {0, 1}, {10, 10}), Lit(1, 5000, {1, 2}, {10, 5000}),
      Lit(2, 10, {2, 3}, {10, 10})};
  std::optional<CostPlanner::Result> result =
      CostPlanner::Enumerate("r_forced", lits, /*force_first=*/1);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->order.front(), 1u);
}

TEST(CostPlannerTest, FeedbackCorrectionFlipsTheChosenOrder) {
  CostFeedback& fb = CostFeedback::Global();
  fb.Reset();
  // On sketches alone, scanning the smaller literal 0 first wins.
  std::vector<CostPlanner::LiteralInput> lits = {
      Lit(0, 80, {0, 1}, {80, 10}), Lit(1, 100, {1, 2}, {10, 100})};
  std::optional<CostPlanner::Result> cold =
      CostPlanner::Enumerate("r_fb", lits, -1);
  ASSERT_TRUE(cold.has_value());
  EXPECT_EQ(cold->order, (std::vector<size_t>{0, 1}));

  // Runtime feedback says literal 0 produced ~64x the bindings the
  // model estimated: the correction re-prices it and the enumerator
  // flips to scanning literal 1 first.
  CostFeedback::Cell* cell = fb.CellFor("r_fb", 0);
  cell->executions.fetch_add(1);
  cell->estimated_bindings.fetch_add(100);
  cell->actual_bindings.fetch_add(6400);
  std::optional<CostPlanner::Result> warm =
      CostPlanner::Enumerate("r_fb", lits, -1);
  ASSERT_TRUE(warm.has_value());
  EXPECT_EQ(warm->order, (std::vector<size_t>{1, 0}));
  fb.Reset();
}

// --- Prepare integration ---

/// src/hub/filt with hub smallest but fanning out on B: greedy's
/// smallest-relation tie-break opens with hub; the cost planner starts
/// from src and keeps hub last.
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
  CostFeedback::Global().Reset();
  Database db = FanOutDatabase();
  DatabaseSource source(&db);
  Result<RuleExecutor> exec = RuleExecutor::Create(
      MustParseRule("q(A, C) :- src(A, B), hub(B, C), filt(A, C)"));
  ASSERT_TRUE(exec.ok());

  Result<RuleExecutor::PreparedPlan> greedy = exec->Prepare(
      source, -1, /*size_aware=*/true, /*partition=*/false,
      PlannerMode::kGreedy);
  ASSERT_TRUE(greedy.ok());
  const std::string greedy_text = exec->DescribePlan(*greedy);
  EXPECT_NE(greedy_text.find("1. hub(B, C)"), std::string::npos)
      << greedy_text;
  EXPECT_NE(greedy_text.find("planner: greedy"), std::string::npos)
      << greedy_text;
  EXPECT_EQ(greedy_text.find("est~"), std::string::npos) << greedy_text;

  Result<RuleExecutor::PreparedPlan> cost = exec->Prepare(
      source, -1, /*size_aware=*/true, /*partition=*/false,
      PlannerMode::kCost);
  ASSERT_TRUE(cost.ok());
  const std::string cost_text = exec->DescribePlan(*cost);
  EXPECT_NE(cost_text.find("1. src(A, B)"), std::string::npos) << cost_text;
  EXPECT_NE(cost_text.find("planner: cost"), std::string::npos) << cost_text;
  EXPECT_NE(cost_text.find("est~"), std::string::npos) << cost_text;

  // Both orders derive exactly the reference's tuples.
  const Rule& rule = exec->rule();
  for (PlannerMode mode : {PlannerMode::kGreedy, PlannerMode::kCost}) {
    testing_util::ExpectRuleMatchesReference(rule, db, -1, nullptr, mode);
  }
  EXPECT_GT(testing_util::RunRuleBatched(*exec, source, -1, 1024, nullptr,
                                         true, PlannerMode::kCost)
                .size(),
            0u);
  CostFeedback::Global().Reset();
}

TEST(CostPlannerPrepareTest, SingleLiteralRuleFallsBackToGreedy) {
  CostFeedback::Global().Reset();
  Database db = FanOutDatabase();
  DatabaseSource source(&db);
  Result<RuleExecutor> exec =
      RuleExecutor::Create(MustParseRule("p(A) :- src(A, B)"));
  ASSERT_TRUE(exec.ok());
  Result<RuleExecutor::PreparedPlan> plan = exec->Prepare(
      source, -1, /*size_aware=*/true, /*partition=*/false,
      PlannerMode::kCost);
  ASSERT_TRUE(plan.ok());
  const std::string text = exec->DescribePlan(*plan);
  EXPECT_NE(text.find("planner: cost (greedy fallback)"), std::string::npos)
      << text;
}

}  // namespace
}  // namespace semopt
