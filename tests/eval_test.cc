#include <cstdint>
#include <limits>
#include <random>

#include "eval/builtins.h"
#include "eval/constraint_check.h"
#include "eval/fixpoint.h"
#include "eval/plan_cache.h"
#include "eval/shared_plan_cache.h"
#include "eval/query.h"
#include "eval/rule_executor.h"

#include "gtest/gtest.h"
#include "test_helpers.h"
#include "util/hash_util.h"

namespace semopt {
namespace {

using testing_util::ExpectRuleMatchesReference;
using testing_util::MustEvaluate;
using testing_util::MustParse;
using testing_util::MustParseConstraint;
using testing_util::MustParseFacts;
using testing_util::MustParseRule;
using testing_util::RelationRows;
using testing_util::RelationSize;
using testing_util::ReferenceEvaluate;
using testing_util::RunRuleBatched;

TEST(BuiltinsTest, CompareValues) {
  EXPECT_LT(CompareValues(Term::Int(1), Term::Int(2)), 0);
  EXPECT_EQ(CompareValues(Term::Int(5), Term::Int(5)), 0);
  EXPECT_LT(CompareValues(Term::Sym("abc"), Term::Sym("abd")), 0);
  // Integers sort before symbols.
  EXPECT_LT(CompareValues(Term::Int(999), Term::Sym("a")), 0);
}

TEST(BuiltinsTest, EvalComparisonAllOps) {
  EXPECT_TRUE(EvalComparisonOp(Term::Int(1), ComparisonOp::kLt, Term::Int(2)));
  EXPECT_TRUE(EvalComparisonOp(Term::Int(2), ComparisonOp::kLe, Term::Int(2)));
  EXPECT_TRUE(EvalComparisonOp(Term::Int(3), ComparisonOp::kGt, Term::Int(2)));
  EXPECT_TRUE(EvalComparisonOp(Term::Int(2), ComparisonOp::kGe, Term::Int(2)));
  EXPECT_TRUE(EvalComparisonOp(Term::Sym("a"), ComparisonOp::kEq, Term::Sym("a")));
  EXPECT_TRUE(EvalComparisonOp(Term::Sym("a"), ComparisonOp::kNe, Term::Sym("b")));
}

TEST(BuiltinsTest, EvalComparisonLiteral) {
  Result<bool> t = EvalComparison(
      Literal::Comparison(Term::Int(3), ComparisonOp::kGt, Term::Int(1)));
  ASSERT_TRUE(t.ok());
  EXPECT_TRUE(*t);
  Result<bool> negated = EvalComparison(
      Literal::NegatedComparison(Term::Int(3), ComparisonOp::kGt, Term::Int(1)));
  ASSERT_TRUE(negated.ok());
  EXPECT_FALSE(*negated);
  EXPECT_FALSE(EvalComparison(Literal::Comparison(Term::Var("X"),
                                                  ComparisonOp::kEq,
                                                  Term::Int(1)))
                   .ok());
  EXPECT_FALSE(
      EvalComparison(Literal::Relational(Atom("p", {}))).ok());
}

std::vector<std::string> RunRule(const Rule& rule, const Database& db) {
  Result<RuleExecutor> exec = RuleExecutor::Create(rule);
  EXPECT_TRUE(exec.ok()) << exec.status();
  std::vector<std::string> out;
  if (!exec.ok()) return out;
  DatabaseSource source(&db);
  exec->Execute(source, -1,
                [&](const TupleBuffer& block) {
                  for (size_t i = 0; i < block.size(); ++i) {
                    out.push_back(TupleToString(block.row(i)));
                  }
                },
                nullptr);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

TEST(RuleExecutorTest, SimpleJoin) {
  Database db = MustParseFacts("e(a, b). e(b, c). e(c, d).");
  Rule rule = MustParseRule("path2(X, Z) :- e(X, Y), e(Y, Z)");
  EXPECT_EQ(RunRule(rule, db),
            (std::vector<std::string>{"(a, c)", "(b, d)"}));
}

TEST(RuleExecutorTest, ComparisonsFilterAndBind) {
  Database db = MustParseFacts("n(1). n(2). n(3). n(4).");
  EXPECT_EQ(RunRule(MustParseRule("big(X) :- n(X), X > 2"), db),
            (std::vector<std::string>{"(3)", "(4)"}));
  EXPECT_EQ(RunRule(MustParseRule("pair(X, Y) :- n(X), Y = X, Y < 2"), db),
            (std::vector<std::string>{"(1, 1)"}));
}

TEST(RuleExecutorTest, ConstantsInBodyProbe) {
  Database db = MustParseFacts("e(a, b). e(a, c). e(b, c).");
  EXPECT_EQ(RunRule(MustParseRule("from_a(Y) :- e(a, Y)"), db),
            (std::vector<std::string>{"(b)", "(c)"}));
}

TEST(RuleExecutorTest, RepeatedVariablesInAtom) {
  Database db = MustParseFacts("e(a, a). e(a, b). e(b, b).");
  EXPECT_EQ(RunRule(MustParseRule("loop(X) :- e(X, X)"), db),
            (std::vector<std::string>{"(a)", "(b)"}));
}

TEST(RuleExecutorTest, NegatedRelationalLiteral) {
  Database db = MustParseFacts("n(a). n(b). n(c). bad(b).");
  EXPECT_EQ(RunRule(MustParseRule("good(X) :- n(X), not bad(X)"), db),
            (std::vector<std::string>{"(a)", "(c)"}));
}

TEST(RuleExecutorTest, NegationOnMissingRelationMeansEmpty) {
  Database db = MustParseFacts("n(a).");
  EXPECT_EQ(RunRule(MustParseRule("good(X) :- n(X), not absent(X)"), db),
            (std::vector<std::string>{"(a)"}));
}

TEST(RuleExecutorTest, FactRuleEmitsOnce) {
  Database db;
  EXPECT_EQ(RunRule(MustParseRule("unit(a, 1)."), db),
            (std::vector<std::string>{"(a, 1)"}));
}

TEST(RuleExecutorTest, HeadConstants) {
  Database db = MustParseFacts("n(x).");
  EXPECT_EQ(RunRule(MustParseRule("tagged(k, X) :- n(X)"), db),
            (std::vector<std::string>{"(k, x)"}));
}

TEST(RuleExecutorTest, RejectsUnsafeRules) {
  EXPECT_FALSE(RuleExecutor::Create(MustParseRule("p(X) :- X > 3")).ok());
  EXPECT_FALSE(
      RuleExecutor::Create(MustParseRule("p(X) :- not q(X)")).ok());
  EXPECT_FALSE(
      RuleExecutor::Create(MustParseRule("p(X, Y) :- q(X)")).ok());
}

TEST(RuleExecutorTest, PlanPutsFiltersEarly) {
  // The comparison on X should be evaluated before joining e, i.e. the
  // plan is [n, X>1 or similar ordering that keeps filters adjacent].
  Rule rule = MustParseRule("p(X, Y) :- n(X), e(X, Y), X > 1");
  Result<RuleExecutor> exec = RuleExecutor::Create(rule);
  ASSERT_TRUE(exec.ok());
  Database db;
  DatabaseSource source(&db);
  Result<RuleExecutor::PreparedPlan> plan = exec->Prepare(source, -1);
  ASSERT_TRUE(plan.ok());
  // X > 1 must come right after n(X), before e probes on X.
  const std::string text = exec->DescribePlan(*plan);
  const size_t scan = text.find("1. n(X)  [scan]");
  const size_t filter = text.find("2. X > 1  [filter]");
  const size_t probe = text.find("3. e(X, Y)  [probe cols 0]");
  EXPECT_NE(scan, std::string::npos) << text;
  EXPECT_NE(filter, std::string::npos) << text;
  EXPECT_NE(probe, std::string::npos) << text;
}

// ---------------------------------------------------- batched execution

TEST(BatchedExecutorTest, MatchesReferenceAcrossLiteralShapes) {
  Database db = MustParseFacts(R"(
    e(a, b). e(a, c). e(b, c). e(c, d). e(d, d).
    n(1). n(2). n(3). n(4).
    bad(b). bad(d).
  )");
  for (const char* rule : {
           "p(X, Z) :- e(X, Y), e(Y, Z)",
           "p(X, Z) :- e(X, Y), e(Y, Z), not bad(Z)",
           "p(X) :- e(X, X)",
           "p(Y) :- e(a, Y)",
           "p(X, Y) :- n(X), n(Y), X < Y",
           "p(X, Y) :- n(X), Y = X, Y < 3",
           "p(k, X) :- n(X), X != 2",
           "p(X, Z) :- e(X, Y), e(Y, Z), e(X, Z)",
       }) {
    ExpectRuleMatchesReference(MustParseRule(rule), db);
  }
}

TEST(BatchedExecutorTest, ColumnarScanChecksMatchAtScale) {
  // Relations past the columnar-scan row threshold, with constant,
  // repeat-variable and bound-slot scan checks over int, symbol and
  // mixed-kind columns — the shapes the ColumnView selection-vector
  // path rewrites. Small relations take the scalar scan; these must
  // agree with the reference either way.
  Database db;
  for (int i = 0; i < 300; ++i) {
    db.AddTuple("big", {Term::Int(i % 9), Term::Int(i % 11), Term::Int(i)});
    db.AddTuple("mix", {i % 4 == 0 ? Value(Term::Sym("tag"))
                                   : Value(Term::Int(i % 13)),
                        Term::Int(i % 7)});
    if (i % 5 == 0) db.AddTuple("probe", {Term::Int(i % 9)});
    if (i % 6 == 0) db.AddTuple("veto", {Term::Int(i % 11)});
  }
  for (const char* rule : {
           "p(Z) :- big(3, Y, Z)",           // kCheckConst (uniform ints)
           "p(X, Z) :- big(X, X, Z)",        // kCheckRepeat
           "p(X, Z) :- probe(X), big(X, 4, Z)",  // kCheckSlot + const
           "p(Y) :- mix(tag, Y)",            // const against a mixed column
           "p(Y) :- mix(3, Y)",              // int const, mixed column
           "p(X, Z) :- probe(X), big(X, Y, Z), not veto(Y)",  // negation
           "p(X, Z) :- big(X, Y, Z), Y < 3, Z > 50",  // comparison filters
       }) {
    ExpectRuleMatchesReference(MustParseRule(rule), db);
  }
}

TEST(BatchedExecutorTest, ArityZeroHeadEmitsOncePerBinding) {
  Database db = MustParseFacts("n(1). n(2). n(3).");
  // ok() is derived once per surviving binding, as the reference does
  // (set semantics dedups later).
  ExpectRuleMatchesReference(MustParseRule("ok() :- n(X), X > 1"), db);
  Result<RuleExecutor> exec =
      RuleExecutor::Create(MustParseRule("ok() :- n(X), X > 1"));
  ASSERT_TRUE(exec.ok());
  DatabaseSource source(&db);
  EXPECT_EQ(RunRuleBatched(*exec, source, -1, 2),
            (std::vector<std::string>{"()", "()"}));
}

TEST(BatchedExecutorTest, ConstantOnlyAndFactBodies) {
  Database db = MustParseFacts("present(a).");
  // Empty body: the seed frame flows straight to head emission.
  ExpectRuleMatchesReference(MustParseRule("unit(a, 1)."), db);
  // Comparison-only body over constants.
  ExpectRuleMatchesReference(MustParseRule("one(1) :- 1 < 2"), db);
  ExpectRuleMatchesReference(MustParseRule("none(1) :- 2 < 1"), db);
  // Negation-only body (ground negated atom).
  ExpectRuleMatchesReference(MustParseRule("q(a) :- not absent(a)"), db);
  ExpectRuleMatchesReference(MustParseRule("q(a) :- not present(a)"), db);
}

TEST(BatchedExecutorTest, DeltaOnLastPlannedLiteral) {
  // e is larger, so cardinality planning scans t first and probes e;
  // reading the delta at e (the literal planned LAST) exercises the
  // batched delta swap on a non-leading step.
  Database db = MustParseFacts(R"(
    t(a, b). t(b, c).
    e(b, x). e(b, y). e(c, x). e(c, z). e(q, q).
  )");
  Relation delta(PredicateId{InternSymbol("e"), 2});
  delta.Insert(Tuple{Term::Sym("b"), Term::Sym("y")});
  delta.Insert(Tuple{Term::Sym("c"), Term::Sym("z")});
  Rule rule = MustParseRule("p(X, Y) :- t(X, Z), e(Z, Y)");
  ExpectRuleMatchesReference(rule, db, /*delta_literal=*/1, &delta);
  // And on the leading literal for contrast.
  Relation tdelta(PredicateId{InternSymbol("t"), 2});
  tdelta.Insert(Tuple{Term::Sym("b"), Term::Sym("c")});
  ExpectRuleMatchesReference(rule, db, /*delta_literal=*/0, &tdelta);
}

/// DescribePlan line for the literal whose text contains `needle`.
std::string PlanLineFor(const std::string& describe, const std::string& needle) {
  std::istringstream is(describe);
  std::string line;
  while (std::getline(is, line)) {
    if (line.find(":-") != std::string::npos) continue;  // rule header
    if (line.find(needle) != std::string::npos) return line;
  }
  ADD_FAILURE() << "no plan line containing '" << needle << "' in:\n"
                << describe;
  return "";
}

/// A database where `check` (and `nope`) outnumber `small`, so
/// cardinality planning scans `small` first and the check literals
/// land after it with every argument bound.
Database FusionDb() {
  Database db = MustParseFacts("small(a, b). small(b, c). small(c, a).");
  for (int i = 0; i < 24; ++i) {
    db.AddTuple("check", {Term::Sym("s" + std::to_string(i))});
    db.AddTuple("nope", {Term::Sym("s" + std::to_string(i))});
  }
  db.AddTuple("check", {Term::Sym("a")});
  db.AddTuple("check", {Term::Sym("b")});
  db.AddTuple("nope", {Term::Sym("b")});
  return db;
}

TEST(BatchFusionTest, TrailingSemiJoinFusesIntoHostStep) {
  Database db = FusionDb();
  DatabaseSource source(&db);
  Rule rule = MustParseRule("p(X, Y) :- small(X, Y), check(X)");
  Result<RuleExecutor> exec = RuleExecutor::Create(rule);
  ASSERT_TRUE(exec.ok());
  Result<RuleExecutor::PreparedPlan> plan = exec->Prepare(source, -1);
  ASSERT_TRUE(plan.ok());
  const std::string text = exec->DescribePlan(*plan, -1);
  EXPECT_NE(PlanLineFor(text, "check(").find("fused into prior step"),
            std::string::npos)
      << text;
  EXPECT_EQ(PlanLineFor(text, "small(").find("fused"), std::string::npos)
      << text;
  // Identical multiset and logical counters at every block size.
  ExpectRuleMatchesReference(rule, db);
}

TEST(BatchFusionTest, NegatedCheckFusesIntoHostStep) {
  Database db = FusionDb();
  DatabaseSource source(&db);
  Rule rule = MustParseRule("p(X, Y) :- small(X, Y), not nope(X)");
  Result<RuleExecutor> exec = RuleExecutor::Create(rule);
  ASSERT_TRUE(exec.ok());
  Result<RuleExecutor::PreparedPlan> plan = exec->Prepare(source, -1);
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(PlanLineFor(exec->DescribePlan(*plan, -1), "nope(")
                .find("fused into prior step"),
            std::string::npos);
  ExpectRuleMatchesReference(rule, db);
  // A fused negation against a relation with no facts at all also
  // matches the reference (absent relation == empty == negation passes).
  ExpectRuleMatchesReference(
      MustParseRule("p(X, Y) :- small(X, Y), not absent(X)"), db);
}

TEST(BatchFusionTest, ComparisonBreaksTheFusionRun) {
  // The comparison between the scan and the check resets the fusion
  // host (every comparison must see the frames of the planned order),
  // so the check survives as its own batch step.
  Database db = FusionDb();
  DatabaseSource source(&db);
  Rule rule = MustParseRule("p(X, Y) :- small(X, Y), X != Y, check(X)");
  Result<RuleExecutor> exec = RuleExecutor::Create(rule);
  ASSERT_TRUE(exec.ok());
  Result<RuleExecutor::PreparedPlan> plan = exec->Prepare(source, -1);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(
      PlanLineFor(exec->DescribePlan(*plan, -1), "check(").find("fused"),
      std::string::npos)
      << exec->DescribePlan(*plan, -1);
  ExpectRuleMatchesReference(rule, db);
}

TEST(BatchFusionTest, DeltaOccurrenceIsNeverFused) {
  // m(X, Y) is all-bound after the small scan — fusable in the full
  // plan — but as the delta literal it must stay a real step (the
  // delta swap happens per step, and semi-naive reads it from the
  // delta relation, not the full one).
  Database db = FusionDb();
  db.AddTuple("m", {Term::Sym("a"), Term::Sym("b")});
  db.AddTuple("m", {Term::Sym("c"), Term::Sym("a")});
  DatabaseSource source(&db);
  Rule rule = MustParseRule("p(X, Y) :- small(X, Y), m(X, Y)");
  Result<RuleExecutor> exec = RuleExecutor::Create(rule);
  ASSERT_TRUE(exec.ok());
  Result<RuleExecutor::PreparedPlan> plan = exec->Prepare(source, 1);
  ASSERT_TRUE(plan.ok());
  const std::string text = exec->DescribePlan(*plan, 1);
  EXPECT_EQ(PlanLineFor(text, "m(").find("fused"), std::string::npos) << text;
  EXPECT_NE(PlanLineFor(text, "m(").find("(delta)"), std::string::npos)
      << text;

  Relation delta(PredicateId{InternSymbol("m"), 2});
  delta.Insert(Tuple{Term::Sym("c"), Term::Sym("a")});
  ExpectRuleMatchesReference(rule, db, /*delta_literal=*/1, &delta);
}

TEST(PlanApiTest, FirstPositiveStepAndProbeColumns) {
  Database db = MustParseFacts("e(a, b). e(b, c). n(1).");
  DatabaseSource source(&db);
  auto describe = [&](const char* rule) {
    Result<RuleExecutor> exec = RuleExecutor::Create(MustParseRule(rule));
    EXPECT_TRUE(exec.ok()) << exec.status();
    if (!exec.ok()) return std::string();
    Result<RuleExecutor::PreparedPlan> plan = exec->Prepare(source, -1);
    EXPECT_TRUE(plan.ok()) << plan.status();
    return plan.ok() ? exec->DescribePlan(*plan) : std::string();
  };

  // Join: the leading e is the first positive step and scans; the
  // second e occurrence probes on its bound first column.
  const std::string join = describe("p(X, Z) :- e(X, Y), e(Y, Z)");
  EXPECT_NE(join.find("1. e(X, Y)  [scan]"), std::string::npos) << join;
  EXPECT_NE(join.find("2. e(Y, Z)  [probe cols 0]"), std::string::npos)
      << join;

  // Comparison-only and negation-only bodies: no positive step at all.
  for (const char* rule : {"one(1) :- 1 < 2", "q(a) :- not bad(a)"}) {
    const std::string text = describe(rule);
    EXPECT_NE(text.find("1. "), std::string::npos) << text;
    EXPECT_EQ(text.find("[scan]"), std::string::npos) << text;
    EXPECT_EQ(text.find("[probe"), std::string::npos) << text;
  }
}

TEST(PlanApiTest, DescribePlanShowsAccessPathsAndDelta) {
  Database db = MustParseFacts("e(a, b). t(a, b).");
  DatabaseSource source(&db);
  Result<RuleExecutor> exec =
      RuleExecutor::Create(MustParseRule("t(X, Y) :- t(X, Z), e(Z, Y)"));
  ASSERT_TRUE(exec.ok());
  Result<RuleExecutor::PreparedPlan> plan = exec->Prepare(source, 0);
  ASSERT_TRUE(plan.ok());
  std::string text = exec->DescribePlan(*plan, 0);
  EXPECT_NE(text.find("probe cols"), std::string::npos) << text;
  EXPECT_NE(text.find("(delta)"), std::string::npos) << text;
  EXPECT_NE(text.find("[scan]"), std::string::npos) << text;
}

TEST(PlanCacheTest, MemoizesPerBandSignature) {
  Database db;
  for (int i = 0; i < 9; ++i) {  // size 9: log2 band 4 covers 8..15
    db.AddTuple("e", {Term::Int(i), Term::Int(i + 1)});
  }
  DatabaseSource source(&db);
  Result<RuleExecutor> exec =
      RuleExecutor::Create(MustParseRule("p(X, Z) :- e(X, Y), e(Y, Z)"));
  ASSERT_TRUE(exec.ok());

  PlanCache cache;
  EvalStats stats;
  ASSERT_TRUE(cache.Get(*exec, source, -1, &stats).ok());
  EXPECT_EQ(cache.misses(), 1u);
  ASSERT_TRUE(cache.Get(*exec, source, -1, &stats).ok());
  EXPECT_EQ(cache.hits(), 1u);

  // Growing within the band keeps hitting.
  for (int i = 9; i < 15; ++i) {
    db.AddTuple("e", {Term::Int(i), Term::Int(i + 1)});
  }
  ASSERT_TRUE(cache.Get(*exec, source, -1, &stats).ok());
  EXPECT_EQ(cache.hits(), 2u);

  // Crossing into band 5 (size 16) plans once for the new regime.
  db.AddTuple("e", {Term::Int(15), Term::Int(16)});
  ASSERT_TRUE(cache.Get(*exec, source, -1, &stats).ok());
  EXPECT_EQ(cache.misses(), 2u);
  ASSERT_TRUE(cache.Get(*exec, source, -1, &stats).ok());
  EXPECT_EQ(cache.hits(), 3u);

  // A band signature seen before hits again: the band-4 entry was
  // memoized, not evicted, so a source back in that regime (a repeated
  // evaluation re-traversing its growth trajectory) skips the planner.
  Database db_small;
  for (int i = 0; i < 9; ++i) {
    db_small.AddTuple("e", {Term::Int(i), Term::Int(i + 1)});
  }
  DatabaseSource source_small(&db_small);
  ASSERT_TRUE(cache.Get(*exec, source_small, -1, &stats).ok());
  EXPECT_EQ(cache.hits(), 4u);
  EXPECT_EQ(cache.misses(), 2u);

  // Distinct delta literals are distinct entries.
  ASSERT_TRUE(cache.Get(*exec, source, 0, &stats).ok());
  EXPECT_EQ(cache.misses(), 3u);
  EXPECT_EQ(cache.size(), 3u);  // band-4, band-5, and delta entries
  EXPECT_EQ(stats.plan_cache_hits, cache.hits());
  EXPECT_EQ(stats.plan_cache_misses, cache.misses());
}

TEST(PlanCacheTest, CoarseBandsCollapseSmallSizesIntoOneKey) {
  // Incremental maintenance's regime: delta sizes jitter batch to
  // batch, so with fine bands every power of two the delta lands in
  // would mint a fresh plan key. Coarse banding collapses every size
  // below 1024 into one band — any join order over only-small inputs
  // costs microseconds — so the second batch onward always hits.
  Database db;
  db.AddTuple("e", {Term::Int(0), Term::Int(1)});
  DatabaseSource source(&db);
  Result<RuleExecutor> exec =
      RuleExecutor::Create(MustParseRule("p(X, Z) :- e(X, Y), e(Y, Z)"));
  ASSERT_TRUE(exec.ok());

  PlanCache cache;
  EvalStats stats;
  auto get = [&](bool coarse) {
    return cache.Get(*exec, source, -1, &stats, /*partitioned=*/false,
                     coarse);
  };
  ASSERT_TRUE(get(true).ok());
  EXPECT_EQ(cache.misses(), 1u);
  // Any growth trajectory below the cap stays on the one coarse key.
  for (int size = 2; size < 1024; size *= 2) {
    for (int i = size / 2; i < size; ++i) {
      db.AddTuple("e", {Term::Int(i), Term::Int(i + 1)});
    }
    ASSERT_TRUE(get(true).ok());
  }
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 9u);
  // Beyond the cap, coarse keys fall back to fine log2 bands.
  for (int i = 512; i < 1024; ++i) {
    db.AddTuple("e", {Term::Int(i), Term::Int(i + 1)});
  }
  ASSERT_TRUE(get(true).ok());
  EXPECT_EQ(cache.misses(), 2u);
  // Coarse and fine entries never alias: the same sub-1024 source under
  // fine banding is its own key (flag bit + band signature differ).
  Database db2;
  db2.AddTuple("e", {Term::Int(0), Term::Int(1)});
  DatabaseSource source2(&db2);
  ASSERT_TRUE(cache
                  .Get(*exec, source2, -1, &stats, /*partitioned=*/false,
                       /*coarse_bands=*/false)
                  .ok());
  EXPECT_EQ(cache.misses(), 3u);
}

TEST(PlanCacheTest, PartitionRegimeIsPartOfTheKey) {
  // A session that switches between one lane and several must never
  // replay a partitioned plan at one lane (its driving step
  // deliberately lacks a probe index) or vice versa: the two regimes
  // are distinct cache entries that coexist.
  Database db = MustParseFacts("e(a, b). e(b, c). t(a, b).");
  DatabaseSource source(&db);
  Result<RuleExecutor> exec =
      RuleExecutor::Create(MustParseRule("t(X, Z) :- e(X, Y), t(Y, Z)"));
  ASSERT_TRUE(exec.ok());

  PlanCache cache;
  EvalStats stats;
  Result<RuleExecutor::PreparedPlan> one_lane =
      cache.Get(*exec, source, 1, &stats);
  ASSERT_TRUE(one_lane.ok());
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(exec->DrivingLiteral(*one_lane), -1);

  // Same rule, same delta, same bands — the partitioned regime still
  // misses and produces the morsel shape (delta rotated to the front
  // and marked driving).
  Result<RuleExecutor::PreparedPlan> partitioned =
      cache.Get(*exec, source, 1, &stats, /*partitioned=*/true);
  ASSERT_TRUE(partitioned.ok());
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(exec->DrivingLiteral(*partitioned), 1);

  // Each regime keeps hitting its own entry.
  ASSERT_TRUE(cache.Get(*exec, source, 1, &stats).ok());
  ASSERT_TRUE(cache.Get(*exec, source, 1, &stats, /*partitioned=*/true).ok());
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(PlanCacheTest, SessionCacheHitsEveryRoundOnRepeatedEvaluation) {
  // A caller-owned cache passed through EvalOptions::plan_cache spans
  // evaluations: the second run of the same program re-traverses the
  // same band trajectory, so every round's Get hits and the planner
  // never runs.
  Program program = MustParse(R"(
    t(X, Y) :- e(X, Y).
    t(X, Z) :- t(X, Y), e(Y, Z).
  )");
  Database edb;
  for (int i = 0; i < 40; ++i) {
    edb.AddTuple("e", {Term::Int(i), Term::Int(i + 1)});
  }

  PlanCache session;
  EvalOptions options;
  options.plan_cache = &session;
  EvalStats first_stats, second_stats;
  Result<Database> first = Evaluate(program, edb, options, &first_stats);
  ASSERT_TRUE(first.ok());
  EXPECT_GT(first_stats.plan_cache_misses, 0u);

  Result<Database> second = Evaluate(program, edb, options, &second_stats);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second_stats.plan_cache_misses, 0u);
  EXPECT_GT(second_stats.plan_cache_hits, 0u);
  EXPECT_EQ(second_stats.derived_tuples, first_stats.derived_tuples);
  EXPECT_TRUE(first->SameFactsAs(*second));
}

TEST(PlanCacheTest, EvictsLeastRecentlyUsedBeyondTheCap) {
  // Distinct rules are distinct entries; a cap of 2 keeps only the two
  // most recently touched plans and counts each eviction.
  Database db = MustParseFacts("e(a, b). w(a, b). v(a, b).");
  DatabaseSource source(&db);
  auto make_exec = [&](const char* text) {
    Result<RuleExecutor> exec = RuleExecutor::Create(MustParseRule(text));
    EXPECT_TRUE(exec.ok());
    return std::move(*exec);
  };
  RuleExecutor e1 = make_exec("p(X, Y) :- e(X, Y)");
  RuleExecutor e2 = make_exec("p(X, Y) :- w(X, Y)");
  RuleExecutor e3 = make_exec("p(X, Y) :- v(X, Y)");

  PlanCache cache(/*max_entries=*/2);
  EXPECT_EQ(cache.max_entries(), 2u);
  ASSERT_TRUE(cache.Get(e1, source, -1, nullptr).ok());
  ASSERT_TRUE(cache.Get(e2, source, -1, nullptr).ok());
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 0u);

  // Touch e1 so e2 is the LRU entry, then insert e3: e2 is evicted.
  ASSERT_TRUE(cache.Get(e1, source, -1, nullptr).ok());
  EXPECT_EQ(cache.hits(), 1u);
  ASSERT_TRUE(cache.Get(e3, source, -1, nullptr).ok());
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);

  // e1 and e3 survived (hits); e2 was evicted (a fresh miss).
  ASSERT_TRUE(cache.Get(e1, source, -1, nullptr).ok());
  ASSERT_TRUE(cache.Get(e3, source, -1, nullptr).ok());
  EXPECT_EQ(cache.hits(), 3u);
  ASSERT_TRUE(cache.Get(e2, source, -1, nullptr).ok());
  EXPECT_EQ(cache.misses(), 4u);
  EXPECT_EQ(cache.evictions(), 2u);
}

TEST(PlanCacheTest, SteadyStateHitRateStays100PercentUnderDefaultCap) {
  // The regression the cap must not introduce: a realistic session —
  // one recursive program re-evaluated many times — has a live plan
  // set far below kDefaultMaxEntries, so after the first evaluation
  // warms the cache, NO later evaluation ever misses or evicts.
  Program program = MustParse(R"(
    t(X, Y) :- e(X, Y).
    t(X, Z) :- t(X, Y), e(Y, Z).
    pairs(X, Z) :- t(X, Y), t(Y, Z).
  )");
  Database edb;
  for (int i = 0; i < 32; ++i) {
    edb.AddTuple("e", {Term::Int(i), Term::Int(i + 1)});
  }

  PlanCache session;  // default cap
  EvalOptions options;
  options.plan_cache = &session;
  ASSERT_TRUE(Evaluate(program, edb, options).ok());  // warm-up
  ASSERT_LT(session.size(), PlanCache::kDefaultMaxEntries);

  const size_t warm_misses = session.misses();
  size_t steady_lookups = 0;
  for (int run = 0; run < 5; ++run) {
    EvalStats stats;
    ASSERT_TRUE(Evaluate(program, edb, options, &stats).ok());
    EXPECT_EQ(stats.plan_cache_misses, 0u) << "run " << run;
    EXPECT_GT(stats.plan_cache_hits, 0u);
    steady_lookups += stats.plan_cache_hits;
  }
  EXPECT_EQ(session.misses(), warm_misses);  // 100% steady-state hits
  EXPECT_EQ(session.evictions(), 0u);
  EXPECT_GT(steady_lookups, 0u);
}

TEST(PlanCacheTest, LabelsDoNotSplitAnEntry) {
  // Identity is structural, as in Rule::operator==: the label is
  // metadata, so the same head and body under two labels share one plan.
  Database db = MustParseFacts("e(a, b). e(b, c).");
  DatabaseSource source(&db);
  Rule first = MustParseRule("p(X, Z) :- e(X, Y), e(Y, Z)");
  Rule second = first;
  first.set_label("r0");
  second.set_label("dev1$0");
  Result<RuleExecutor> a = RuleExecutor::Create(first);
  Result<RuleExecutor> b = RuleExecutor::Create(second);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->fingerprint(), b->fingerprint());

  PlanCache cache;
  ASSERT_TRUE(cache.Get(*a, source, -1, nullptr).ok());
  ASSERT_TRUE(cache.Get(*b, source, -1, nullptr).ok());
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(PlanCacheTest, OneStructuralDifferenceIsADistinctEntry) {
  // Each variant differs from the base in exactly one place: a
  // constant, a variable name, a comparison operator, or the negation
  // of a literal. None may hit the base's plan.
  Database db = MustParseFacts("e(a, b). e(b, c). f(c). f(b).");
  DatabaseSource source(&db);
  const char* base = "p(X, Z) :- e(X, Y), e(Y, Z), f(Z), X != c";
  const char* variants[] = {
      "p(X, Z) :- e(X, Y), e(Y, Z), f(Z), X != b",     // constant
      "p(X, Z) :- e(X, W), e(W, Z), f(Z), X != c",     // variable name
      "p(X, Z) :- e(X, Y), e(Y, Z), f(Z), X = c",      // operator
      "p(X, Z) :- e(X, Y), e(Y, Z), not f(Z), X != c", // negation
      "p(X, Z) :- e(X, Y), e(Y, Z), f(Z), not X != c", // negated comparison
  };
  Result<RuleExecutor> base_exec = RuleExecutor::Create(MustParseRule(base));
  ASSERT_TRUE(base_exec.ok());

  PlanCache cache;
  ASSERT_TRUE(cache.Get(*base_exec, source, -1, nullptr).ok());
  size_t expected_size = 1;
  for (const char* text : variants) {
    Result<RuleExecutor> exec = RuleExecutor::Create(MustParseRule(text));
    ASSERT_TRUE(exec.ok()) << text;
    EXPECT_NE(exec->fingerprint(), base_exec->fingerprint()) << text;
    ASSERT_TRUE(cache.Get(*exec, source, -1, nullptr).ok()) << text;
    EXPECT_EQ(cache.hits(), 0u) << text;
    EXPECT_EQ(cache.size(), ++expected_size) << text;
  }
  // Every variant and the base keep hitting their own entries.
  ASSERT_TRUE(cache.Get(*base_exec, source, -1, nullptr).ok());
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), expected_size);
}

TEST(PlanCacheTest, SharedCacheServesManyCallersAndAggregates) {
  // The sharded wrapper behaves like one big cache: a plan prepared
  // through one caller's Get is a hit for every other caller, and the
  // aggregate counters fold the shards.
  Database db = MustParseFacts("e(a, b). e(b, c).");
  DatabaseSource source(&db);
  Result<RuleExecutor> exec =
      RuleExecutor::Create(MustParseRule("p(X, Z) :- e(X, Y), e(Y, Z)"));
  ASSERT_TRUE(exec.ok());

  SharedPlanCache shared(/*shards=*/4);
  EXPECT_EQ(shared.shard_count(), 4u);
  ASSERT_TRUE(shared.Get(*exec, source, -1, nullptr).ok());
  EXPECT_EQ(shared.misses(), 1u);
  ASSERT_TRUE(shared.Get(*exec, source, -1, nullptr).ok());
  EXPECT_EQ(shared.hits(), 1u);
  EXPECT_EQ(shared.size(), 1u);
  shared.Clear();
  EXPECT_EQ(shared.size(), 0u);
}

TEST(PlanCacheTest, HitRepairsMissingIndexesOnFreshRelations) {
  // Simulates the delta double-buffer swap: the cached plan's probed
  // relation is replaced by a fresh (index-less) object of the same
  // band; the cache hit must rebuild the probe index before execution.
  Result<RuleExecutor> exec =
      RuleExecutor::Create(MustParseRule("p(X, Z) :- e(X, Y), e(Y, Z)"));
  ASSERT_TRUE(exec.ok());
  auto make_db = [] {
    Database db;
    for (int i = 0; i < 4; ++i) {
      db.AddTuple("e", {Term::Int(i), Term::Int(i + 1)});
    }
    return db;
  };
  Database db1 = make_db();
  PlanCache cache;
  DatabaseSource source1(&db1);
  Result<RuleExecutor::PreparedPlan> plan =
      cache.Get(*exec, source1, -1, nullptr);
  ASSERT_TRUE(plan.ok());

  Database db2 = make_db();
  const Relation* fresh = db2.Find(PredicateId{InternSymbol("e"), 2});
  ASSERT_NE(fresh, nullptr);
  EXPECT_FALSE(fresh->HasIndex({0}));
  DatabaseSource source2(&db2);
  Result<RuleExecutor::PreparedPlan> hit =
      cache.Get(*exec, source2, -1, nullptr);
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_TRUE(fresh->HasIndex({0}));
  // And the reused plan executes correctly against the fresh data.
  std::vector<std::string> out;
  exec->ExecutePlanBatched(
      *hit, source2, -1,
      [&](const TupleBuffer& block) {
        for (size_t i = 0; i < block.size(); ++i) {
          out.push_back(TupleToString(block.row(i)));
        }
      },
      nullptr);
  EXPECT_EQ(out.size(), 3u);
}

TEST(BatchedFixpointTest, MatchesPerTupleOnRandomizedPrograms) {
  // Randomized graphs through full fixpoints: at every block size —
  // one tuple per block included, and sizes that force mid-round
  // flushes — the engine must derive the reference evaluator's IDB, and
  // the logical totals must be bit-identical to the one-tuple blocks.
  std::mt19937 rng(20260806);
  const char* programs[] = {
      R"(t(X, Y) :- e(X, Y).
         t(X, Y) :- t(X, Z), e(Z, Y).)",
      R"(t(X, Y) :- e(X, Y).
         t(X, Y) :- t(X, Z), e(Z, Y).
         far(X, Y) :- t(X, Y), X != Y, not e(X, Y).)",
      R"(n(X) :- e(X, Y).
         n(Y) :- e(X, Y).
         even(X) :- start(X).
         even(Y) :- odd(X), e(X, Y).
         odd(Y) :- even(X), e(X, Y).
         unreached(X) :- n(X), not even(X), not odd(X).)",
  };
  for (int trial = 0; trial < 4; ++trial) {
    const int nodes = 6 + trial * 5;
    std::uniform_int_distribution<int> node(0, nodes - 1);
    Database edb;
    edb.AddTuple("start", {Term::Int(0)});
    for (int i = 0; i < nodes * 2; ++i) {
      edb.AddTuple("e", {Term::Int(node(rng)), Term::Int(node(rng))});
    }
    for (const char* source : programs) {
      Program program = MustParse(source);
      Result<Database> reference = ReferenceEvaluate(program, edb);
      ASSERT_TRUE(reference.ok()) << reference.status();
      EvalOptions per_tuple;
      per_tuple.batch_size = 1;
      EvalStats reference_stats;
      Result<Database> one_per_block =
          Evaluate(program, edb, per_tuple, &reference_stats);
      ASSERT_TRUE(one_per_block.ok()) << one_per_block.status();
      EXPECT_TRUE(reference->SameFactsAs(*one_per_block)) << "trial=" << trial;
      for (size_t batch_size : {size_t{2}, size_t{5}, size_t{1024}}) {
        EvalOptions batched;
        batched.batch_size = batch_size;
        EvalStats stats;
        Result<Database> result = Evaluate(program, edb, batched, &stats);
        ASSERT_TRUE(result.ok()) << result.status();
        EXPECT_TRUE(reference->SameFactsAs(*result))
            << "trial=" << trial << " batch_size=" << batch_size;
        EXPECT_EQ(stats.derived_tuples, reference_stats.derived_tuples);
        EXPECT_EQ(stats.duplicate_tuples, reference_stats.duplicate_tuples);
        EXPECT_EQ(stats.bindings_explored,
                  reference_stats.bindings_explored);
        EXPECT_EQ(stats.comparison_checks,
                  reference_stats.comparison_checks);
        EXPECT_GT(stats.batches, 0u);
      }
    }
  }
}

TEST(BatchedFixpointTest, StatsFoldPlanCacheAndBatchCounters) {
  EvalStats a, b;
  a.plan_cache_hits = 3;
  a.plan_cache_misses = 1;
  a.batches = 7;
  b.plan_cache_hits = 2;
  b.batches = 1;
  a.Add(b);
  EXPECT_EQ(a.plan_cache_hits, 5u);
  EXPECT_EQ(a.plan_cache_misses, 1u);
  EXPECT_EQ(a.batches, 8u);
}

TEST(FixpointTest, TransitiveClosure) {
  Program p = MustParse(R"(
    t(X, Y) :- e(X, Y).
    t(X, Y) :- t(X, Z), e(Z, Y).
  )");
  Database edb = MustParseFacts("e(a, b). e(b, c). e(c, d).");
  Database idb = MustEvaluate(p, edb);
  EXPECT_EQ(RelationSize(idb, "t", 2), 6u);
  EXPECT_EQ(RelationRows(idb, "t", 2),
            (std::vector<std::string>{"(a, b)", "(a, c)", "(a, d)", "(b, c)",
                                      "(b, d)", "(c, d)"}));
}

TEST(FixpointTest, CyclicGraphTerminates) {
  Program p = MustParse(R"(
    t(X, Y) :- e(X, Y).
    t(X, Y) :- t(X, Z), e(Z, Y).
  )");
  Database edb = MustParseFacts("e(a, b). e(b, c). e(c, a).");
  Database idb = MustEvaluate(p, edb);
  EXPECT_EQ(RelationSize(idb, "t", 2), 9u);  // complete on {a,b,c}
}

TEST(FixpointTest, NaiveMatchesSemiNaive) {
  Program p = MustParse(R"(
    t(X, Y) :- e(X, Y).
    t(X, Y) :- t(X, Z), e(Z, Y).
  )");
  Database edb = MustParseFacts("e(a, b). e(b, c). e(c, a). e(c, d).");
  Result<Database> naive = ReferenceEvaluate(p, edb);
  ASSERT_TRUE(naive.ok()) << naive.status();
  Database semi = MustEvaluate(p, edb);
  EXPECT_TRUE(naive->SameFactsAs(semi));
}

TEST(FixpointTest, MultiPredicateStrata) {
  Program p = MustParse(R"(
    t(X, Y) :- e(X, Y).
    t(X, Y) :- t(X, Z), e(Z, Y).
    reach_d(X) :- t(X, d).
  )");
  Database edb = MustParseFacts("e(a, b). e(b, c). e(c, d).");
  Database idb = MustEvaluate(p, edb);
  EXPECT_EQ(RelationRows(idb, "reach_d", 1),
            (std::vector<std::string>{"(a)", "(b)", "(c)"}));
}

TEST(FixpointTest, StratifiedNegation) {
  Program p = MustParse(R"(
    reach(X) :- start(X).
    reach(Y) :- reach(X), e(X, Y).
    node(X) :- e(X, Y).
    node(Y) :- e(X, Y).
    unreached(X) :- node(X), not reach(X).
  )");
  Database edb = MustParseFacts("start(a). e(a, b). e(b, c). e(x, y).");
  Database idb = MustEvaluate(p, edb);
  EXPECT_EQ(RelationRows(idb, "unreached", 1),
            (std::vector<std::string>{"(x)", "(y)"}));
}

TEST(FixpointTest, RejectsUnstratifiableNegation) {
  Program p = MustParse("win(X) :- move(X, Y), not win(Y).");
  Database edb = MustParseFacts("move(a, b).");
  EXPECT_FALSE(Evaluate(p, edb).ok());
}

TEST(FixpointTest, MaxIterationsGuard) {
  Program p = MustParse(R"(
    t(X, Y) :- e(X, Y).
    t(X, Y) :- t(X, Z), e(Z, Y).
  )");
  Database edb;
  for (int i = 0; i < 50; ++i) {
    edb.AddTuple("e", {Term::Sym("n" + std::to_string(i)),
                       Term::Sym("n" + std::to_string(i + 1))});
  }
  EvalOptions options;
  options.max_iterations = 3;
  EXPECT_FALSE(Evaluate(p, edb, options).ok());
}

TEST(FixpointTest, EmptyEdbYieldsEmptyIdb) {
  Program p = MustParse(R"(
    t(X, Y) :- e(X, Y).
    t(X, Y) :- t(X, Z), e(Z, Y).
  )");
  Database edb;
  Database idb = MustEvaluate(p, edb);
  EXPECT_EQ(RelationSize(idb, "t", 2), 0u);
}

// Property: the engine's semi-naive rounds agree with the naive
// reference evaluator on random graphs.
class FixpointRandomGraph : public ::testing::TestWithParam<int> {};

TEST_P(FixpointRandomGraph, NaiveEqualsSemiNaive) {
  SplitMix64 rng(GetParam());
  Database edb;
  const int n = 12;
  for (int i = 0; i < 30; ++i) {
    edb.AddTuple("e", {Term::Sym("v" + std::to_string(rng.Below(n))),
                       Term::Sym("v" + std::to_string(rng.Below(n)))});
  }
  Program p = MustParse(R"(
    t(X, Y) :- e(X, Y).
    t(X, Y) :- t(X, Z), e(Z, Y).
    s(X, Y) :- e(X, Y).
    s(X, Y) :- e(X, Z), s(Z, Y).
  )");
  Result<Database> naive = ReferenceEvaluate(p, edb);
  ASSERT_TRUE(naive.ok()) << naive.status();
  Database semi = MustEvaluate(p, edb);
  EXPECT_TRUE(naive->SameFactsAs(semi));
  // Left- and right-linear transitive closure must agree.
  EXPECT_EQ(RelationRows(semi, "t", 2), RelationRows(semi, "s", 2));
}

INSTANTIATE_TEST_SUITE_P(Seeds, FixpointRandomGraph,
                         ::testing::Range(1, 13));

TEST(QueryTest, ProjectionAndFilters) {
  Program p = MustParse(R"(
    t(X, Y) :- e(X, Y).
    t(X, Y) :- t(X, Z), e(Z, Y).
  )");
  Database edb = MustParseFacts("e(a, b). e(b, c).");
  Result<QueryResult> r = AnswerQuery(p, edb, "t(a, Y)");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 2u);  // b and c

  Result<QueryResult> filtered = AnswerQuery(p, edb, "t(X, Y), X != a");
  ASSERT_TRUE(filtered.ok());
  EXPECT_EQ(filtered->size(), 1u);  // (b, c)
}

TEST(QueryTest, ExplicitProjection) {
  Program p = MustParse("q(X, Y) :- e(X, Y).");
  Database edb = MustParseFacts("e(a, b). e(a, c).");
  auto body = ParseLiteralList("q(X, Y)");
  ASSERT_TRUE(body.ok());
  Result<QueryResult> r =
      AnswerQuery(p, edb, *body, {Term::Var("X")});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 1u);  // deduplicated projection onto X
  EXPECT_EQ(r->tuples[0][0], Term::Sym("a"));
}

TEST(QueryTest, RejectsNonVariableProjection) {
  Program p = MustParse("q(X) :- e(X).");
  Database edb;
  auto body = ParseLiteralList("q(X)");
  ASSERT_TRUE(body.ok());
  EXPECT_FALSE(AnswerQuery(p, edb, *body, {Term::Sym("a")}).ok());
}

TEST(QueryTest, ToStringGolden) {
  // Server responses and the benchmark's answer check parse this
  // format; the expected strings were captured from the stream-based
  // renderer this one replaced, so any byte change is a regression.
  QueryResult result;
  result.variables = {InternSymbol("X"), InternSymbol("Name"),
                      InternSymbol("Z")};
  result.tuples = {
      {Term::Int(-42), Term::Sym("bob"), Term::Sym("Hello world")},
      {Term::Int(std::numeric_limits<int64_t>::min()), Term::Sym("a_1"),
       Term::Sym("")},
      {Term::Int(0), Term::Sym("Alice"),
       Term::Int(std::numeric_limits<int64_t>::max())},
      {Term::Int(7), Term::Sym("x-y"), Term::Sym("9lives")},
  };
  EXPECT_EQ(result.ToString(),
            "X=-42, Name=bob, Z='Hello world'\n"
            "X=-9223372036854775808, Name=a_1, Z=''\n"
            "X=0, Name='Alice', Z=9223372036854775807\n"
            "X=7, Name='x-y', Z='9lives'\n");

  // AppendTo extends what is already there.
  std::string out = "head:";
  result.tuples.resize(1);
  result.AppendTo(&out);
  EXPECT_EQ(out, "head:X=-42, Name=bob, Z='Hello world'\n");

  // A closed query (no variables) renders one empty line per row.
  QueryResult closed;
  closed.tuples = {Tuple{}, Tuple{}};
  EXPECT_EQ(closed.ToString(), "\n\n");

  // No rows, no output, with or without variables.
  QueryResult empty;
  EXPECT_EQ(empty.ToString(), "");
  empty.variables = {InternSymbol("X")};
  EXPECT_EQ(empty.ToString(), "");
}

TEST(ConstraintCheckTest, SatisfactionWithHead) {
  Constraint ic = MustParseConstraint(
      "boss(E, B, R), R = 'executive' -> experienced(B).");
  Database good = MustParseFacts(
      "boss(e1, b1, executive). boss(e2, b2, manager). experienced(b1).");
  Result<bool> sat = Satisfies(good, ic);
  ASSERT_TRUE(sat.ok());
  EXPECT_TRUE(*sat);

  Database bad = MustParseFacts("boss(e1, b1, executive).");
  Result<bool> unsat = Satisfies(bad, ic);
  ASSERT_TRUE(unsat.ok());
  EXPECT_FALSE(*unsat);
}

TEST(ConstraintCheckTest, DenialConstraint) {
  Constraint ic = MustParseConstraint("n(X), X > 10 -> .");
  Database good = MustParseFacts("n(5). n(10).");
  EXPECT_TRUE(*Satisfies(good, ic));
  Database bad = MustParseFacts("n(5). n(11).");
  EXPECT_FALSE(*Satisfies(bad, ic));
}

TEST(ConstraintCheckTest, ExistentialHeadVariables) {
  // a(X) -> b(X, Y) means: for every a(X) there exists some b(X, _).
  Constraint ic = MustParseConstraint("a(X) -> b(X, Y).");
  Database good = MustParseFacts("a(1). b(1, 7).");
  EXPECT_TRUE(*Satisfies(good, ic));
  Database bad = MustParseFacts("a(1). b(2, 7).");
  EXPECT_FALSE(*Satisfies(bad, ic));
}

TEST(ConstraintCheckTest, CheckConstraintsCollectsViolations) {
  std::vector<Constraint> ics{MustParseConstraint("n(X), X > 10 -> ."),
                              MustParseConstraint("n(X) -> m(X).")};
  Database db = MustParseFacts("n(11). n(12).");
  Result<std::vector<ConstraintViolation>> v =
      CheckConstraints(db, ics, /*max_violations=*/10);
  ASSERT_TRUE(v.ok());
  EXPECT_GE(v->size(), 2u);
}

TEST(ConstraintCheckTest, CheckStopsOnceItHasItsViolations) {
  // n(X, X mod 4) for X < 20000 and m = {1, 2, 3}: every X > 10 with
  // X mod 4 = 0 violates the IC, the first at X = 12. Asking for one
  // violation stops the join within one block of driving rows; the full
  // check scans all of n.
  std::vector<Constraint> ics{MustParseConstraint("n(X, Y), X > 10 -> m(Y).")};
  Database db;
  for (int64_t x = 0; x < 20000; ++x) {
    db.AddTuple("n", {Term::Int(x), Term::Int(x % 4)});
  }
  for (int64_t y = 1; y < 4; ++y) db.AddTuple("m", {Term::Int(y)});

  EvalStats first_stats;
  Result<std::vector<ConstraintViolation>> first =
      CheckConstraints(db, ics, /*max_violations=*/1, &first_stats);
  ASSERT_TRUE(first.ok()) << first.status();
  EvalStats all_stats;
  Result<std::vector<ConstraintViolation>> all =
      CheckConstraints(db, ics, /*max_violations=*/100000, &all_stats);
  ASSERT_TRUE(all.ok()) << all.status();

  ASSERT_EQ(first->size(), 1u);
  EXPECT_EQ(all->size(), 4997u);  // X in {12, 16, ..., 19996}
  EXPECT_EQ((*first)[0].description, (*all)[0].description);
  EXPECT_EQ((*first)[0].description, "violated under X=12 Y=0 ");
  EXPECT_EQ(all_stats.bindings_explored, 20000u);
  EXPECT_LE(first_stats.bindings_explored, RuleExecutor::kDefaultBatchSize);

  Result<bool> sat = Satisfies(db, ics[0]);
  ASSERT_TRUE(sat.ok());
  EXPECT_FALSE(*sat);
}

TEST(ConstraintCheckTest, RepairByDeletionReachesConsistency) {
  std::vector<Constraint> ics{
      MustParseConstraint("n(X), X > 10 -> ."),
      MustParseConstraint("m(X) -> n(X).")};
  Database db = MustParseFacts("n(5). n(11). m(11). m(5).");
  db.FindMutable(PredicateId{InternSymbol("n"), 1})->EnsureIndex({0});
  Result<size_t> deleted = RepairByDeletion(&db, ics);
  ASSERT_TRUE(deleted.ok());
  // n(11) violates the denial; deleting it makes m(11) dangling, which
  // the second pass removes.
  EXPECT_EQ(*deleted, 2u);
  for (const Constraint& ic : ics) {
    EXPECT_TRUE(*Satisfies(db, ic));
  }
  EXPECT_EQ(RelationRows(db, "n", 1), (std::vector<std::string>{"(5)"}));
  EXPECT_EQ(RelationRows(db, "m", 1), (std::vector<std::string>{"(5)"}));
  // The repair point-deletes, so an index built before it stays in step:
  // probing n through it finds only the survivor.
  const Relation* n = db.Find(PredicateId{InternSymbol("n"), 1});
  ASSERT_NE(n, nullptr);
  const std::vector<RowId>& hits = n->Probe({0}, Tuple{Term::Int(5)});
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(TupleToString(n->row(hits[0])), "(5)");
  EXPECT_TRUE(n->Probe({0}, Tuple{Term::Int(11)}).empty());
}

}  // namespace
}  // namespace semopt
