// Differential and unit coverage for the morsel-driven fixpoint engine
// (src/exec/parallel_fixpoint.cc): equality with the test-side
// reference evaluator across the thread × batch grid, thread-count-
// invariant join work on the optimized genealogy workload, partitioned
// plan shape, bound point lookups, EvalOptions validation, and one-lane
// ↔ multi-lane session plan-cache coexistence. The randomized suite
// here is the one CI runs under TSan and ASan/UBSan.

#include <random>
#include <vector>

#include "eval/fixpoint.h"
#include "eval/plan_cache.h"
#include "eval/rule_executor.h"
#include "exec/parallel_fixpoint.h"
#include "semopt/optimizer.h"
#include "util/simd.h"
#include "workload/genealogy.h"

#include "gtest/gtest.h"
#include "test_helpers.h"

namespace semopt {
namespace {

using testing_util::ExpectMatchesReference;
using testing_util::MustParse;
using testing_util::MustParseFacts;
using testing_util::MustParseRule;
using testing_util::ReferenceEvaluate;

EvalOptions Opts(size_t threads, size_t batch, size_t morsel = 0) {
  EvalOptions options;
  options.num_threads = threads;
  options.batch_size = batch;
  options.morsel_size = morsel;
  return options;
}

// ------------------------------------------ randomized differential suite

/// Adds `edges` random `name/2` tuples over `nodes` integer vertices.
void AddRandomEdges(Database& db, const char* name, size_t nodes,
                    size_t edges, std::mt19937& rng) {
  std::uniform_int_distribution<int64_t> node(0, (int64_t)nodes - 1);
  for (size_t i = 0; i < edges; ++i) {
    db.AddTuple(name, {Term::Int(node(rng)), Term::Int(node(rng))});
  }
}

/// Checks the engine against the reference evaluator over the whole
/// threads × batch grid (ExpectMatchesReference), then at 4
/// lanes, at the smallest legal morsel, and with the SIMD kernels off —
/// every run must derive the reference fixpoint, tuple for tuple.
void ExpectMorselEquivalence(const Program& program, const Database& edb) {
  ExpectMatchesReference(program, edb);
  Result<Database> reference = ReferenceEvaluate(program, edb);
  ASSERT_TRUE(reference.ok()) << reference.status();
  const size_t ref_derived = reference->TotalTuples();

  for (size_t batch : {size_t{1}, size_t{7}, size_t{1024}}) {
    EvalStats stats;
    Result<Database> result = Evaluate(program, edb, Opts(4, batch), &stats);
    ASSERT_TRUE(result.ok()) << result.status() << " batch=" << batch;
    EXPECT_TRUE(reference->SameFactsAs(*result)) << "batch=" << batch;
    EXPECT_EQ(stats.derived_tuples, ref_derived) << "batch=" << batch;
  }

  // The smallest legal morsel maximizes scheduling interleavings (every
  // 8-row range is a separate claim) — the best shot at surfacing
  // merge-order or cursor races under TSan.
  EvalStats tiny_stats;
  Result<Database> tiny =
      Evaluate(program, edb, Opts(8, 7, /*morsel=*/8), &tiny_stats);
  ASSERT_TRUE(tiny.ok()) << tiny.status();
  EXPECT_TRUE(reference->SameFactsAs(*tiny));
  EXPECT_EQ(tiny_stats.derived_tuples, ref_derived);

  // SIMD as one more grid axis: forcing the scalar kernels (simd off)
  // must be bit-identical — same facts, same logical counters — to the
  // vectorized default, at one lane and at four.
  EvalStats batched_stats;
  Result<Database> batched =
      Evaluate(program, edb, Opts(1, 1024), &batched_stats);
  ASSERT_TRUE(batched.ok()) << batched.status();
  EvalOptions scalar_one_lane = Opts(1, 1024);
  scalar_one_lane.simd = SimdMode::kOff;
  EvalStats scalar_stats;
  Result<Database> scalar =
      Evaluate(program, edb, scalar_one_lane, &scalar_stats);
  ASSERT_TRUE(scalar.ok()) << scalar.status();
  EXPECT_TRUE(reference->SameFactsAs(*scalar));
  EXPECT_EQ(scalar_stats.derived_tuples, batched_stats.derived_tuples);
  EXPECT_EQ(scalar_stats.bindings_explored, batched_stats.bindings_explored);

  EvalOptions scalar_parallel = Opts(4, 1024);
  scalar_parallel.simd = SimdMode::kOff;
  EvalStats scalar_par_stats;
  Result<Database> scalar_par =
      Evaluate(program, edb, scalar_parallel, &scalar_par_stats);
  ASSERT_TRUE(scalar_par.ok()) << scalar_par.status();
  EXPECT_TRUE(reference->SameFactsAs(*scalar_par));
  EXPECT_EQ(scalar_par_stats.derived_tuples, ref_derived);
}

TEST(MorselDifferentialTest, LinearTransitiveClosure) {
  Program program = MustParse(R"(
    t(X, Y) :- e(X, Y).
    t(X, Z) :- t(X, Y), e(Y, Z).
  )");
  std::mt19937 rng(20260806);
  for (int trial = 0; trial < 3; ++trial) {
    Database edb;
    AddRandomEdges(edb, "e", 24, 60, rng);
    ExpectMorselEquivalence(program, edb);
  }
}

TEST(MorselDifferentialTest, NonlinearTransitiveClosure) {
  // The recursive predicate appears twice in one body: the frozen-delta
  // snapshot must keep both occurrences consistent within a round.
  Program program = MustParse(R"(
    p(X, Y) :- e(X, Y).
    p(X, Z) :- p(X, Y), p(Y, Z).
  )");
  std::mt19937 rng(4242);
  for (int trial = 0; trial < 3; ++trial) {
    Database edb;
    AddRandomEdges(edb, "e", 18, 40, rng);
    ExpectMorselEquivalence(program, edb);
  }
}

TEST(MorselDifferentialTest, SameGeneration) {
  Program program = MustParse(R"(
    n(X) :- up(X, Y).
    n(Y) :- up(X, Y).
    sg(X, X) :- n(X).
    sg(X, Y) :- up(X, A), sg(A, B), dn(B, Y).
  )");
  std::mt19937 rng(777);
  for (int trial = 0; trial < 3; ++trial) {
    Database edb;
    AddRandomEdges(edb, "up", 14, 30, rng);
    AddRandomEdges(edb, "dn", 14, 30, rng);
    ExpectMorselEquivalence(program, edb);
  }
}

TEST(MorselDifferentialTest, StratifiedNegationAndComparison) {
  // Exercises comparisons inside the recursion and a negated literal in
  // a later stratum, both through every engine and grain.
  Program program = MustParse(R"(
    r(X, Y) :- e(X, Y), X != Y.
    r(X, Z) :- r(X, Y), e(Y, Z), X != Z.
    heavy(X) :- e(X, Y), Y >= 12.
    quiet(X, Y) :- r(X, Y), not heavy(X).
  )");
  std::mt19937 rng(90125);
  for (int trial = 0; trial < 3; ++trial) {
    Database edb;
    AddRandomEdges(edb, "e", 16, 45, rng);
    ExpectMorselEquivalence(program, edb);
  }
}

// ---------------------------------------------- join-work invariance (E8)

TEST(MorselWorkInvarianceTest, BindingsInvariantOnOptimizedGenealogy) {
  // The E8 regression: the old hash-partitioned engine re-scanned the
  // leading body literals once per partition, so `bindings` grew with
  // the thread count on the genealogy-optimized program. Morsels
  // partition the plan's actual outermost scan, so the join work — and
  // the derived totals — are bit-identical at every thread count.
  Result<Program> base = GenealogyProgram();
  ASSERT_TRUE(base.ok()) << base.status();
  SemanticOptimizer optimizer;
  Result<OptimizeResult> optimized = optimizer.Optimize(*base);
  ASSERT_TRUE(optimized.ok()) << optimized.status();

  GenealogyParams params;
  params.num_families = 6;
  params.generations = 5;
  params.seed = 7;
  Database edb = GenerateGenealogyDb(params);

  Result<Database> reference = ReferenceEvaluate(optimized->program, edb);
  ASSERT_TRUE(reference.ok()) << reference.status();

  std::vector<size_t> bindings;
  std::vector<size_t> derived;
  for (size_t threads : {size_t{2}, size_t{4}, size_t{8}}) {
    EvalStats stats;
    Result<Database> result =
        Evaluate(optimized->program, edb, Opts(threads, 1024), &stats);
    ASSERT_TRUE(result.ok()) << result.status() << " threads=" << threads;
    EXPECT_TRUE(reference->SameFactsAs(*result)) << "threads=" << threads;
    bindings.push_back(stats.bindings_explored);
    derived.push_back(stats.derived_tuples);
    EXPECT_GT(stats.morsels, 0u) << "threads=" << threads;
  }
  EXPECT_EQ(bindings[0], bindings[1]);
  EXPECT_EQ(bindings[0], bindings[2]);
  EXPECT_EQ(derived[0], derived[1]);
  EXPECT_EQ(derived[0], derived[2]);
}

// ----------------------------------------------------- partitioned plans

TEST(MorselPlanShapeTest, PartitionedPrepareMarksDeltaAsDriving) {
  Database db = MustParseFacts("e(a, b). e(b, c). t(a, b).");
  DatabaseSource source(&db);
  Result<RuleExecutor> exec =
      RuleExecutor::Create(MustParseRule("t(X, Z) :- e(X, Y), t(Y, Z)"));
  ASSERT_TRUE(exec.ok());

  // Unpartitioned (one-lane) plans have no driving step.
  Result<RuleExecutor::PreparedPlan> one_lane = exec->Prepare(source, 1);
  ASSERT_TRUE(one_lane.ok());
  EXPECT_EQ(exec->DrivingLiteral(*one_lane), -1);
  EXPECT_EQ(exec->DescribePlan(*one_lane, 1).find("(driving)"),
            std::string::npos);

  // A partitioned plan rotates the delta occurrence (body literal 1) to
  // the front and marks it driving; morsels clamp its scan.
  Result<RuleExecutor::PreparedPlan> plan =
      exec->Prepare(source, /*delta_literal=*/1, /*partition=*/true);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(exec->DrivingLiteral(*plan), 1);
  std::string text = exec->DescribePlan(*plan, 1);
  EXPECT_NE(text.find("(driving)"), std::string::npos) << text;
  // The driving step leads the join order: its marker appears before
  // any probe step.
  EXPECT_LT(text.find("(driving)"), text.find("probe cols")) << text;
}

TEST(MorselPlanShapeTest, NonDeltaPartitionedPlanDrivesFirstPositive) {
  Database db = MustParseFacts("e(a, b). f(b, c).");
  DatabaseSource source(&db);
  Result<RuleExecutor> exec = RuleExecutor::Create(
      MustParseRule("p(X, Z) :- e(X, Y), f(Y, Z), X != Z"));
  ASSERT_TRUE(exec.ok());
  Result<RuleExecutor::PreparedPlan> plan =
      exec->Prepare(source, -1, /*partition=*/true);
  ASSERT_TRUE(plan.ok());
  // No delta: the plan's first positive relational step drives, and its
  // original body index is reported so the round can carve that
  // relation into morsels.
  int driving = exec->DrivingLiteral(*plan);
  ASSERT_GE(driving, 0);
  EXPECT_LT(driving, 2);  // one of the relational literals, never X != Z
}

TEST(MorselPlanShapeTest, BoundLookupProbesInOneMorsel) {
  // A point lookup has no delta and a constant-bound first step: a
  // multi-lane round must probe it once, not carve a full scan of the
  // relation into morsels.
  Database edb;
  for (int i = 0; i < 10000; ++i) {
    edb.AddTuple("e", {Term::Int(i % 1000), Term::Int(i)});
  }
  Program program = MustParse("answer(Y) :- e(17, Y).");

  DatabaseSource source(&edb);
  Result<RuleExecutor> exec =
      RuleExecutor::Create(MustParseRule("answer(Y) :- e(17, Y)"));
  ASSERT_TRUE(exec.ok());
  Result<RuleExecutor::PreparedPlan> plan =
      exec->Prepare(source, -1, /*partition=*/true);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(exec->DrivingLiteral(*plan), -1);
  const std::string text = exec->DescribePlan(*plan);
  EXPECT_NE(text.find("[probe cols 0]"), std::string::npos) << text;
  EXPECT_EQ(text.find("(driving)"), std::string::npos) << text;

  EvalStats stats;
  Result<Database> four = Evaluate(program, edb, Opts(4, 1024), &stats);
  ASSERT_TRUE(four.ok()) << four.status();
  EXPECT_EQ(stats.morsels, 1u);
  Result<Database> one = Evaluate(program, edb, Opts(1, 1024));
  ASSERT_TRUE(one.ok()) << one.status();
  EXPECT_TRUE(one->SameFactsAs(*four));
  EXPECT_EQ(testing_util::RelationSize(*four, "answer", 1), 10u);
}

TEST(MorselPlanShapeTest, MorselRangeRestrictsDrivingScan) {
  Database db;
  for (int i = 0; i < 10; ++i) {
    db.AddTuple("e", {Term::Int(i), Term::Int(i + 1)});
  }
  DatabaseSource source(&db);
  Result<RuleExecutor> exec =
      RuleExecutor::Create(MustParseRule("p(X, Y) :- e(X, Y)"));
  ASSERT_TRUE(exec.ok());
  Result<RuleExecutor::PreparedPlan> plan =
      exec->Prepare(source, -1, /*partition=*/true);
  ASSERT_TRUE(plan.ok());

  size_t rows = 0;
  auto count = [&](const TupleBuffer& block) { rows += block.size(); };
  exec->ExecutePlanBatched(*plan, source, -1, count, nullptr,
                           /*batch_size=*/4, /*morsel_begin=*/3,
                           /*morsel_end=*/8);
  EXPECT_EQ(rows, 5u);

  // Disjoint morsels tile the scan: [0,3) ∪ [3,8) ∪ [8,∞) covers each
  // row exactly once.
  rows = 0;
  exec->ExecutePlanBatched(*plan, source, -1, count, nullptr, 4, 0, 3);
  exec->ExecutePlanBatched(*plan, source, -1, count, nullptr, 4, 3, 8);
  exec->ExecutePlanBatched(*plan, source, -1, count, nullptr, 4, 8,
                           RuleExecutor::kNoMorsel);
  EXPECT_EQ(rows, 10u);
}

// ------------------------------------------------------ option validation

TEST(ValidateEvalOptionsTest, AcceptsDefaultsAndAuto) {
  EXPECT_TRUE(ValidateEvalOptions(EvalOptions()).ok());
  EXPECT_TRUE(ValidateEvalOptions(Opts(0, 1024)).ok());  // auto threads
  EXPECT_TRUE(ValidateEvalOptions(Opts(256, 1)).ok());
  EXPECT_TRUE(ValidateEvalOptions(Opts(4, 7, 8)).ok());  // min legal morsel
}

TEST(ValidateEvalOptionsTest, RejectsZeroBatch) {
  Status s = ValidateEvalOptions(Opts(1, 0));
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("batch_size"), std::string::npos);
}

TEST(ValidateEvalOptionsTest, RejectsExcessiveThreads) {
  Status s = ValidateEvalOptions(Opts(257, 1024));
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("num_threads"), std::string::npos);
}

TEST(ValidateEvalOptionsTest, RejectsTinyMorsels) {
  Status s = ValidateEvalOptions(Opts(4, 1024, 4));
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("morsel_size"), std::string::npos);
}

TEST(ValidateEvalOptionsTest, EvaluateSurfacesTheViolation) {
  Program program = MustParse("p(X) :- q(X).");
  Database edb = MustParseFacts("q(a).");
  Result<Database> bad = Evaluate(program, edb, Opts(1, 0));
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kFailedPrecondition);
  Result<Database> bad_parallel =
      Evaluate(program, edb, Opts(4, 1024, 4), nullptr);
  ASSERT_FALSE(bad_parallel.ok());
  EXPECT_EQ(bad_parallel.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ValidateEvalOptionsTest, SimdOffAndAutoAlwaysValidate) {
  EvalOptions opts;
  opts.simd = SimdMode::kOff;
  EXPECT_TRUE(ValidateEvalOptions(opts).ok());
  opts.simd = SimdMode::kAuto;
  EXPECT_TRUE(ValidateEvalOptions(opts).ok());
}

TEST(ValidateEvalOptionsTest, SimdOnRequiresKernels) {
  EvalOptions opts;
  opts.simd = SimdMode::kOn;
  Status s = ValidateEvalOptions(opts);
  if (simd::kCompiledIn && !simd::EnvDisabled()) {
    EXPECT_TRUE(s.ok()) << s;
  } else {
    // Build disabled (SEMOPT_DISABLE_SIMD=ON) or env-disabled process:
    // an explicit simd=on is unsatisfiable and must be rejected.
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
    EXPECT_NE(s.message().find("simd"), std::string::npos);
  }
}

TEST(ValidateEvalOptionsTest, SimdModeResolution) {
  EXPECT_FALSE(ResolveSimdMode(SimdMode::kOff));
  EXPECT_EQ(ResolveSimdMode(SimdMode::kAuto), simd::KernelsEnabled());
  EXPECT_TRUE(ResolveSimdMode(SimdMode::kOn));
}

TEST(ValidateEvalOptionsTest, MorselSizeResolution) {
  EXPECT_EQ(ResolveMorselSize(Opts(4, 1024)), 1024u);  // auto: one block
  EXPECT_EQ(ResolveMorselSize(Opts(4, 1)), 64u);       // auto floor
  EXPECT_EQ(ResolveMorselSize(Opts(4, 1024, 128)), 128u);  // explicit
}

// --------------------------------------------- session cache across regimes

TEST(MorselSessionCacheTest, OneLaneAndMultiLaneRegimesCoexistAndHit) {
  Program program = MustParse(R"(
    t(X, Y) :- e(X, Y).
    t(X, Z) :- t(X, Y), e(Y, Z).
  )");
  Database edb;
  for (int i = 0; i < 40; ++i) {
    edb.AddTuple("e", {Term::Int(i), Term::Int(i + 1)});
  }

  PlanCache session;
  EvalOptions one_lane = Opts(1, 1024);
  one_lane.plan_cache = &session;
  EvalOptions four_lanes = Opts(4, 1024);
  four_lanes.plan_cache = &session;

  Result<Database> one_lane_run = Evaluate(program, edb, one_lane);
  ASSERT_TRUE(one_lane_run.ok());
  size_t one_lane_entries = session.size();
  EXPECT_GT(one_lane_entries, 0u);

  // More than one lane needs the partitioned plan shape: the first
  // multi-lane run misses (new regime entries) without evicting the
  // one-lane entries.
  EvalStats first_stats;
  Result<Database> four_lane_run =
      Evaluate(program, edb, four_lanes, &first_stats);
  ASSERT_TRUE(four_lane_run.ok());
  EXPECT_TRUE(one_lane_run->SameFactsAs(*four_lane_run));
  EXPECT_GT(first_stats.plan_cache_misses, 0u);
  EXPECT_GT(session.size(), one_lane_entries);

  // Steady state: a repeated multi-lane evaluation re-traverses the
  // same band trajectory in the partitioned regime and hits every round.
  EvalStats second_stats;
  Result<Database> again = Evaluate(program, edb, four_lanes, &second_stats);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(second_stats.plan_cache_misses, 0u);
  EXPECT_GT(second_stats.plan_cache_hits, 0u);
  EXPECT_TRUE(one_lane_run->SameFactsAs(*again));

  // ... and switching back to one lane still hits the one-lane entries.
  EvalStats one_lane_again_stats;
  Result<Database> one_lane_again =
      Evaluate(program, edb, one_lane, &one_lane_again_stats);
  ASSERT_TRUE(one_lane_again.ok());
  EXPECT_EQ(one_lane_again_stats.plan_cache_misses, 0u);
}

// ------------------------------------------------------- morsel counters

TEST(MorselStatsTest, CountersReportCarvedMorsels) {
  Program program = MustParse(R"(
    t(X, Y) :- e(X, Y).
    t(X, Z) :- t(X, Y), e(Y, Z).
  )");
  Database edb;
  for (int i = 0; i < 200; ++i) {
    edb.AddTuple("e", {Term::Int(i), Term::Int(i + 1)});
  }
  EvalStats stats;
  EvalOptions options = Opts(4, 16, /*morsel=*/16);
  options.collect_metrics = true;
  Result<Database> result = Evaluate(program, edb, options, &stats);
  ASSERT_TRUE(result.ok()) << result.status();
  // 200 seed rows at 16-row morsels: the first recursive round alone
  // carves 13, so the fixpoint total is comfortably above that.
  EXPECT_GT(stats.morsels, 13u);
  EXPECT_LE(stats.morsel_steals, stats.morsels);
  ASSERT_FALSE(stats.round_balance.empty());
  size_t balance_morsels = 0;
  for (const auto& rb : stats.round_balance) {
    balance_morsels += rb.total_morsels;
  }
  EXPECT_EQ(balance_morsels, stats.morsels);
}

}  // namespace
}  // namespace semopt
