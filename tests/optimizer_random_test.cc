// Randomized end-to-end soundness: generate random linear recursive
// programs with random chain ICs, repair random databases to satisfy
// the ICs, and require the optimized program (all three pushes, both
// the flat and factored encodings), the runtime-residue evaluator, and
// magic-sets rewrites to agree with plain evaluation.

#include "eval/constraint_check.h"
#include "magic/magic_sets.h"
#include "semopt/optimizer.h"
#include "semopt/runtime_residues.h"
#include "util/hash_util.h"
#include "util/string_util.h"

#include "gtest/gtest.h"
#include "test_helpers.h"

namespace semopt {
namespace {

using testing_util::MustEvaluate;
using testing_util::RelationRows;

struct GeneratedCase {
  Program program;
  Database edb;
};

/// Builds a random program + IC + IC-satisfying database from `seed`.
GeneratedCase GenerateCase(uint64_t seed) {
  SplitMix64 rng(seed);

  // Program family: a binary recursive predicate over weighted edges,
  // with optional extra subgoals that ICs can make redundant.
  std::string source;
  source += "r0: p(X, Y) :- base(X, Y).\n";

  const bool with_tag = rng.Below(2) == 0;
  const bool second_recursive = rng.Below(3) == 0;
  if (with_tag) {
    source +=
        "r1: p(X, Y) :- edge(X, Z, W), tag(X), p(Z, Y).\n";
  } else {
    source += "r1: p(X, Y) :- edge(X, Z, W), p(Z, Y).\n";
  }
  if (second_recursive) {
    source += "r2: p(X, Y) :- hop(X, Z), p(Z, Y).\n";
  }

  // IC family.
  const int64_t threshold = static_cast<int64_t>(rng.Below(50));
  switch (rng.Below(5)) {
    case 0:
      // Conditional fact residue whose head occurs when with_tag.
      source += StrCat("ic: edge(X, Z, W), W > ", threshold,
                       " -> tag(X).\n");
      break;
    case 1:
      // Chain of two edges implying a (possibly non-occurring) fact.
      source +=
          "ic: edge(X, Z, W), edge(Z, Z2, W2) -> link(X, Z2).\n";
      break;
    case 2:
      // Conditional null residue over a 2-chain.
      source += StrCat("ic: W <= ", threshold,
                       ", edge(X, Z, W), edge(Z, Z2, W2) -> .\n");
      break;
    case 3:
      // Unconditional fact: every edge source is tagged.
      source += "ic: edge(X, Z, W) -> tag(X).\n";
      break;
    default:
      // Longer chain with a comparison condition.
      source += StrCat("ic: edge(X, Z, W), edge(Z, Z2, W2), W2 >= ",
                       threshold, " -> tag(Z)", ".\n");
      break;
  }

  GeneratedCase out;
  Result<Program> parsed = ParseProgram(source);
  EXPECT_TRUE(parsed.ok()) << parsed.status() << "\n" << source;
  if (parsed.ok()) out.program = std::move(*parsed);

  // Random database.
  const int nodes = 8 + static_cast<int>(rng.Below(5));
  auto node = [&](uint64_t i) { return Term::Sym(StrCat("n", i)); };
  for (int i = 0; i < 2 * nodes; ++i) {
    out.edb.AddTuple("edge",
                     {node(rng.Below(nodes)), node(rng.Below(nodes)),
                      Term::Int(static_cast<int64_t>(rng.Below(100)))});
  }
  for (int i = 0; i < nodes; ++i) {
    out.edb.AddTuple("base", {node(rng.Below(nodes)), node(rng.Below(nodes))});
    if (rng.NextDouble() < 0.6) out.edb.AddTuple("tag", {node(i)});
  }
  if (second_recursive) {
    for (int i = 0; i < nodes; ++i) {
      out.edb.AddTuple("hop",
                       {node(rng.Below(nodes)), node(rng.Below(nodes))});
    }
  }
  for (int i = 0; i < nodes; ++i) {
    out.edb.AddTuple("link",
                     {node(rng.Below(nodes)), node(rng.Below(nodes))});
  }

  // Make the database satisfy the IC by deletion repair.
  Result<size_t> deleted =
      RepairByDeletion(&out.edb, out.program.constraints());
  EXPECT_TRUE(deleted.ok()) << deleted.status();
  for (const Constraint& ic : out.program.constraints()) {
    Result<bool> sat = Satisfies(out.edb, ic);
    EXPECT_TRUE(sat.ok() && *sat) << "repair failed for " << ic.ToString();
  }
  return out;
}

class OptimizerRandom : public ::testing::TestWithParam<int> {};

TEST_P(OptimizerRandom, AllEnginesAgreeOnConsistentDatabases) {
  GeneratedCase c = GenerateCase(static_cast<uint64_t>(GetParam()) * 7919 + 3);
  Database reference = MustEvaluate(c.program, c.edb);
  std::vector<std::string> expected = RelationRows(reference, "p", 2);

  // Optimizer, factored (default) and flat.
  for (bool factor : {true, false}) {
    OptimizerOptions options;
    options.factor_committed = factor;
    options.small_relations.insert(PredicateId{InternSymbol("tag"), 1});
    options.small_relations.insert(PredicateId{InternSymbol("link"), 2});
    SemanticOptimizer optimizer(options);
    Result<OptimizeResult> optimized = optimizer.Optimize(c.program);
    ASSERT_TRUE(optimized.ok())
        << optimized.status() << "\n" << c.program.ToString();
    Database idb = MustEvaluate(optimized->program, c.edb);
    EXPECT_EQ(RelationRows(idb, "p", 2), expected)
        << "factor=" << factor << "\nprogram:\n"
        << c.program.ToString() << "\noptimized:\n"
        << optimized->program.ToString() << optimized->Report();
  }

  // Runtime-residue evaluation.
  Result<Database> runtime = EvaluateWithRuntimeResidues(c.program, c.edb);
  ASSERT_TRUE(runtime.ok()) << runtime.status();
  EXPECT_EQ(RelationRows(*runtime, "p", 2), expected);

  // The naive reference evaluator agrees too.
  Result<Database> naive =
      testing_util::ReferenceEvaluate(c.program, c.edb);
  ASSERT_TRUE(naive.ok()) << naive.status();
  EXPECT_EQ(RelationRows(*naive, "p", 2), expected);
}

TEST_P(OptimizerRandom, MagicAgreesOnOptimizedPrograms) {
  GeneratedCase c =
      GenerateCase(static_cast<uint64_t>(GetParam()) * 104729 + 11);
  SemanticOptimizer optimizer;
  Result<OptimizeResult> optimized = optimizer.Optimize(c.program);
  ASSERT_TRUE(optimized.ok());

  // Pick a bound constant that exists in the data.
  const Relation* base =
      c.edb.Find(PredicateId{InternSymbol("base"), 2});
  if (base == nullptr || base->empty()) return;
  Term bound = base->row(0)[0];
  Atom query("p", {bound, Term::Var("Y")});

  Result<std::vector<Tuple>> magic_original =
      AnswerWithMagic(c.program, c.edb, query);
  Result<std::vector<Tuple>> magic_optimized =
      AnswerWithMagic(optimized->program, c.edb, query);
  ASSERT_TRUE(magic_original.ok()) << magic_original.status();
  ASSERT_TRUE(magic_optimized.ok()) << magic_optimized.status();

  auto sorted = [](const std::vector<Tuple>& tuples) {
    std::vector<std::string> out;
    for (const Tuple& t : tuples) out.push_back(TupleToString(t));
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  };
  EXPECT_EQ(sorted(*magic_original), sorted(*magic_optimized))
      << c.program.ToString();
}

INSTANTIATE_TEST_SUITE_P(Seeds, OptimizerRandom, ::testing::Range(1, 41));

// Aggregate check: across the seed range, the optimizer must actually
// fire on a healthy fraction of the generated cases (otherwise the
// equivalence tests above would be testing nothing).
TEST(OptimizerRandomAggregate, OptimizationsActuallyApply) {
  int applied_cases = 0;
  int total = 0;
  for (int seed = 1; seed <= 40; ++seed) {
    GeneratedCase c = GenerateCase(static_cast<uint64_t>(seed) * 7919 + 3);
    SemanticOptimizer optimizer;
    OptimizerOptions options;
    options.small_relations.insert(PredicateId{InternSymbol("tag"), 1});
    options.small_relations.insert(PredicateId{InternSymbol("link"), 2});
    SemanticOptimizer with_small(options);
    Result<OptimizeResult> result = with_small.Optimize(c.program);
    ASSERT_TRUE(result.ok());
    ++total;
    if (!result->applied.empty()) ++applied_cases;
  }
  EXPECT_GE(applied_cases * 4, total)
      << "fewer than 25% of random cases produced an applied "
         "optimization: "
      << applied_cases << "/" << total;
}

}  // namespace
}  // namespace semopt
