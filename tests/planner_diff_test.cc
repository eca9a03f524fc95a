// Randomized differential suite for the join planner: its orders are
// pure reorderings of the same safe step set, so for every program,
// every EDB, and every executor configuration the derived relations —
// and the per-evaluation derived totals — must equal the test-side
// reference evaluator's. Seeded generation keeps failures reproducible.

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "eval/fixpoint.h"

#include "gtest/gtest.h"
#include "reference_eval.h"
#include "test_helpers.h"

namespace semopt {
namespace {

using testing_util::MustParse;
using testing_util::ReferenceEvaluate;

struct ProgramTemplate {
  const char* name;
  const char* source;
  /// Binary EDB predicates populated with random pairs.
  std::vector<const char*> edge_preds;
  /// Unary EDB predicates populated with the whole domain.
  std::vector<const char*> domain_preds;
};

const ProgramTemplate kTemplates[] = {
    {"transitive_closure",
     R"(
       t(X, Y) :- e(X, Y).
       t(X, Z) :- t(X, Y), e(Y, Z).
     )",
     {"e"},
     {}},
    {"multi_join_recursion",
     R"(
       q(A, D) :- a(A, B), b(B, C), c(C, D), A != D.
       p(A, D) :- q(A, D).
       p(A, D) :- p(A, C), q(C, D).
     )",
     {"a", "b", "c"},
     {}},
    {"same_generation",
     R"(
       sg(X, Y) :- flat(X, Y).
       sg(X, Y) :- up(X, A), sg(A, B), down(B, Y).
     )",
     {"flat", "up", "down"},
     {}},
    {"negation_and_comparison",
     R"(
       r(X, Y) :- e(X, Y).
       r(X, Z) :- r(X, Y), e(Y, Z).
       lt(X, Y) :- r(X, Y), X < Y.
       nr(X, Y) :- n(X), n(Y), not r(X, Y).
     )",
     {"e"},
     {"n"}},
    // Fan-out skew: `hub` is the smallest relation but has few distinct
    // join keys, so the greedy smallest-first tie-break and the cost
    // enumerator open the join differently.
    {"fan_out_skew",
     R"(
       q(A, C) :- src(A, B), hub(B, C), filt(A, C).
       r(A, C) :- q(A, C).
       r(A, D) :- r(A, C), q(C, D).
     )",
     {"src", "hub", "filt"},
     {}},
};

Database RandomEdb(const ProgramTemplate& tmpl, uint32_t seed) {
  std::mt19937 rng(seed);
  const int domain = 12 + static_cast<int>(rng() % 8);
  const int facts_per_pred = 40 + static_cast<int>(rng() % 40);
  Database db;
  for (const char* pred : tmpl.edge_preds) {
    for (int i = 0; i < facts_per_pred; ++i) {
      const int x = static_cast<int>(rng() % domain);
      const int y = static_cast<int>(rng() % domain);
      EXPECT_TRUE(db.AddFact(Atom(pred, {Term::Int(x), Term::Int(y)})).ok());
    }
  }
  for (const char* pred : tmpl.domain_preds) {
    for (int v = 0; v < domain; ++v) {
      EXPECT_TRUE(db.AddFact(Atom(pred, {Term::Int(v)})).ok());
    }
  }
  return db;
}

TEST(PlannerDifferentialTest, MatchesReferenceAcrossConfigurations) {
  for (const ProgramTemplate& tmpl : kTemplates) {
    Program program = MustParse(tmpl.source);
    for (uint32_t seed : {2026u, 4052u}) {
      Database edb = RandomEdb(tmpl, seed);
      Result<Database> reference = ReferenceEvaluate(program, edb);
      ASSERT_TRUE(reference.ok()) << tmpl.name << ": " << reference.status();
      for (size_t batch : {size_t{1}, size_t{1024}}) {
        for (size_t threads : {size_t{1}, size_t{4}}) {
          for (SimdMode simd : {SimdMode::kOff, SimdMode::kAuto}) {
            const std::string label =
                std::string(tmpl.name) + " seed=" + std::to_string(seed) +
                " batch=" + std::to_string(batch) +
                " threads=" + std::to_string(threads) +
                " simd=" + (simd == SimdMode::kOff ? "off" : "auto");

            EvalOptions options;
            options.batch_size = batch;
            options.num_threads = threads;
            options.simd = simd;
            EvalStats stats;
            Result<Database> result = Evaluate(program, edb, options, &stats);
            ASSERT_TRUE(result.ok()) << label << ": " << result.status();

            EXPECT_TRUE(reference->SameFactsAs(*result)) << label;
            EXPECT_EQ(stats.derived_tuples, reference->TotalTuples())
                << label;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace semopt
