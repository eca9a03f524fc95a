#ifndef SEMOPT_TESTS_TEST_HELPERS_H_
#define SEMOPT_TESTS_TEST_HELPERS_H_

#include <string>
#include <string_view>
#include <vector>

#include "ast/program.h"
#include "eval/fixpoint.h"
#include "parser/parser.h"
#include "reference_eval.h"
#include "storage/database.h"

#include "gtest/gtest.h"

namespace semopt {
namespace testing_util {

/// Parses a program or fails the test.
inline Program MustParse(std::string_view source) {
  Result<Program> result = ParseProgram(source);
  EXPECT_TRUE(result.ok()) << result.status();
  return result.ok() ? std::move(result).value() : Program();
}

inline Rule MustParseRule(std::string_view source) {
  Result<Rule> result = ParseRule(source);
  EXPECT_TRUE(result.ok()) << result.status();
  return result.ok() ? std::move(result).value() : Rule();
}

inline Constraint MustParseConstraint(std::string_view source) {
  Result<Constraint> result = ParseConstraint(source);
  EXPECT_TRUE(result.ok()) << result.status();
  return result.ok() ? std::move(result).value() : Constraint();
}

inline Literal MustParseLiteral(std::string_view source) {
  Result<Literal> result = ParseLiteral(source);
  EXPECT_TRUE(result.ok()) << result.status();
  return result.ok() ? std::move(result).value()
                     : Literal::Comparison(Term::Int(0), ComparisonOp::kEq,
                                           Term::Int(0));
}

/// Builds a Database from whitespace-separated ground atoms, e.g.
/// "edge(a, b). edge(b, c)."
inline Database MustParseFacts(std::string_view source) {
  Database db;
  Result<Program> parsed = ParseProgram(source);
  EXPECT_TRUE(parsed.ok()) << parsed.status();
  if (parsed.ok()) {
    for (const Rule& rule : parsed->rules()) {
      EXPECT_TRUE(rule.IsFact()) << rule;
      Status st = db.AddFact(rule.head());
      EXPECT_TRUE(st.ok()) << st;
    }
  }
  return db;
}

/// Evaluates and returns the IDB, failing the test on error.
inline Database MustEvaluate(const Program& program, const Database& edb,
                             EvalStrategy strategy = EvalStrategy::kSemiNaive,
                             EvalStats* stats = nullptr) {
  EvalOptions options;
  options.strategy = strategy;
  Result<Database> result = Evaluate(program, edb, options, stats);
  EXPECT_TRUE(result.ok()) << result.status();
  return result.ok() ? std::move(result).value() : Database();
}

/// Sorted string rendering of a relation's tuples (order-insensitive
/// comparison helper).
inline std::vector<std::string> RelationRows(const Database& db,
                                             std::string_view pred,
                                             uint32_t arity) {
  std::vector<std::string> rows;
  const Relation* rel =
      db.Find(PredicateId{InternSymbol(pred), arity});
  if (rel != nullptr) {
    for (RowRef t : rel->rows()) rows.push_back(TupleToString(t));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// Number of tuples of `pred` in `db` (0 when absent).
inline size_t RelationSize(const Database& db, std::string_view pred,
                           uint32_t arity) {
  const Relation* rel = db.Find(PredicateId{InternSymbol(pred), arity});
  return rel == nullptr ? 0 : rel->size();
}

/// Evaluates `program` over `edb` with `base` at every strategy ×
/// threads {1, 2, 8} × batch size {1, 2, 5, 1024} and expects each run
/// to derive exactly the reference evaluator's fixpoint (facts and
/// derived-tuple count).
inline void ExpectMatchesReference(const Program& program, const Database& edb,
                                   const EvalOptions& base = EvalOptions()) {
  Result<Database> reference = ReferenceEvaluate(program, edb);
  ASSERT_TRUE(reference.ok()) << reference.status();
  for (EvalStrategy strategy :
       {EvalStrategy::kSemiNaive, EvalStrategy::kNaive}) {
    for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
      for (size_t batch : {size_t{1}, size_t{2}, size_t{5}, size_t{1024}}) {
        EvalOptions options = base;
        options.strategy = strategy;
        options.num_threads = threads;
        options.batch_size = batch;
        EvalStats stats;
        Result<Database> result = Evaluate(program, edb, options, &stats);
        const std::string where =
            std::string(strategy == EvalStrategy::kNaive ? "naive"
                                                         : "semi-naive") +
            " threads=" + std::to_string(threads) +
            " batch=" + std::to_string(batch);
        ASSERT_TRUE(result.ok()) << result.status() << " " << where;
        EXPECT_TRUE(reference->SameFactsAs(*result)) << where;
        EXPECT_EQ(stats.derived_tuples, reference->TotalTuples()) << where;
        EXPECT_GT(stats.iterations, 0u) << where;
      }
    }
  }
}

}  // namespace testing_util
}  // namespace semopt

#endif  // SEMOPT_TESTS_TEST_HELPERS_H_
